"""Cross-module interface and edge-path tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from wernerlab import certify, steer, tomo
from wernerlab.cli import main
from wernerlab.extend import (
    ExtensionQuery,
    critical_weight,
    run_query,
    symmetric_subspace_isometry,
)
from wernerlab.filterops import (
    apply_filter,
    filter_protocol,
    filtered_weight,
    qubit_projection,
    replay_protocol,
    rotated_filtered_state,
)
from wernerlab.qmat import DensityMatrix, as_state, partial_transpose_dims
from wernerlab.serialize import state_from_json
from wernerlab.solver import Block, ConicProgram, load_program, solve
from wernerlab.states import NoiseSpec, noisy_surrogate, werner

from lp_oracle import lp_vertex_enumeration_check


DUMP = "CONICPROG 1\nBLOCKS 1\nnonneg 2\nOBJ 0\nA 1 2 0\nRHS 0\nEND\n"


def _correlation(shape, entries):
    p = np.zeros(shape)
    for index, value in entries.items():
        p[index] = value
    return steer.Correlation(p)


def _raising_calls():
    """One call per check on outside input that no other test reaches, with the message it raises."""
    rect = DensityMatrix(2, 3, np.eye(6) / 6)
    far = np.zeros((9, 9))
    far[8, 8] = 1.0  # |22>, which a projection onto levels 0 and 1 annihilates
    far = DensityMatrix(3, 3, far)
    keep01 = qubit_projection(3, (0, 1))
    qubits = steer.mub_qubit_measurements(2)
    counts = tomo.counts_to_csv(tomo.expected_counts_record(werner(3, 0.0), 100))

    def sidecar(n, seed, **extra):
        return json.dumps({"N": n, "seed": seed, "frame": "qutrit9", **extra})

    return {
        "gurvits_ball": (lambda: certify.gurvits_ball(rect), "equal local dimensions"),
        "gurvits_ball-1x1": (lambda: certify.gurvits_ball(DensityMatrix(1, 1, np.eye(1))), "at least 2"),
        "one_distillable-1x2": (
            lambda: certify.one_distillable(DensityMatrix(1, 2, np.eye(2) / 2)), "Schmidt-rank-2 vector needs"
        ),
        "one_distillable-2x1": (
            lambda: certify.one_distillable(DensityMatrix(2, 1, np.eye(2) / 2)), "Schmidt-rank-2 vector needs"
        ),
        "fef_many": (lambda: certify.fef_many([rect], [0]), "square bipartition"),
        "correlation_matrix": (lambda: certify.correlation_matrix(werner(3, 0.0)), "two-qubit states"),
        "apply_filter-dims": (lambda: apply_filter(rect, keep01, keep01), "input dimensions do not match"),
        "assemblage_from-dims": (
            lambda: steer.assemblage_from(werner(3, 0.0), qubits), "measurement dimension does not match side A"
        ),
        "rotated_filtered_state": (lambda: rotated_filtered_state(1.5), "v must lie in"),
        "replay_protocol-annihilates": (
            lambda: replay_protocol(far, filter_protocol(keep01)), "protocol annihilates state"
        ),
        "DensityMatrix-non-finite": (lambda: DensityMatrix(1, 2, np.diag([np.nan, 1.0])), "non-finite"),
        "as_state-not-psd": (lambda: as_state(np.diag([1.5, -0.5]), 1, 2), "not PSD"),
        "partial_transpose_dims": (lambda: partial_transpose_dims(np.eye(4), [2, 2], [2]), "out of range"),
        "state_from_json": (
            lambda: state_from_json('{"dimA": 1, "dimB": 2, "entries": [[1, 0]]}'), "entry count"
        ),
        "state_from_json-missing-key": (lambda: state_from_json('{"dimA": 2}'), "keys dimA, dimB and entries"),
        "state_from_json-not-object": (lambda: state_from_json("[1, 2]"), "must be a JSON object"),
        "state_from_json-dim-string": (
            lambda: state_from_json('{"dimA": "a", "dimB": 2, "entries": []}'), "dimA and dimB must be positive"
        ),
        "state_from_json-dim-fraction": (
            lambda: state_from_json('{"dimA": 1.5, "dimB": 2, "entries": []}'), "dimA and dimB must be positive"
        ),
        "state_from_json-entries-not-pairs": (
            lambda: state_from_json('{"dimA": 1, "dimB": 1, "entries": [1, 2]}'), r"\[re, im\] pairs of numbers"
        ),
        "counts_from_csv-missing-key": (
            lambda: tomo.counts_from_csv("", '{"frame": "qutrit9"}'), "keys N, seed and frame"
        ),
        "counts_from_csv-not-object": (lambda: tomo.counts_from_csv("", "[1, 2]"), "must be a JSON object"),
        "counts_from_csv-N-string": (lambda: tomo.counts_from_csv(counts, sidecar("x", 0)), "shots must be an integer"),
        "counts_from_csv-N-negative-seed-fraction": (
            lambda: tomo.counts_from_csv(counts, sidecar(-5, 0.5)), "shots must be an integer of at least 1, got -5"
        ),
        "counts_from_csv-N-bool": (lambda: tomo.counts_from_csv(counts, sidecar(True, 0)), "shots must be an integer"),
        "counts_from_csv-seed-fraction": (
            lambda: tomo.counts_from_csv(counts, sidecar(100, 0.5)), "seed must be an integer of at least 0, got 0.5"
        ),
        "counts_from_csv-frame-list": (
            lambda: tomo.counts_from_csv(counts, sidecar(100, 0, frame=[])), r"unknown tomography frame \[\]"
        ),
        "counts_from_csv-state_tag-list": (
            lambda: tomo.counts_from_csv(counts, sidecar(100, 0, state_tag=[1])), r"state_tag must be a string, got \[1\]"
        ),
        "Block": (lambda: Block("free", 0), "block size must be positive"),
        "ConicProgram": (
            lambda: ConicProgram([Block("free", 2)], np.zeros(2), sp.csr_matrix((1, 3)), np.zeros(1)),
            "constraint matrix shape mismatch",
        ),
        "load_program-malformed-line": (
            lambda: load_program(DUMP.replace("BLOCKS 1", "BLOCKS 1 2")), "malformed line 'BLOCKS 1 2'"
        ),
        "load_program-variable-count": (
            lambda: load_program(DUMP.replace("A 1 2 0", "A 1 3 0")), "variable count mismatch"
        ),
        "NoiseSpec-depol": (lambda: NoiseSpec(depol=1.5), "depol must lie in"),
        "NoiseSpec-coherent_eps": (lambda: NoiseSpec(coherent_eps=-0.1), "coherent_eps must be nonnegative"),
        "NoiseSpec-coherent_eps-nan": (lambda: NoiseSpec(coherent_eps=float("nan")), "coherent_eps"),
        "NoiseSpec-coherent_eps-inf": (lambda: NoiseSpec(coherent_eps=float("inf")), "coherent_eps"),
        "Correlation-shape": (lambda: steer.Correlation(np.full((1, 2, 2), 0.25)), "must have shape"),
        "Correlation-negative": (
            lambda: _correlation((1, 1, 2, 2), {(0, 0, 0, 0): 1.5, (0, 0, 0, 1): -0.5}), "negative probabilities"
        ),
        "Correlation-normalized": (lambda: _correlation((1, 1, 2, 2), {(0, 0, 0, 0): 0.5}), "normalized"),
        "Correlation-signals-B-to-A": (
            lambda: _correlation((1, 2, 2, 2), {(0, 0, 0, 0): 1.0, (0, 1, 1, 0): 1.0}), "from B to A"
        ),
        "Correlation-signals-A-to-B": (
            lambda: _correlation((2, 1, 2, 2), {(0, 0, 0, 0): 1.0, (1, 0, 0, 1): 1.0}), "from A to B"
        ),
        "correlation_from": (
            lambda: steer.correlation_from(werner(3, 0.0), qubits, qubits), "measurement dimensions"
        ),
        # 2^10 * 2^10 deterministic strategies
        "nonlocal_content_program": (
            lambda: steer.nonlocal_content_program(steer.Correlation(np.full((10, 10, 2, 2), 0.25))),
            "too large for vertex enumeration",
        ),
        "seesaw_bell_many": (
            lambda: steer.seesaw_bell_many([werner(2, 0.0)], np.zeros((10, 10, 2, 2)), [0]), "scenario too large"
        ),
        "frame_for": (lambda: tomo.frame_for("qutrit8"), "unknown tomography frame 'qutrit8'"),
        "expected_probabilities": (
            lambda: tomo.expected_probabilities(werner(3, 0.0), tomo.qubit_bases()), "frame dimension"
        ),
    }


@pytest.mark.parametrize("entry", list(_raising_calls()))
def test_outside_input_is_rejected(entry):
    call, message = _raising_calls()[entry]
    with pytest.raises(ValueError, match=message):
        call()


def test_vertex_oracle_on_tiny_nonlocal_content():
    # one-setting deterministic box: the LP fits in the 12-variable oracle
    p = np.zeros((1, 1, 2, 2))
    p[0, 0, 1, 0] = 1.0
    prog = steer.nonlocal_content_program(steer.Correlation(p))
    assert prog.n <= 12
    exact = lp_vertex_enumeration_check(prog)
    assert exact == pytest.approx(0.0, abs=1e-12)
    assert solve(prog, tol=1e-9).primal_obj == pytest.approx(exact, abs=1e-7)


def test_extension_k4_two_qubit_threshold():
    # known 3/8 threshold at (d, k) = (2, 4) exercises the four-copy path
    res = run_query(ExtensionQuery(werner(2, 0.0), 4, "SE"))
    assert res.status == "OPTIMAL"
    assert critical_weight(res.t_star, 2) == pytest.approx(3 / 8, abs=2e-3)
    assert res.t_star == pytest.approx(2.0, abs=1e-3)


def test_quasi_extension_k4_partition_subset():
    # a non-Werner input, so that SQE solves its four-subset program
    rho = noisy_surrogate(werner(2, 0.1), NoiseSpec(depol=0.06, coherent_eps=0.02, seed=2024))
    sqe = run_query(ExtensionQuery(rho, 4, "SQE"), tol=1e-6)
    se = run_query(ExtensionQuery(rho, 4, "SE"), tol=1e-6)
    assert sqe.iterations > 0
    assert sqe.status == "OPTIMAL"
    assert sqe.t_star <= se.t_star + 1e-5


def test_symmetric_isometry_size_guard():
    with pytest.raises(ValueError, match="too large"):
        symmetric_subspace_isometry(4, 4)


def test_filter_boundary_maps_to_qubit_steering_threshold():
    # v = 2/7 maps exactly onto the two-qubit projective-steering boundary 3/8
    assert filtered_weight(3, 2 / 7) == pytest.approx(3 / 8, abs=1e-15)
    # and v = v_distill = 0.4 maps onto the two-qubit teleportation boundary 1/2
    assert filtered_weight(3, 0.4) == pytest.approx(0.5, abs=1e-15)


def test_pipeline_low_noise_directions(tmp_path):
    report_file = tmp_path / "r.json"
    code = main(
        [
            "pipeline",
            "--v",
            "0.0",
            "--depol",
            "0.02",
            "--eps",
            "0.01",
            "--shots",
            "30000",
            "--bootstrap",
            "10",
            "--restarts",
            "8",
            "--sr-restarts",
            "3",
            "--seed",
            "12",
            "--strict",
            "--out",
            str(report_file),
        ]
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    filtered = report["filtered"]
    assert filtered["certificates"]["chsh"]["value"] > 2.6
    assert filtered["certificates"]["dense_coding"]["verdict"] == "PASS"
    assert filtered["steering_robustness"] > report["unfiltered"]["steering_robustness"]


def test_bench_tracer_installs():
    """The benchmark tracer rebinds layer entry points by name; each one it lists must exist."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(root / p) for p in ("bench", "src")))
    proc = subprocess.run(
        [sys.executable, "-c", "from spans import Tracer; Tracer().install()"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
