"""Cross-module interface and edge-path tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wernerlab import steer
from wernerlab.cli import main
from wernerlab.extend import (
    ExtensionQuery,
    critical_weight,
    run_query,
    symmetric_subspace_isometry,
)
from wernerlab.filterops import filter_protocol, filtered_weight, qubit_projection, replay_protocol
from wernerlab.qmat import embed, partial_transpose
from wernerlab.solver import solve
from wernerlab.states import werner

from lp_oracle import lp_vertex_enumeration_check


@pytest.mark.parametrize(
    "entry", ["assemblage_from", "sr_state_lower_bound", "replay_protocol", "partial_transpose", "embed"]
)
def test_side_other_than_a_or_b_is_rejected_before_any_draw(entry, monkeypatch):
    rho = werner(3, 0.1)
    meas = steer.random_projective(3, 2, np.random.default_rng(0))
    proto = filter_protocol(qubit_projection(3, (1, 2), "A"))
    calls = {
        "assemblage_from": lambda: steer.assemblage_from(rho, meas, "a"),
        "sr_state_lower_bound": lambda: steer.sr_state_lower_bound(rho, 2, restarts=2, steering_side="left"),
        "replay_protocol": lambda: replay_protocol(rho, proto, "a"),
        "partial_transpose": lambda: partial_transpose(rho, "a"),
        "embed": lambda: embed(np.eye(3), 3, "left"),
    }

    def no_draw(*args, **kwargs):
        raise AssertionError("drew restarts before checking the side")

    monkeypatch.setattr(steer, "haar_restarts", no_draw)
    with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
        calls[entry]()


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
    res = run_query(ExtensionQuery(werner(2, 0.0), 4, "B", "SE"))
    assert res.status == "OPTIMAL"
    assert critical_weight(res.t_star, 2) == pytest.approx(3 / 8, abs=2e-3)
    assert res.t_star == pytest.approx(2.0, abs=1e-3)


def test_quasi_extension_k4_partition_subset():
    q = ExtensionQuery(werner(2, 0.1), 4, "B", "SQE")
    sqe = run_query(q, tol=1e-6)
    se = run_query(ExtensionQuery(werner(2, 0.1), 4, "B", "SE"), tol=1e-6)
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
