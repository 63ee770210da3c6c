"""Tests for coincidence simulation and MLE reconstruction."""

import argparse

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import certify, cli, tomo
from wernerlab.filterops import rotated_filtered_state
from wernerlab.qmat import DensityMatrix, uhlmann_fidelity
from wernerlab.states import experiment_like_noise, noisy_surrogate, werner
from wernerlab.tomo import (
    CountsRecord,
    bootstrap_error,
    counts_from_csv,
    counts_metadata_json,
    counts_to_csv,
    expected_counts_record,
    expected_probabilities,
    frame_rank,
    mle_reconstruct,
    mle_reconstruct_with_history,
    qubit_bases,
    qutrit_bases,
    simulate_counts,
)
from sequential_reference import assert_rows_bitwise_alone, bootstrap_by_record, fidelity_to, mle_by_record


def ppt_min_eig(rho):
    return certify.ppt_min_eig(rho).value


def chsh(rho):
    return certify.chsh_horodecki(rho).value


def test_qutrit_basis_vectors():
    frame = qutrit_bases()
    assert frame.labels[0] == "M1"
    assert np.allclose(frame.vectors[0], [1, 0, 0])
    assert np.allclose(frame.vectors[4], np.array([1, 1j, 0]) / np.sqrt(2))  # M5
    assert np.allclose(frame.vectors[3], np.array([1, 1, 0]) / np.sqrt(2))  # M4
    assert np.allclose(frame.vectors[8], np.array([0, 1, 1j]) / np.sqrt(2))  # M9
    for v in frame.vectors:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_frame_ranks():
    assert frame_rank(qutrit_bases()) == 81
    assert frame_rank(qubit_bases()) == 16


def test_frame_rank_check_raises(monkeypatch):
    monkeypatch.setattr(tomo, "frame_rank", lambda frame: 15)
    with pytest.raises(RuntimeError, match="qubit frame must span"):
        tomo.qubit_bases.__wrapped__()


def test_expected_probabilities_cases():
    psi = np.zeros(9)
    psi[0] = 1.0  # |00>
    rho = DensityMatrix(3, 3, np.outer(psi, psi))
    p = expected_probabilities(rho)
    assert p[0, 0] == pytest.approx(1.0, abs=1e-12)  # (M1, M1)
    assert p[1, 0] == pytest.approx(0.0, abs=1e-12)  # (M2, M1)
    p0 = expected_probabilities(werner(3, 0.0))
    assert p0[0, 0] == pytest.approx(0.0, abs=1e-12)  # <00|Pi-|00> = 0


def test_simulate_counts_seeded():
    w = werner(3, 0.2)
    a = simulate_counts(w, 1000, 42)
    b = simulate_counts(w, 1000, 42)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, simulate_counts(w, 1000, 43).counts)
    with pytest.raises(ValueError):
        simulate_counts(w, 0, 1)


def test_mle_noiseless_fixed_point():
    w = werner(3, 0.3)
    rec = expected_counts_record(w, 10**6)
    rho, history = mle_reconstruct_with_history(rec)
    assert uhlmann_fidelity(rho, w) >= 0.9999
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
    assert history.gap <= 0.1 and not history.capped


def test_stalled_row_leaves_before_its_cap():
    # on this record every try after the first few dozen moves mu by rounding only, and the gap's
    # rounding margin keeps it above 1e-6 nats; without the stall exit the row runs all 20,000 tries
    ((_, history),) = tomo.mle_reconstruct_many([expected_counts_record(werner(3, 0), 10**6)], max_iter=20000, tol=1e-6)
    assert history.tries <= 100 and history.capped
    assert history.gap == pytest.approx(1.0032005e-05, abs=1e-11)


def test_mle_monotone_likelihood_with_poisson_noise():
    rec = simulate_counts(werner(3, 0.3), 5000, 9)
    rho, history = mle_reconstruct_with_history(rec, max_iter=4000)
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12


def test_mle_statistical_floor():
    # 20-seed reconstruction quality at N = 1e4; the measured floor (see the
    # decisions ledger) puts the median near 0.985
    w = werner(3, 0.3)
    fids = [
        uhlmann_fidelity(mle_reconstruct(simulate_counts(w, 10**4, seed)), w)
        for seed in range(20)
    ]
    assert np.median(fids) >= 0.97
    assert min(fids) >= 0.93


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fidelity_of_rank_deficient_reconstruction_ignores_rounding(seed):
    # the v = 0 reconstruction has eigenvalues of order 1e-17; rounding-level Hermitian
    # perturbations of it must not move the fidelity by more than rounding does
    w = werner(3, 0)
    recon = mle_reconstruct(simulate_counts(w, 10**4, seed))
    f = uhlmann_fidelity(recon, w)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        h = (g + g.conj().T) / 2
        h *= 3e-16 / np.linalg.norm(h, 2)
        assert abs(uhlmann_fidelity(recon.mat + h, w) - f) < 1e-13


def test_mle_reconstruction_of_reconstruction():
    rec = simulate_counts(werner(3, 0.25), 20000, 5)
    rho_hat = mle_reconstruct(rec, max_iter=4000)
    rec2 = expected_counts_record(rho_hat, 10**7)
    rho_hat2 = mle_reconstruct(rec2, max_iter=5000)
    assert uhlmann_fidelity(rho_hat2, rho_hat) >= 0.9999


def test_surrogate_reconstructions_hit_band():
    for v in (0.0, 0.25, 0.5):
        ideal = werner(3, v)
        surrogate = noisy_surrogate(ideal, experiment_like_noise(v))
        rec = simulate_counts(surrogate, 10**5, 11)
        rho = mle_reconstruct(rec, max_iter=3000)
        f = uhlmann_fidelity(rho, ideal)
        assert 0.958 - 0.01 <= f <= 0.995 + 0.003


def test_two_qubit_frame_reconstruction():
    rho = rotated_filtered_state(0.1)
    rec = simulate_counts(rho, 10**5, 3, frame=qubit_bases())
    recon = mle_reconstruct(rec, max_iter=3000)
    assert uhlmann_fidelity(recon, rho) >= 0.995


def test_bootstrap_shrinks_with_counts():
    w = werner(3, 0.3)
    _, sd_small = bootstrap_error(simulate_counts(w, 10**3, 1), ppt_min_eig, n_boot=15, seed=2)
    _, sd_big = bootstrap_error(simulate_counts(w, 10**5, 1), ppt_min_eig, n_boot=15, seed=2)
    assert sd_big < sd_small
    with pytest.raises(ValueError):
        bootstrap_error(simulate_counts(w, 10**3, 1), ppt_min_eig, n_boot=5)


def test_bootstrap_chsh_error_bar_magnitude():
    # a noisy filtered state near fidelity 0.95 at experiment-like counts
    # shows S ~ 2.65 with a bootstrap spread of order 0.02
    from wernerlab.states import NoiseSpec

    noisy = noisy_surrogate(rotated_filtered_state(0.0), NoiseSpec(0.06, 0.04, 21))
    rec = simulate_counts(noisy, 2000, 8, frame=qubit_bases())
    mean, sd = bootstrap_error(rec, chsh, n_boot=30, seed=4)
    assert mean == pytest.approx(2.65, abs=0.1)
    assert 0.005 <= sd <= 0.05


def test_bootstrap_fidelity_error_bar_magnitude():
    w = werner(3, 0.2)
    surrogate = noisy_surrogate(w, experiment_like_noise(0.2))
    rec = simulate_counts(surrogate, 2 * 10**4, 6)
    mean, sd = bootstrap_error(rec, fidelity_to(w), n_boot=15, seed=5)
    assert 0.9 <= mean <= 1.0
    assert 0.0002 <= sd <= 0.02


def test_counts_csv_roundtrip_bit_exact():
    rec = simulate_counts(werner(3, 0.15), 2500, 77, state_tag="w3v015")
    back = counts_from_csv(counts_to_csv(rec), counts_metadata_json(rec))
    assert np.array_equal(back.counts, rec.counts)
    assert back.shots == rec.shots
    assert back.seed == rec.seed
    assert back.frame_name == rec.frame_name
    assert back.state_tag == rec.state_tag
    assert counts_to_csv(back) == counts_to_csv(rec)


def test_counts_csv_rejects_rows_off_the_frame():
    rec = simulate_counts(werner(3, 0.15), 2500, 77)
    meta = counts_metadata_json(rec)
    lines = counts_to_csv(rec).splitlines()
    with pytest.raises(ValueError, match="header"):
        counts_from_csv("\n".join([lines[0].replace("M9", "M10"), *lines[1:]]), meta)
    with pytest.raises(ValueError, match="row label mismatch"):
        counts_from_csv("\n".join([lines[0], lines[2], lines[1], *lines[3:]]), meta)
    # a tenth row, or a missing ninth, no longer loads as a 9x9 record
    with pytest.raises(ValueError, match="has 10 count rows; the 'qutrit9' frame has 9"):
        counts_from_csv("\n".join([*lines, "M9," + ",".join(["0"] * 9)]), meta)
    with pytest.raises(ValueError, match="has 8 count rows"):
        counts_from_csv("\n".join(lines[:-1]), meta)


def test_counts_record_validation():
    with pytest.raises(ValueError):
        CountsRecord(np.array([[1, -2], [0, 3]]), 10, 0, "qubit6")
    with pytest.raises(ValueError):
        CountsRecord(np.zeros((2, 3), dtype=int), 10, 0, "qubit6")
    with pytest.raises(ValueError):
        mle_reconstruct(CountsRecord(np.zeros((9, 9), dtype=int), 10, 0, "qutrit9"))


def test_counts_record_rejects_tables_off_its_frame():
    counts = np.ones((6, 6))
    counts[0, 0] = 1.9  # would truncate to 1
    with pytest.raises(ValueError, match="nonnegative integers"):
        CountsRecord(counts, 10, 0, "qubit6")
    with pytest.raises(ValueError, match=r"'qubit6' must be a 6x6 table, not \(2, 2\)"):
        CountsRecord(np.ones((2, 2), dtype=int), 10, 0, "qubit6")
    with pytest.raises(ValueError, match="unknown tomography frame 'qutrit8'"):
        CountsRecord(np.ones((9, 9), dtype=int), 10, 0, "qutrit8")


@pytest.mark.parametrize("frame", [tomo.qutrit_bases(), tomo.qubit_bases()], ids=lambda f: f.name)
def test_mle_engine_matmuls_match_einsum(frame):
    engine = tomo._MleEngine(frame)
    rng = np.random.default_rng(frame.size)
    g = rng.standard_normal((engine.d2, engine.d2)) + 1j * rng.standard_normal((engine.d2, engine.d2))
    mu = g @ g.conj().T
    mu /= np.trace(mu).real
    probs = engine.probabilities(mu)
    assert np.allclose(probs, np.clip(np.einsum("kij,ji->k", engine.povm, mu).real, 0.0, None), rtol=0, atol=1e-13)
    freqs = rng.dirichlet(np.ones(len(probs)))
    weights = freqs / np.maximum(probs, 1e-300)
    want = np.einsum("k,kij->ij", weights, engine.povm)
    assert np.allclose(engine.r_operator(freqs, probs), want, rtol=0, atol=1e-13)
    # the frame spans the Hermitian matrices, so linear inversion of exact probabilities gives the state back
    assert np.allclose(engine.inversion(probs), mu, rtol=0, atol=1e-12)


def sparse_record(settings, counts):
    """A qutrit9 record with counts on the given flat settings only."""
    table = np.zeros(81, dtype=np.int64)
    table[list(settings)] = counts
    return CountsRecord(table.reshape(9, 9), int(sum(counts)), 0, "qutrit9")


def mle_rows(records, max_iter, tol):
    out = tomo.mle_reconstruct_many(records, max_iter=max_iter, tol=tol)
    return np.array([rho.mat for rho, _ in out]), [history for _, history in out], [history.gap for _, history in out]


STACKS = {
    # two observed settings; v = 0 certifies in about 15 steps; v = 0.05 needs about 40 and hits max_iter
    "qutrit9": lambda: [
        sparse_record((74, 49), (1, 10)),
        simulate_counts(werner(3, 0.0), 10**4, 7),
        simulate_counts(werner(3, 0.05), 10**4, 7),
        simulate_counts(werner(3, 0.3), 500, 3),
        simulate_counts(noisy_surrogate(werner(3, 0.2), experiment_like_noise(0.2)), 2000, 5),
    ],
    # v = 0 is a pure state
    "qubit6": lambda: [
        simulate_counts(rotated_filtered_state(v), shots, seed, frame=qubit_bases())
        for v, shots, seed in ((0.0, 200, 1), (0.1, 10**4, 2), (0.3, 50, 3), (0.45, 10**5, 4))
    ],
}


@pytest.mark.parametrize("name", STACKS)
def test_stacked_mle_matches_sequential_reference(name):
    records = STACKS[name]()
    if name == "qutrit9":  # the noiseless record: its unobserved settings have p = 0 exactly in the true state
        records.append(expected_counts_record(werner(3, 0), 10**6))
    max_iter, tol = 40, 0.1
    mats, histories, gaps = mle_rows(records, max_iter, tol)
    for rec, mat, history, gap in zip(records, mats, histories, gaps):
        rho, want = mle_by_record(rec, max_iter=max_iter, tol=tol)
        assert mat.tobytes() == rho.mat.tobytes()
        assert np.array(history).tobytes() == np.array(want).tobytes()
        assert (gap, history.capped, history.tries) == (want.gap, want.capped, want.tries)
        assert history.capped == (gap > tol)
    assert_rows_bitwise_alone(lambda recs: mle_rows(recs, max_iter, tol), (records,))
    if name == "qutrit9":
        assert not histories[1].capped
        assert histories[2].capped and len(histories[2]) - 1 < max_iter


@pytest.mark.parametrize("name", STACKS)
def test_reported_gap_bounds_the_likelihood_left(name):
    records = STACKS[name]()
    out = tomo.mle_reconstruct_many(records)
    for rec, (_, history) in zip(records, out):
        assert history.gap <= 0.1 and not history.capped
        # far past the stop: the reference's last log-likelihood is within 1e-4 nats of the maximum
        _, far = mle_by_record(rec, max_iter=3000, tol=1e-4)
        total = rec.counts.sum()
        assert far.gap <= 1e-4
        assert total * (far[-1] - history[-1]) <= history.gap + 1e-12 * total
    assert_rows_bitwise_alone(lambda recs: mle_rows(recs, 5000, 0.1), (records,))


@settings(max_examples=6, deadline=None)
@given(
    frame=st.sampled_from(["qutrit9", "qubit6"]),
    v=st.floats(0.0, 0.5),
    shots=st.sampled_from([50, 300, 3000, 30000]),
    seed=st.integers(0, 2**16),
)
def test_reported_gap_is_a_bound_on_random_records(frame, v, shots, seed):
    rho = werner(3, v) if frame == "qutrit9" else rotated_filtered_state(v)
    rec = simulate_counts(rho, shots, seed, frame=tomo.frame_for(frame))
    ((_, history),) = tomo.mle_reconstruct_many([rec])
    _, far = mle_by_record(rec, max_iter=3000, tol=1e-4)
    total = rec.counts.sum()
    assert history.capped == (history.gap > 0.1)
    assert total * (far[-1] - history[-1]) <= history.gap + 1e-12 * total


def test_sweep_records_leave_early_with_a_valid_gap():
    # the 11 records of `sweep --task tomo` at CLI seed 837739916; the first-order bound kept this
    # stack running 140 ticks, although every row was within 0.1 nats after at most 25
    args = argparse.Namespace(d=3, v_grid=cli.parse_grid("0:0.05:0.5"), noisy=False)
    seeds, rhos = cli._grid_states(args, cli.derive_seed(837739916, "tomo"))
    records = [simulate_counts(rho, 10**4, seed) for seed, rho in zip(seeds, rhos)]
    out = tomo.mle_reconstruct_many(records, max_iter=3000)
    assert max(history.tries for _, history in out) <= 50
    for rec, (_, history) in zip(records, out):
        assert history.gap <= 0.1 and not history.capped
        # the reference, run on until its own gap is about 1e-7 nats, measures the gap left
        _, far = mle_by_record(rec, tol=1e-7)
        total = rec.counts.sum()
        assert far.gap <= 1e-6
        assert total * (far[-1] - history[-1]) <= history.gap + 1e-12 * total


def test_stacked_mle_backtracks(monkeypatch):
    # one projection for the start, then one per tick; more tries than accepted steps means some were rejected
    calls = []
    project = tomo.project_to_states
    monkeypatch.setattr(tomo, "project_to_states", lambda h: calls.append(len(h)) or project(h))
    ((_, history),) = tomo.mle_reconstruct_many([simulate_counts(werner(3, 0.3), 10**4, 3)])
    assert calls == [1] * (history.tries + 1)
    assert history.tries > len(history) - 1


def test_projection_is_the_nearest_state():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((40, 9, 9)) + 1j * rng.standard_normal((40, 9, 9))
    h = (g + g.conj().swapaxes(-1, -2)) / 6
    cand = tomo.project_to_states(h)
    assert np.allclose(np.trace(cand, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-13)
    assert np.all(np.linalg.eigvalsh(cand)[:, 0] >= -1e-13)
    # optimality: h - cand = tau I - Z with Z >= 0 and Z cand = 0, so it beats every other state
    others = rng.standard_normal((40, 9, 9)) + 1j * rng.standard_normal((40, 9, 9))
    others = others @ others.conj().swapaxes(-1, -2)
    others /= np.trace(others, axis1=1, axis2=2).real[:, None, None]
    assert np.all(np.linalg.norm(h - cand, axis=(1, 2)) <= np.linalg.norm(h - others, axis=(1, 2)))


def test_mle_reconstruct_many_rejects_mixed_frames_and_empty_stacks(monkeypatch):
    qutrit = simulate_counts(werner(3, 0.2), 1000, 1)
    qubit = simulate_counts(rotated_filtered_state(0.1), 1000, 1, frame=qubit_bases())
    with pytest.raises(ValueError, match="share one frame"):
        tomo.mle_reconstruct_many([qutrit, qubit])
    with pytest.raises(ValueError, match="no counts records"):
        tomo.mle_reconstruct_many([])
    with pytest.raises(ValueError, match="all-zero counts"):
        tomo.mle_reconstruct_many([qutrit, CountsRecord(np.zeros((9, 9), dtype=int), 10, 0, "qutrit9")])
    # the stop rule is checked before any work: max_iter = 0 used to return I / d^2
    calls = []
    monkeypatch.setattr(tomo, "_engine_for", lambda name: calls.append(name))
    for max_iter, tol in ((0, 0.1), (-1, 0.1), (10, 0.0), (10, -1.0), (10, np.inf), (10, np.nan)):
        with pytest.raises(ValueError, match="max_iter must be at least 1|tol must be finite and positive"):
            tomo.mle_reconstruct_many([qutrit], max_iter=max_iter, tol=tol)
    assert not calls


@pytest.mark.parametrize(
    "record, statistic",
    [
        (lambda: simulate_counts(werner(3, 0.3), 2000, 1), ppt_min_eig),
        (lambda: simulate_counts(rotated_filtered_state(0.05), 2000, 8, frame=qubit_bases()), chsh),
    ],
    ids=["qutrit9-ppt", "qubit6-chsh"],
)
def test_bootstrap_matches_sequential_reference(record, statistic):
    rec = record()
    kwargs = dict(n_boot=12, seed=4, max_iter=400, tol=0.1)
    assert bootstrap_error(rec, statistic, **kwargs) == bootstrap_by_record(rec, statistic, **kwargs)
    # the resamples, drawn in the same order, each reconstruct alone as in the stack
    rng = np.random.default_rng(kwargs["seed"])
    resamples = [CountsRecord(rng.poisson(rec.counts), rec.shots, rec.seed, rec.frame_name) for _ in range(12)]
    assert_rows_bitwise_alone(lambda recs: mle_rows(recs, 400, 0.1), (resamples,))


def test_product_projectors_are_memoised_read_only():
    # each registered frame builds its projectors once, and every caller reads that one array
    for name in ("qutrit9", "qubit6"):
        frame = tomo.frame_for(name)
        assert tomo.frame_for(name).projectors is frame.projectors
        assert tomo._engine_for(name).frame is frame
        assert not frame.projectors.flags.writeable
        outer = [np.outer(v, v.conj()) for v in frame.vectors]
        assert np.array_equal(frame.projectors, [np.kron(a, b) for a in outer for b in outer])
