"""Tests for coincidence simulation and MLE reconstruction."""

import numpy as np
import pytest

from wernerlab import tomo
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
    fidelity_to,
    frame_rank,
    mle_reconstruct,
    mle_reconstruct_with_history,
    qubit_bases,
    qutrit_bases,
    simulate_counts,
)


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
    rho, history = mle_reconstruct_with_history(rec, max_iter=5000, tol=1e-12)
    assert uhlmann_fidelity(rho, w) >= 0.9999
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))


def test_mle_monotone_likelihood_with_poisson_noise():
    rec = simulate_counts(werner(3, 0.3), 5000, 9)
    rho, history = mle_reconstruct_with_history(rec, max_iter=4000, tol=1e-11)
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


def test_mle_reconstruction_of_reconstruction():
    rec = simulate_counts(werner(3, 0.25), 20000, 5)
    rho_hat = mle_reconstruct(rec, max_iter=4000, tol=1e-11)
    rec2 = expected_counts_record(rho_hat, 10**7)
    rho_hat2 = mle_reconstruct(rec2, max_iter=5000, tol=1e-12)
    assert uhlmann_fidelity(rho_hat2, rho_hat) >= 0.9999


def test_surrogate_reconstructions_hit_band():
    for v in (0.0, 0.25, 0.5):
        ideal = werner(3, v)
        surrogate = noisy_surrogate(ideal, experiment_like_noise(v))
        rec = simulate_counts(surrogate, 10**5, 11)
        rho = mle_reconstruct(rec, max_iter=3000, tol=1e-10)
        f = uhlmann_fidelity(rho, ideal)
        assert 0.958 - 0.01 <= f <= 0.995 + 0.003


def test_two_qubit_frame_reconstruction():
    rho = rotated_filtered_state(0.1)
    rec = simulate_counts(rho, 10**5, 3, frame=qubit_bases())
    recon = mle_reconstruct(rec, max_iter=3000, tol=1e-11)
    assert uhlmann_fidelity(recon, rho) >= 0.995


def test_bootstrap_shrinks_with_counts():
    w = werner(3, 0.3)
    _, sd_small = bootstrap_error(simulate_counts(w, 10**3, 1), "ppt_min_eig", n_boot=15, seed=2)
    _, sd_big = bootstrap_error(simulate_counts(w, 10**5, 1), "ppt_min_eig", n_boot=15, seed=2)
    assert sd_big < sd_small
    with pytest.raises(ValueError):
        bootstrap_error(simulate_counts(w, 10**3, 1), "ppt_min_eig", n_boot=5)


def test_bootstrap_chsh_error_bar_magnitude():
    # a noisy filtered state near fidelity 0.95 at experiment-like counts
    # shows S ~ 2.65 with a bootstrap spread of order 0.02
    from wernerlab.states import NoiseSpec

    noisy = noisy_surrogate(rotated_filtered_state(0.0), NoiseSpec(0.06, 0.04, 21))
    rec = simulate_counts(noisy, 2000, 8, frame=qubit_bases())
    mean, sd = bootstrap_error(rec, "chsh", n_boot=30, seed=4)
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


def test_counts_record_validation():
    with pytest.raises(ValueError):
        CountsRecord(np.array([[1, -2], [0, 3]]), 10, 0, "qubit6")
    with pytest.raises(ValueError):
        CountsRecord(np.zeros((2, 3), dtype=int), 10, 0, "qubit6")
    with pytest.raises(ValueError):
        mle_reconstruct(CountsRecord(np.zeros((9, 9), dtype=int), 10, 0, "qutrit9"))


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
