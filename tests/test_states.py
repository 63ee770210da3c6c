"""Tests for Werner-state constructors and noisy surrogates."""

import numpy as np
import pytest

from wernerlab import serialize, states
from wernerlab.qmat import DensityMatrix, kron, uhlmann_fidelity
from wernerlab.states import (
    NoiseSpec,
    WernerParams,
    grid_rows,
    haar_restarts,
    max_entangled_ket,
    noisy_surrogate,
    qubit_block,
    swap_operator,
    werner,
    werner_all_v,
    werner_from_qubit_mixture,
)

from sequential_reference import haar_unitary

# tuned to land in the target fidelity band on W3(0); frozen regression
SURROGATE_SPEC = NoiseSpec(depol=0.06, coherent_eps=0.02, seed=2024)


def test_swap_action():
    v = swap_operator(2)
    ket01 = np.zeros(4)
    ket01[1] = 1
    ket10 = np.zeros(4)
    ket10[2] = 1
    assert np.allclose(v @ ket01, ket10)


def test_swap_trace_and_structure():
    for d in (2, 3, 4):
        v = swap_operator(d)
        assert np.trace(v).real == pytest.approx(d)
        assert np.allclose(v @ v, np.eye(d * d))
        assert np.allclose(v, v.conj().T)
    with pytest.raises(ValueError):
        swap_operator(1)


def test_swap_partial_transpose_is_max_entangled_projector():
    # oracle: elementwise partial transpose of sum_ij |i><j| (x) |j><i|
    d = 3
    pt = np.zeros((9, 9), dtype=complex)
    for i in range(d):
        for j in range(d):
            # entry |j><i| (x) |j><i| after transposing side A
            pt[j * d + j, i * d + i] += 1.0
    phi = max_entangled_ket(d)
    assert np.allclose(pt, d * np.outer(phi, phi.conj()), atol=1e-14)


def test_werner_matrix_entries():
    w = werner(3, 0.4)
    assert w.mat[0, 0] == pytest.approx(0.4 / 6, abs=1e-14)  # <00|W|00> = v/n+
    w0 = werner(3, 0.0)
    assert w0.mat[1, 3] == pytest.approx(-1 / 6, abs=1e-14)  # <01|W(0)|10>
    assert np.allclose(werner(3, 2 / 3).mat, np.eye(9) / 9, atol=1e-14)
    with pytest.raises(ValueError):
        werner(3, 1.2)


def test_constructors_agree_on_common_domain():
    for d in (2, 3, 4, 5):
        vmax = (d + 1) / (2 * d)
        for v in np.arange(0.0, 1.0 + 1e-9, 0.05):
            ref = werner(d, v).mat
            if v <= vmax + 1e-12:
                assert np.max(np.abs(werner_from_qubit_mixture(d, v).mat - ref)) < 1e-12
            assert np.max(np.abs(werner_all_v(d, v).mat - ref)) < 1e-12


def test_qubit_mixture_rejects_large_v():
    with pytest.raises(ValueError, match="all-v"):
        werner_from_qubit_mixture(3, 0.9)


def test_qubit_mixture_d2_single_block():
    for v in (0.0, 0.3, 0.7):
        assert np.max(np.abs(werner_from_qubit_mixture(2, v).mat - werner(2, v).mat)) < 1e-12


def test_all_v_extremes():
    # v=1: pure symmetric mixture Pi+/n+; v=0: antisymmetric Pi-/n-
    w1 = werner_all_v(3, 1.0).mat
    assert np.allclose(w1, states.sym_projector(3) / 6, atol=1e-13)
    w0 = werner_all_v(3, 0.0).mat
    assert np.allclose(w0, states.antisym_projector(3) / 3, atol=1e-13)
    assert np.max(np.abs(werner_all_v(4, 0.9).mat - werner(4, 0.9).mat)) < 1e-12


def test_twirl_invariance():
    rng = np.random.default_rng(17)
    for d, v in ((2, 0.3), (3, 0.1), (3, 0.8)):
        w = werner(d, v).mat
        for _ in range(20):
            u = haar_unitary(d, rng)
            uu = kron(u, u)
            assert np.linalg.norm(uu @ w @ uu.conj().T - w) <= 1e-9


def test_swap_invariance_and_weight_recovery():
    for d in (2, 3, 4):
        v_op = swap_operator(d)
        pi_plus = states.sym_projector(d)
        for v in (0.0, 0.25, 0.6, 1.0):
            w = werner(d, v).mat
            assert np.max(np.abs(v_op @ w @ v_op.conj().T - w)) < 1e-12
            assert np.trace(w @ pi_plus).real == pytest.approx(v, abs=1e-12)


def test_qubit_block_support():
    b = qubit_block(3, 0, 2, "singlet")
    support = {0 * 3 + 0, 0 * 3 + 2, 2 * 3 + 0, 2 * 3 + 2}
    nz = set(np.argwhere(np.abs(b.mat) > 1e-15)[:, 0]) | set(np.argwhere(np.abs(b.mat) > 1e-15)[:, 1])
    assert nz <= support
    with pytest.raises(ValueError):
        qubit_block(3, 2, 2, "singlet")
    with pytest.raises(ValueError):
        qubit_block(3, 0, 1, "nope")


def test_max_entangled_overlap_with_werner():
    # Pi- |Phi+> = 0, so the overlap vanishes at v = 0
    phi = max_entangled_ket(3)
    assert abs(phi.conj() @ werner(3, 0.0).mat @ phi) < 1e-14
    for v in (0.2, 0.5):
        assert phi.conj() @ werner(3, v).mat @ phi == pytest.approx(v / 6, abs=1e-13)


def test_haar_unitary_seeded():
    u1 = haar_unitary(3, np.random.default_rng(99))
    u2 = haar_unitary(3, np.random.default_rng(99))
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(3))) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_haar_restarts_match_per_call_draws(d):
    # restart r draws three d-side unitaries and then one 2-side unitary from its own generator
    seeds = [7 ^ r for r in range(5)]
    first, second = haar_restarts(seeds, [(3, d), (1, 2)])
    assert first.shape == (5, 3, d, d) and second.shape == (5, 1, 2, 2)
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        want = [haar_unitary(d, rng) for _ in range(3)] + [haar_unitary(2, rng)]
        got = [*first[r], second[r, 0]]
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]
    assert haar_restarts([], [(1, d)])[0].shape == (0, 1, d, d)
    # the per-call draw: real parts, then imaginary parts, then one QR with phase-fixed diagonal
    rng = np.random.default_rng(seeds[0])
    q, r = np.linalg.qr((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2))
    assert (q * (np.diag(r) / np.abs(np.diag(r)))).tobytes() == first[0, 0].tobytes()


def test_grid_rows_draw_each_restart_beside_its_state():
    # two 2x3 states, three restarts each: row i R + r is restart r of state i, drawn from seeds[i] ^ r
    rhos = [DensityMatrix(2, 3, np.eye(6) / 6), DensityMatrix(2, 3, np.diag([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))]
    seeds, restarts, sides = [11, 2024], 3, [(2, 0), (1, 1), (3, 1)]
    dims, stack, draws = grid_rows(rhos, seeds, restarts, lambda rho: rho.mat, sides)
    assert dims == (2, 3) and stack.shape == (6, 6, 6)
    assert [u.shape for u in draws] == [(6, 2, 2, 2), (6, 1, 3, 3), (6, 3, 3, 3)]
    for i, (rho, seed) in enumerate(zip(rhos, seeds)):
        for r in range(restarts):
            row = i * restarts + r
            assert stack[row].tobytes() == rho.mat.tobytes()
            # each restart draws every side from its own generator, in the order of ``sides``
            alone = haar_restarts([seed ^ r], [(2, 2), (1, 3), (3, 3)])
            assert [u[row].tobytes() for u in draws] == [u[0].tobytes() for u in alone]


def test_noisy_surrogate_limits():
    w = werner(3, 0.2)
    assert np.array_equal(noisy_surrogate(w, NoiseSpec()).mat, w.mat)
    flat = noisy_surrogate(w, NoiseSpec(depol=1.0))
    assert np.allclose(flat.mat, np.eye(9) / 9, atol=1e-14)


def test_noisy_surrogate_deterministic():
    w = werner(3, 0.1)
    a = noisy_surrogate(w, SURROGATE_SPEC)
    b = noisy_surrogate(w, SURROGATE_SPEC)
    assert np.array_equal(a.mat, b.mat)


def test_noisy_surrogate_hits_fidelity_band():
    # sits at the low end of the target fidelity band
    w0 = werner(3, 0.0)
    f = uhlmann_fidelity(noisy_surrogate(w0, SURROGATE_SPEC), w0)
    assert f == pytest.approx(0.958, abs=0.01)


def test_state_json_roundtrip_lossless():
    w = noisy_surrogate(werner(3, 0.37), NoiseSpec(depol=0.01, coherent_eps=0.01, seed=5))
    back = serialize.state_from_json(serialize.state_to_json(w))
    assert back.dimA == 3 and back.dimB == 3
    assert np.array_equal(back.mat, w.mat)


def test_werner_params_validation():
    with pytest.raises(ValueError):
        WernerParams(1, 0.5)
    with pytest.raises(ValueError):
        WernerParams(3, -0.1)
    p = WernerParams(3, 0.25)
    assert p.p == pytest.approx(1 / 3)
    assert p.q == pytest.approx(1 - 1.5 * 0.25)
