"""Tests for the dense linear-algebra and quantum primitives."""

import numpy as np
import pytest

from wernerlab import qmat
from wernerlab.qmat import DensityMatrix
from wernerlab.states import werner

from sequential_reference import trace_out


def werner_matrix_oracle(d, v):
    """Werner matrix from the elementwise projector formula, independent of states.py."""
    n_plus = d * (d + 1) / 2
    n_minus = d * (d - 1) / 2
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    sym = ((i == k) * (j == l) + (i == l) * (j == k)) / 2
                    asym = ((i == k) * (j == l) - (i == l) * (j == k)) / 2
                    m[i * d + j, k * d + l] = v / n_plus * sym + (1 - v) / n_minus * asym
    return m


def random_density(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def test_kron_identity():
    assert np.allclose(qmat.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_diagonal():
    out = qmat.kron(np.diag([1, 2]), np.diag([3, 4]))
    assert np.allclose(out, np.diag([3, 4, 6, 8]))


def test_kron_permutation():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ket00 = np.zeros(4)
    ket00[0] = 1
    assert np.allclose(qmat.kron(x, x) @ ket00, [0, 0, 0, 1])


def test_kron_index_convention():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    out = qmat.kron(a, b)
    for i in range(2):
        for j in range(3):
            for k in range(3):
                for l in range(2):
                    assert out[i * 3 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l])


def test_partial_trace_max_entangled():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = DensityMatrix(2, 2, np.outer(phi, phi.conj()))
    assert np.allclose(qmat.partial_trace(rho), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    rho_a = random_density(3, 1)
    rho_b = random_density(2, 2)
    rho = DensityMatrix(3, 2, np.kron(rho_a, rho_b))
    assert np.allclose(qmat.partial_trace(qmat.swap_parties(rho)), rho_a, atol=1e-12)
    assert np.allclose(qmat.partial_trace(rho), rho_b, atol=1e-12)


def test_partial_trace_werner_marginal():
    # oracle: direct sum over the projector-formula matrix elements
    for v in (0.0, 0.3, 1.0):
        m = werner_matrix_oracle(3, v)
        marg = np.zeros((3, 3), dtype=complex)
        for j in range(3):
            for l in range(3):
                marg[j, l] = sum(m[i * 3 + j, i * 3 + l] for i in range(3))
        assert np.allclose(marg, np.eye(3) / 3, atol=1e-12)
        out = qmat.partial_trace(werner(3, v))
        assert np.allclose(out, np.eye(3) / 3, atol=1e-10)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


def test_partial_transpose_product():
    rho_a = random_density(2, 3)
    rho_b = random_density(3, 4)
    rho = DensityMatrix(2, 3, np.kron(rho_a, rho_b))
    assert np.allclose(qmat.partial_transpose(rho), np.kron(rho_a.T, rho_b), atol=1e-14)


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    back = qmat.partial_transpose_dims(
        qmat.partial_transpose_dims(m, [6, 6], [0]), [6, 6], [0]
    )
    assert np.array_equal(back, m)


def test_swap_parties_exchanges_the_parties_and_involutes_exactly():
    rho_a = random_density(2, 5)
    rho_b = random_density(3, 6)
    rho = DensityMatrix(2, 3, np.kron(rho_a, rho_b))
    swapped = qmat.swap_parties(rho)
    assert (swapped.dimA, swapped.dimB) == (3, 2)
    assert np.allclose(swapped.mat, np.kron(rho_b, rho_a), rtol=0, atol=1e-15)
    for state in (rho, werner(3, 0.3), DensityMatrix(3, 2, np.kron(rho_b, rho_a))):
        back = qmat.swap_parties(qmat.swap_parties(state))
        assert (back.dimA, back.dimB) == (state.dimA, state.dimB)
        assert back.mat.tobytes() == state.mat.tobytes()


def test_partial_transpose_werner_min_eig():
    # oracle: V^T_A = d |Phi+><Phi+| gives min eig (2v-1)/3 at d=3
    w0 = qmat.partial_transpose(werner(3, 0.0))
    assert np.linalg.eigvalsh(w0)[0] == pytest.approx(-1 / 3, abs=1e-12)
    w_half = qmat.partial_transpose(werner(3, 0.5))
    assert np.linalg.eigvalsh(w_half)[0] == pytest.approx(0.0, abs=1e-12)


def test_entropy_pure_and_mixed():
    psi = np.zeros(4)
    psi[0] = 1
    assert qmat.von_neumann_entropy(np.outer(psi, psi)) == pytest.approx(0.0, abs=1e-12)
    assert qmat.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)


def test_entropy_werner_two_thirds():
    # q = 1 - (2d/(d+1)) v vanishes at v = 2/3 for d = 3, leaving I_9/9
    assert np.allclose(werner(3, 2 / 3).mat, np.eye(9) / 9, atol=1e-14)
    assert qmat.von_neumann_entropy(werner(3, 2 / 3)) == pytest.approx(np.log2(9), abs=1e-9)


def test_entropy_additive_on_products():
    rho_a = random_density(3, 21)
    rho_b = random_density(4, 22)
    total = qmat.von_neumann_entropy(np.kron(rho_a, rho_b))
    assert total == pytest.approx(
        qmat.von_neumann_entropy(rho_a) + qmat.von_neumann_entropy(rho_b), abs=1e-9
    )


def test_entropy_rejects_negative():
    with pytest.raises(ValueError):
        qmat.von_neumann_entropy(np.diag([1.1, -0.1]))


def test_fidelity_basic():
    rho = random_density(4, 31)
    assert qmat.uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    assert qmat.uhlmann_fidelity(e0, e1) == pytest.approx(0.0, abs=1e-12)
    assert qmat.uhlmann_fidelity(e0, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetric():
    a = random_density(6, 41)
    b = random_density(6, 42)
    assert qmat.uhlmann_fidelity(a, b) == pytest.approx(qmat.uhlmann_fidelity(b, a), abs=1e-10)
    with pytest.raises(ValueError):
        qmat.uhlmann_fidelity(random_density(2, 1), random_density(3, 1))


def test_trace_out_matches_bipartite():
    rho = random_density(12, 51)
    t_b = trace_out(rho, [3, 4], [1])
    assert np.allclose(t_b, qmat.partial_trace(qmat.swap_parties(DensityMatrix(3, 4, rho))), atol=1e-13)
    t_a = trace_out(rho, [3, 4], [0])
    assert np.allclose(t_a, qmat.partial_trace(DensityMatrix(3, 4, rho)), atol=1e-13)


def test_trace_out_multipartite_consistency():
    rho = random_density(8, 52)
    # tracing out systems one at a time agrees with tracing them together
    step = trace_out(trace_out(rho, [2, 2, 2], [2]), [2, 2], [0])
    joint = trace_out(rho, [2, 2, 2], [0, 2])
    assert np.allclose(step, joint, atol=1e-13)


def test_density_matrix_holds_a_read_only_copy():
    m = np.eye(4, dtype=complex) / 4
    rho = DensityMatrix(2, 2, m)
    m[0, 0] = 1.0  # the caller's array stays writeable and apart
    assert rho.mat[0, 0] == 0.25
    with pytest.raises(ValueError, match="read-only"):
        rho.mat[0, 0] = 1.0


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(2, 2, np.eye(4) / 4 + 1e-8 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3))
    with pytest.raises(ValueError):
        DensityMatrix(2, 2, np.eye(4) / 3.9)
    with pytest.raises(ValueError):
        DensityMatrix(2, 2, np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        DensityMatrix(2, 3, np.eye(4) / 4)
