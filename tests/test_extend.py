"""Tests for symmetric (quasi/bosonic) extension SDPs."""

from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp

from wernerlab import extend
from wernerlab.extend import (
    ExtensionQuery,
    _partitions,
    bosonic_extension,
    build_program,
    critical_weight,
    extension_threshold,
    quasi_extension,
    real_pt_map,
    real_trace_map,
    run_query,
    s_k_isometries,
    symmetric_extension,
    symmetric_subspace_isometry,
    young_orthogonal_form,
)
from wernerlab.qmat import partial_transpose_dims, trace_out
from wernerlab.solver import Block, ConicProgram, mat_real, presolve, solve, vec_real
from wernerlab.states import NoiseSpec, noisy_surrogate, swap_operator, sym_projector, werner


def random_hermitian(dims, seed):
    n = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_real_trace_map_matches_dense():
    for dims, keep, seed in [([3, 3, 3], [0, 2], 0), ([2, 3, 2], [1, 2], 1), ([2, 2, 2, 2], [0, 3], 2)]:
        h = random_hermitian(dims, seed)
        tm = real_trace_map(dims, keep)
        traced = [p for p in range(len(dims)) if p not in keep]
        assert np.allclose(tm @ vec_real(h), vec_real(trace_out(h, dims, traced)), atol=1e-12)


def test_real_pt_map_matches_dense_and_involutes():
    for dims, subset, seed in [([3, 3], [0], 3), ([2, 3, 2], [1], 4), ([2, 2, 3], [0, 2], 5)]:
        h = random_hermitian(dims, seed)
        pm = real_pt_map(dims, subset)
        assert np.allclose(pm @ vec_real(h), vec_real(partial_transpose_dims(h, dims, subset)), atol=1e-12)
        assert np.allclose((pm @ pm).toarray(), np.eye(pm.shape[0]), atol=1e-14)


def test_symmetric_isometry_qubits():
    w = symmetric_subspace_isometry(2, 2)
    assert w.shape == (4, 3)
    expected = np.zeros((4, 3))
    expected[0, 0] = 1.0
    expected[1, 1] = expected[2, 1] = 1 / np.sqrt(2)
    expected[3, 2] = 1.0
    assert np.allclose(np.abs(w), expected)
    assert np.allclose(w.conj().T @ w, np.eye(3), atol=1e-14)


def test_symmetric_isometry_projector_is_sym_projector():
    w = symmetric_subspace_isometry(3, 2)
    assert w.shape == (9, 6)
    assert np.allclose(w @ w.conj().T, sym_projector(3), atol=1e-13)
    # exact permutation invariance
    assert np.array_equal(swap_operator(3).real @ w.real, w.real)


def column_by_column_bosonic_program(q):
    """Reference SE_B program: embed each basis element by W, trace it down, one column at a time."""
    w = symmetric_subspace_isometry(q.dims[q.copy_positions[0]], q.k)
    eye = np.eye(q.dims[q.other_position])
    w_full = np.kron(w, eye) if q.side == "A" else np.kron(eye, w)
    s = w_full.shape[1]
    traced = [p for p in range(len(q.dims)) if p not in (q.copy_positions[0], q.other_position)]
    eye_term = vec_real(np.eye(q.rho.dim) / q.rho.dim)
    rhs = vec_real(q.rho.mat) - eye_term
    a = np.empty((len(rhs), s * s + 1))
    for comp in range(s * s):
        e = np.zeros(s * s)
        e[comp] = 1.0
        a[:, comp] = vec_real(trace_out(w_full @ mat_real(e, s) @ w_full.conj().T, q.dims, traced))
    a[:, -1] = -eye_term
    c = np.zeros(s * s + 1)
    c[-1] = 1.0
    return ConicProgram((Block("psd", s), Block("nonneg", 1)), c, a, rhs)


@pytest.mark.parametrize("d,k,side", [(2, 2, "B"), (2, 3, "A"), (3, 2, "B"), (3, 3, "A"), (3, 4, "B"), (5, 2, "B")])
def test_bosonic_builder_matches_column_by_column_reference(d, k, side):
    q = ExtensionQuery(werner(d, 0.2), k, side, "SE_B")
    prog = build_program(q)
    ref = column_by_column_bosonic_program(q)
    assert prog.blocks == ref.blocks
    assert np.allclose(prog.A.toarray(), ref.A.toarray(), rtol=0, atol=1e-12)
    assert np.allclose(prog.b, ref.b, rtol=0, atol=1e-12)
    assert np.allclose(prog.c, ref.c, rtol=0, atol=1e-12)
    assert presolve(prog).m == presolve(ref).m


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_young_orthogonal_form_is_an_orthogonal_representation(k):
    shapes = _partitions(k, k)
    assert sum(len(young_orthogonal_form(shape)[0]) ** 2 for shape in shapes) == factorial(k)
    for shape in shapes:
        gens = young_orthogonal_form(shape)
        eye = np.eye(len(gens[0]))
        for i, g in enumerate(gens):
            assert np.allclose(g @ g.T, eye, rtol=0, atol=1e-14)
            assert np.allclose(g @ g, eye, rtol=0, atol=1e-14)
            for j, h in enumerate(gens[i + 1 :], start=i + 1):
                power = 3 if j == i + 1 else 2  # Coxeter relations of S_k
                assert np.allclose(np.linalg.matrix_power(g @ h, power), eye, rtol=0, atol=1e-13)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 6), (3, 2), (3, 3), (3, 4), (4, 3)])
def test_s_k_isometries_split_the_copies(d, k):
    isos = s_k_isometries(d, k)
    assert list(isos) == [shape for shape in _partitions(k, k) if len(shape) <= d]
    assert sum(v.shape[0] * v.shape[2] for v in isos.values()) == d**k
    stacked = np.concatenate([v[i] for v in isos.values() for i in range(len(v))], axis=1)
    assert np.allclose(stacked.conj().T @ stacked, np.eye(stacked.shape[1]), rtol=0, atol=1e-12)
    for shape, v in isos.items():
        tensor = v.reshape((len(v),) + (d,) * k + (-1,))
        for i, g in enumerate(young_orthogonal_form(shape)):
            swapped = tensor.swapaxes(i + 1, i + 2)  # the copy permutation (i+1, i+2)
            assert np.allclose(swapped, np.einsum("ji,j...->i...", g, tensor), rtol=0, atol=1e-12)


def full_se_program(q):
    """Reference SE program over all extensions: one PSD block on the whole space, one
    marginal constraint per copy."""
    n_ext = int(np.prod(q.dims))
    eye_term = vec_real(np.eye(q.rho.dim) / q.rho.dim)
    rhs = vec_real(q.rho.mat) - eye_term
    t_col = sp.csr_matrix(-eye_term[:, None])
    rows = [
        sp.hstack([real_trace_map(q.dims, sorted([pos, q.other_position])), t_col]) for pos in q.copy_positions
    ]
    c = np.zeros(n_ext * n_ext + 1)
    c[-1] = 1.0
    return ConicProgram((Block("psd", n_ext), Block("nonneg", 1)), c, sp.vstack(rows), np.tile(rhs, q.k))


@pytest.mark.parametrize(
    "d,k,side,noisy",
    [(2, 2, "B", 0), (2, 3, "A", 0), (3, 2, "B", 0), (3, 3, "A", 0), (3, 4, "B", 0), (3, 3, "A", 1)],
)
def test_reduced_se_matches_full_program(d, k, side, noisy):
    rho = werner(d, 0.1)
    if noisy:
        rho = noisy_surrogate(werner(d, 0.2), NoiseSpec(depol=0.06, coherent_eps=0.02, seed=2024))
        assert np.abs(rho.mat.imag).max() > 1e-3
    q = ExtensionQuery(rho, k, side, "SE")
    prog = build_program(q)
    assert prog.m == rho.dim**2
    reduced = solve(prog, tol=1e-7)
    full = solve(full_se_program(q), tol=1e-7)
    assert reduced.status == full.status == "OPTIMAL"
    assert reduced.primal_obj == pytest.approx(full.primal_obj, abs=1e-6)


def test_se_block_sides_for_four_qutrit_copies():
    prog = build_program(ExtensionQuery(werner(3, 0.0), 4, "B", "SE"))
    assert prog.blocks == tuple(Block("psd", n) for n in (45, 45, 18, 9)) + (Block("nonneg", 1),)
    assert prog.m == 81


def test_se_matches_known_werner_values():
    for v, expect in [(0.0, 1.0), (0.05, 0.925), (0.2, 0.7)]:
        r = symmetric_extension(ExtensionQuery(werner(3, v), 2, "B", "SE"))
        assert r.status == "OPTIMAL"
        assert r.gap <= 1e-6
        assert r.t_star == pytest.approx(expect, abs=1e-5)
    r3 = symmetric_extension(ExtensionQuery(werner(3, 0.0), 3, "B", "SE"))
    assert r3.t_star == pytest.approx(4 / 3, abs=1e-5)


def test_two_qubit_extendibility_boundary():
    # W(2)(v) has a (1,2)-extension iff v >= 1/4
    below = symmetric_extension(ExtensionQuery(werner(2, 0.24), 2, "B", "SE"))
    above = symmetric_extension(ExtensionQuery(werner(2, 0.26), 2, "B", "SE"))
    assert not below.extension_exists
    assert above.extension_exists
    assert symmetric_extension(ExtensionQuery(werner(2, 0.0), 2, "B", "SE")).t_star == pytest.approx(
        1.5, abs=1e-5
    )


def test_flavor_ordering_ideal():
    q_se = ExtensionQuery(werner(3, 0.1), 2, "B", "SE")
    q_sqe = ExtensionQuery(werner(3, 0.1), 2, "B", "SQE")
    q_seb = ExtensionQuery(werner(3, 0.1), 2, "B", "SE_B")
    t_se = symmetric_extension(q_se).t_star
    t_sqe = quasi_extension(q_sqe).t_star
    t_seb = bosonic_extension(q_seb).t_star
    assert t_sqe <= t_se + 1e-6
    assert t_se <= t_seb + 1e-6
    # SQE coincides with SE for ideal Werner input
    assert t_sqe == pytest.approx(t_se, abs=1e-4)


def test_surrogate_sqe_strictly_below_se():
    # generic noisy states split the two relaxations strictly apart
    rho = noisy_surrogate(werner(3, 0.2), NoiseSpec(depol=0.06, coherent_eps=0.02, seed=2024))
    t_se = symmetric_extension(ExtensionQuery(rho, 2, "B", "SE"), tol=1e-6).t_star
    t_sqe = quasi_extension(ExtensionQuery(rho, 2, "B", "SQE"), tol=1e-6).t_star
    assert t_sqe <= t_se + 1e-6
    assert t_se - t_sqe > 1e-3


def test_largest_instance_four_copies_qutrit():
    # the 243-dimensional (1,4) search still certifies cleanly
    res = symmetric_extension(ExtensionQuery(werner(3, 0.0), 4, "B", "SE"))
    assert res.status == "OPTIMAL"
    assert res.t_star == pytest.approx(1.6, abs=2e-3)
    assert critical_weight(res.t_star, 3) == pytest.approx(1 / 4, abs=2e-3)


def test_bosonic_law_beyond_qutrits():
    # v_t = (1 - 1/k)/2 independent of d: checked at (d, k) = (4, 2) and (5, 2)
    for d in (4, 5):
        res = bosonic_extension(ExtensionQuery(werner(d, 0.0), 2, "B", "SE_B"))
        assert critical_weight(res.t_star, d) == pytest.approx(1 / 4, abs=2e-3)


def test_monotonicity_in_k():
    for d in (2, 3):
        t2 = symmetric_extension(ExtensionQuery(werner(d, 0.0), 2, "B", "SE")).t_star
        t3 = symmetric_extension(ExtensionQuery(werner(d, 0.0), 3, "B", "SE")).t_star
        assert t3 >= t2 - 1e-6


def test_side_symmetry_for_ideal_werner():
    ta = symmetric_extension(ExtensionQuery(werner(3, 0.1), 2, "A", "SE")).t_star
    tb = symmetric_extension(ExtensionQuery(werner(3, 0.1), 2, "B", "SE")).t_star
    assert ta == pytest.approx(tb, abs=2e-6)


def test_critical_weight_formula():
    assert critical_weight(1.0, 3) == 0.0
    assert critical_weight(0.8, 3) == 0.0
    assert critical_weight(4 / 3, 3) == pytest.approx(1 / 6, abs=1e-12)
    assert critical_weight(1.5, 2) == pytest.approx(1 / 4, abs=1e-12)
    assert critical_weight(1.8, 2) == pytest.approx(1 / 3, abs=1e-12)
    assert critical_weight(1.6, 3) == pytest.approx(1 / 4, abs=1e-12)
    assert critical_weight(2.0, 3) == pytest.approx(1 / 3, abs=1e-12)


def test_threshold_bisection_matches_symmetric_law():
    # v_Sym = (1 - (d-1)/k)/2
    for d, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        v_sym = 0.5 * (1 - (d - 1) / k)
        found = extension_threshold(d, k, "SE", "B", v_tol=1e-3)
        assert found == pytest.approx(v_sym, abs=2e-3)


def test_query_validation():
    with pytest.raises(ValueError):
        ExtensionQuery(werner(3, 0.0), 1, "B", "SE")
    with pytest.raises(ValueError):
        ExtensionQuery(werner(3, 0.0), 5, "B", "SE")  # 3^5*3 = 729 > 243
    with pytest.raises(ValueError):
        ExtensionQuery(werner(3, 0.0), 2, "C", "SE")
    with pytest.raises(ValueError):
        ExtensionQuery(werner(3, 0.0), 2, "B", "XX")
    with pytest.raises(ValueError):
        symmetric_extension(ExtensionQuery(werner(3, 0.0), 2, "B", "SQE"))


def test_unconverged_solve_gives_no_verdict(monkeypatch):
    # 25 iterations stop at t* just below 1; the converged t* is 1.0333, i.e. not extendible
    q = ExtensionQuery(werner(3, 0.15), 3, "B", "SE")
    cut = run_query(q, max_iter=25)
    assert cut.status == "MAX_ITER"
    assert cut.extension_exists is None
    done = run_query(q)
    assert done.status == "OPTIMAL"
    assert done.t_star == pytest.approx(31 / 30, abs=1e-5)
    assert done.extension_exists is False
    real_solve = extend.solve
    monkeypatch.setattr(extend, "solve", lambda prog, tol, max_iter: real_solve(prog, tol=tol, max_iter=25))
    with pytest.raises(RuntimeError, match="MAX_ITER"):
        extension_threshold(3, 3, "SE", "B")


def test_run_query_dispatch():
    r = run_query(ExtensionQuery(werner(2, 0.3), 2, "B", "SE_B"))
    assert r.status == "OPTIMAL"
