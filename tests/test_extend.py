"""Tests for symmetric (quasi/bosonic) extension SDPs."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import cli, extend
from wernerlab.extend import (
    SE,
    SE_B,
    SQE,
    ExtensionQuery,
    ExtensionResult,
    _partitions,
    _standard_tableaux,
    build_program,
    critical_weight,
    run_query,
    s_k_isometries,
    symmetric_subspace_isometry,
    werner_t_star,
    young_orthogonal_form,
)
from wernerlab.qmat import DensityMatrix, partial_transpose_dims, swap_parties
from wernerlab.solver import Block, ConicProgram, mat_real, presolve, solve, vec_real, vec_real_map
from wernerlab.states import (
    NoiseSpec,
    noisy_surrogate,
    swap_operator,
    sym_projector,
    werner,
    werner_all_v,
    werner_from_qubit_mixture,
)

from lp_oracle import lp_vertex_enumeration_check, werner_lp, werner_lp_columns
from sequential_reference import extension_threshold, side_b, symmetric_isometry_by_multisets, trace_out

SURROGATE = NoiseSpec(depol=0.06, coherent_eps=0.02, seed=2024)  # a complex, non-Werner perturbation


def random_hermitian(dims, seed):
    n = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_copy_trace_map_matches_dense():
    # every program has one layout: party 0 is the query state's A, parties 1..k the copies of its B
    for d_a, d_b in ((2, 2), (3, 3), (2, 3), (3, 2)):
        for k in (2, 3):
            for side in "AB":
                rho = DensityMatrix(d_a, d_b, np.eye(d_a * d_b) / (d_a * d_b))
                q = ExtensionQuery(side_b(rho, side), k, "SE")
                assert q.dims == ([d_b] + [d_a] * k if side == "A" else [d_a] + [d_b] * k)
                h = random_hermitian(q.dims, 10 * d_a + d_b + k)
                for i in range(k):
                    traced = [p for p in range(k + 1) if p not in (0, i + 1)]
                    got = extend._copy_trace_map(q, i) @ vec_real(h)
                    assert np.allclose(got, vec_real(trace_out(h, q.dims, traced)), rtol=0, atol=1e-12)


def test_two_party_transpose_matches_dense_and_involutes():
    for dims, seed in [([3, 3], 3), ([2, 3], 4), ([3, 2], 5)]:
        h = random_hermitian(dims, seed)
        for subset in ([], [0], [1], [0, 1]):
            pm = extend._real_partial_transpose(dims, subset)
            assert np.allclose(pm @ vec_real(h), vec_real(partial_transpose_dims(h, dims, subset)), atol=1e-12)
            assert np.allclose((pm @ pm).toarray(), np.eye(pm.shape[0]), rtol=0, atol=1e-14)


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


def test_symmetric_isometry_matches_multiset_loop():
    # every (d, k) under the dimension cap, bit for bit against the one-permutation-at-a-time build
    cases = [(d, k) for d in range(2, 244) for k in range(9) if d**k <= extend.MAX_EXTENSION_DIM]
    for d, k in cases:
        got, want = symmetric_subspace_isometry(d, k), symmetric_isometry_by_multisets(d, k)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, k)


def column_by_column_bosonic_program(q):
    """Reference SE_B program: embed each basis element by W, trace it down, one column at a time."""
    w_full = np.kron(np.eye(q.rho.dimA), symmetric_subspace_isometry(q.rho.dimB, q.k))
    s = w_full.shape[1]
    traced = list(range(2, q.k + 1))  # keep party 0 and the first copy
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
    q = ExtensionQuery(side_b(werner(d, 0.2), side), k, "SE_B")
    prog = build_program(q)
    ref = column_by_column_bosonic_program(q)
    assert prog.blocks == ref.blocks
    assert np.allclose(prog.A.toarray(), ref.A.toarray(), rtol=0, atol=1e-12)
    assert np.allclose(prog.b, ref.b, rtol=0, atol=1e-12)
    assert np.allclose(prog.c, ref.c, rtol=0, atol=1e-12)
    assert presolve(prog).m == presolve(ref).m


def column_by_column_sqe_program(q):
    """Reference SQE program: transpose each basis element, trace it down for every copy, one
    column at a time."""
    n = int(np.prod(q.dims))
    subsets = [()] + extend._default_partitions(q.k)
    eye_term = vec_real(np.eye(q.rho.dim) / q.rho.dim)
    rhs = vec_real(q.rho.mat) - eye_term
    a = np.empty((q.k * len(rhs), len(subsets) * n * n + 1))
    for block, subset in enumerate(subsets):
        for comp in range(n * n):
            e = np.zeros(n * n)
            e[comp] = 1.0
            x = partial_transpose_dims(mat_real(e, n), q.dims, list(subset))
            a[:, block * n * n + comp] = np.concatenate(
                [
                    vec_real(trace_out(x, q.dims, [p for p in range(1, q.k + 1) if p != pos]))
                    for pos in range(1, q.k + 1)
                ]
            )
    a[:, -1] = np.tile(-eye_term, q.k)
    c = np.zeros(a.shape[1])
    c[-1] = 1.0
    blocks = (Block("psd", n),) * len(subsets) + (Block("nonneg", 1),)
    return ConicProgram(blocks, c, a, np.tile(rhs, q.k))


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("side", ["A", "B"])
def test_sqe_builder_matches_column_by_column_reference(d, k, side):
    q = ExtensionQuery(side_b(noisy_surrogate(werner(d, 0.2), SURROGATE), side), k, "SQE")
    prog = build_program(q)
    ref = column_by_column_sqe_program(q)
    assert prog.blocks == ref.blocks
    assert np.allclose(prog.A.toarray(), ref.A.toarray(), rtol=0, atol=1e-12)
    assert np.allclose(prog.b, ref.b, rtol=0, atol=1e-12)
    assert np.allclose(prog.c, ref.c, rtol=0, atol=1e-12)


def all_index_block_marginal_map(t, d_other):
    """The marginal map built over every index of ``t``, zeros included: the reference that
    the nonzero-only builder must reproduce byte for byte."""
    d, m = t.shape[:2]
    a, j, q, a2, j2, q2 = np.indices((d_other, d, m, d_other, d, m)).reshape(6, -1)
    rows = (a * d + j) * (d_other * d) + a2 * d + j2
    cols = (a * m + q) * (d_other * m) + a2 * m + q2
    lin = sp.csr_matrix((t[j, q, j2, q2], (rows, cols)), shape=((d_other * d) ** 2, (d_other * m) ** 2))
    out = (vec_real_map(d_other * d) @ lin @ vec_real_map(d_other * m).conj().T).real
    out.eliminate_zeros()
    out.sort_indices()
    return out


@pytest.mark.parametrize("d,k", [(3, 2), (3, 4), (5, 2)])
@pytest.mark.parametrize("flavor", ["SE", "SE_B"])
@pytest.mark.parametrize("side", ["A", "B"])
def test_symmetric_program_bytes_match_all_index_builder(d, k, flavor, side, monkeypatch):
    q = ExtensionQuery(side_b(werner(d, 0.2), side), k, flavor)
    got = build_program(q).A
    monkeypatch.setattr(extend, "_block_marginal_map", all_index_block_marginal_map)
    ref = build_program(q).A
    for attr in ("data", "indices", "indptr"):
        assert getattr(got, attr).dtype == getattr(ref, attr).dtype
        assert getattr(got, attr).tobytes() == getattr(ref, attr).tobytes()


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 2)])
@pytest.mark.parametrize("flavor", ["SE", "SE_B", "SQE"])
def test_side_a_builds_the_side_b_program_of_the_swapped_state(d, k, flavor, tmp_path, monkeypatch):
    # a query copies party B, so extend-table --side A must query the party-swapped state
    states, queries = [], []
    real_state_for = cli._state_for

    def state_spy(*args):
        states.append(real_state_for(*args))
        return states[-1]

    def query_spy(q, tol):  # records the query and solves nothing
        queries.append(q)
        return ExtensionResult(1.0, "OPTIMAL", True, 0.0)

    monkeypatch.setattr(cli, "_state_for", state_spy)
    monkeypatch.setattr(extend, "run_query", query_spy)
    argv = ["extend-table", "--side", "A", "--noisy", "--d", str(d), "--k-list", str(k), "--flavors", flavor]
    assert cli.main(argv + ["--v-grid", "0.3", "--out", str(tmp_path / "a")]) == 0
    (rho,), (q,) = states, queries
    got = build_program(q)
    want = build_program(ExtensionQuery(swap_parties(rho), k, flavor))
    assert got.blocks == want.blocks
    for attr in ("data", "indices", "indptr"):
        assert getattr(got.A, attr).tobytes() == getattr(want.A, attr).tobytes()
    assert got.b.tobytes() == want.b.tobytes() and got.c.tobytes() == want.c.tobytes()


def copies_first_program(rho, k, flavor):
    """Side A built in the copies-first layout, as an independent reference: the k copies of A
    are parties 0..k-1 and B is party k, with rho itself on the right-hand side; SQE transposes
    the subsets that avoid the first copy."""
    d, d_b = rho.dimA, rho.dimB

    def marginal_map(v):  # copy 1 and B of X = sum_i V_i M V_i^H / sqrt(d_lambda), B's index last
        dim, _, m = v.shape
        v = v.reshape(dim, d, -1, m)
        t = np.einsum("ijrq,isrp->jqsp", v, v.conj()) / np.sqrt(dim)
        j, q, a, j2, q2, a2 = np.indices((d, m, d_b, d, m, d_b)).reshape(6, -1)
        rows = (j * d_b + a) * (d * d_b) + j2 * d_b + a2
        cols = (q * d_b + a) * (m * d_b) + q2 * d_b + a2
        lin = sp.csr_matrix((t[j, q, j2, q2], (rows, cols)), shape=((d * d_b) ** 2, (m * d_b) ** 2))
        out = (vec_real_map(d * d_b) @ lin @ vec_real_map(m * d_b).conj().T).real
        out.eliminate_zeros()
        out.sort_indices()
        return out

    if flavor != "SQE":
        stacks = s_k_isometries(d, k).values() if flavor == "SE" else [symmetric_subspace_isometry(d, k)[None]]
        rows, sides = [[marginal_map(v) for v in stacks]], [v.shape[2] * d_b for v in stacks]
    else:
        if k <= 3:  # one subset per bipartition, avoiding the first copy
            subsets = [tuple(p for p in range(k + 1) if m >> p & 1) for m in range(2, 2 ** (k + 1), 2)]
        else:
            subsets = [(0,), (k,), (0, 1), (0, k)]
        rows, sides = [], [d**k * d_b] * (1 + len(subsets))
        for i in range(k):  # copy i, kept with B
            first = np.moveaxis(np.arange(d**k).reshape((d,) * k), i, 0).ravel()
            tm = marginal_map(np.eye(d**k)[first][None])
            on_kept = [[n for n, p in enumerate((i, k)) if p in subset] for subset in subsets]
            rows.append([tm] + [extend._real_partial_transpose([d, d_b], kept) @ tm for kept in on_kept])
    eye_term = vec_real(np.eye(rho.dim) / rho.dim)
    a = sp.vstack([sp.hstack(maps + [sp.csr_matrix(-eye_term[:, None])]) for maps in rows]).tocsr()
    c = np.zeros(sum(s * s for s in sides) + 1)
    c[-1] = 1.0
    blocks = tuple(Block("psd", s) for s in sides) + (Block("nonneg", 1),)
    return ConicProgram(blocks, c, a, np.tile(vec_real(rho.mat) - eye_term, len(rows)))


def random_state(d_a, d_b, seed):
    g = random_hermitian([d_a, d_b], seed) + 1j * random_hermitian([d_a, d_b], seed + 1)
    m = g @ g.conj().T
    return DensityMatrix(d_a, d_b, m / np.trace(m).real)


@pytest.mark.parametrize(
    "rho,k",
    [
        (noisy_surrogate(werner(2, 0.3), NoiseSpec(0.06, 0.02, 7)), 2),
        (noisy_surrogate(werner(2, 0.3), NoiseSpec(0.06, 0.02, 7)), 3),
        (random_state(2, 3, 5), 2),
        (random_state(3, 2, 6), 2),
    ],
    ids=["surrogate-2-2", "surrogate-2-3", "random-2x3-2", "random-3x2-2"],
)
@pytest.mark.parametrize("flavor", ["SE", "SE_B", "SQE"])
def test_side_a_matches_the_copies_first_layout(rho, k, flavor):
    # the side-A geometry checked apart from the party swap that builds it
    got = run_query(ExtensionQuery(swap_parties(rho), k, flavor))
    ref = solve(copies_first_program(rho, k, flavor), tol=1e-7)
    assert got.status == ref.status == "OPTIMAL"
    assert got.t_star == pytest.approx(ref.primal_obj, rel=0, abs=1e-8)


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
    rows = [sp.hstack([extend._copy_trace_map(q, i), t_col]) for i in range(q.k)]
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
    q = ExtensionQuery(side_b(rho, side), k, "SE")
    prog = build_program(q)
    assert prog.m == rho.dim**2
    reduced = solve(prog, tol=1e-7)
    full = solve(full_se_program(q), tol=1e-7)
    assert reduced.status == full.status == "OPTIMAL"
    assert reduced.primal_obj == pytest.approx(full.primal_obj, abs=1e-6)


def test_se_block_sides_for_four_qutrit_copies():
    prog = build_program(ExtensionQuery(werner(3, 0.0), 4, "SE"))
    assert prog.blocks == tuple(Block("psd", n) for n in (45, 45, 18, 9)) + (Block("nonneg", 1),)
    assert prog.m == 81


def test_se_matches_known_werner_values():
    for v, expect in [(0.0, 1.0), (0.05, 0.925), (0.2, 0.7)]:
        r = run_query(ExtensionQuery(werner(3, v), 2, "SE"))
        assert r.status == "OPTIMAL"
        assert r.gap <= 1e-6
        assert r.t_star == pytest.approx(expect, abs=1e-5)
    r3 = run_query(ExtensionQuery(werner(3, 0.0), 3, "SE"))
    assert r3.t_star == pytest.approx(4 / 3, abs=1e-5)


def test_two_qubit_extendibility_boundary():
    # W(2)(v) has a (1,2)-extension iff v >= 1/4
    below = run_query(ExtensionQuery(werner(2, 0.24), 2, "SE"))
    above = run_query(ExtensionQuery(werner(2, 0.26), 2, "SE"))
    assert not below.extension_exists
    assert above.extension_exists
    assert run_query(ExtensionQuery(werner(2, 0.0), 2, "SE")).t_star == pytest.approx(
        1.5, abs=1e-5
    )


def test_flavor_ordering_ideal():
    q_se = ExtensionQuery(werner(3, 0.1), 2, "SE")
    q_sqe = ExtensionQuery(werner(3, 0.1), 2, "SQE")
    q_seb = ExtensionQuery(werner(3, 0.1), 2, "SE_B")
    t_se = run_query(q_se).t_star
    t_sqe = run_query(q_sqe).t_star
    t_seb = run_query(q_seb).t_star
    assert t_sqe <= t_se + 1e-6
    assert t_se <= t_seb + 1e-6
    # SQE coincides with SE for ideal Werner input
    assert t_sqe == pytest.approx(t_se, abs=1e-4)


def test_surrogate_sqe_strictly_below_se():
    # generic noisy states split the two relaxations strictly apart
    rho = noisy_surrogate(werner(3, 0.2), NoiseSpec(depol=0.06, coherent_eps=0.02, seed=2024))
    t_se = run_query(ExtensionQuery(rho, 2, "SE"), tol=1e-6).t_star
    t_sqe = run_query(ExtensionQuery(rho, 2, "SQE"), tol=1e-6).t_star
    assert t_sqe <= t_se + 1e-6
    assert t_se - t_sqe > 1e-3


@settings(max_examples=6, deadline=None, derandomize=True)
@given(v=st.floats(0, 1), noise_seed=st.integers(0, 2**32 - 1), side=st.sampled_from("AB"))
def test_flavors_order_on_noisy_two_qubit_surrogates(v, noise_seed, side):
    rho = noisy_surrogate(werner(2, v), NoiseSpec(depol=0.06, coherent_eps=0.02, seed=noise_seed))
    results = [run_query(ExtensionQuery(side_b(rho, side), 2, flavor)) for flavor in ("SQE", "SE", "SE_B")]
    assert [res.status for res in results] == ["OPTIMAL"] * 3
    t_sqe, t_se, t_seb = (res.t_star for res in results)
    assert t_sqe <= t_se + 1e-6
    assert t_se <= t_seb + 1e-6


def test_largest_instance_four_copies_qutrit():
    # the 243-dimensional (1,4) search still certifies cleanly
    res = run_query(ExtensionQuery(werner(3, 0.0), 4, "SE"))
    assert res.status == "OPTIMAL"
    assert res.t_star == pytest.approx(1.6, abs=2e-3)
    assert critical_weight(res.t_star, 3) == pytest.approx(1 / 4, abs=2e-3)


def test_bosonic_law_beyond_qutrits():
    # v_t = (1 - 1/k)/2 independent of d: checked at (d, k) = (4, 2) and (5, 2)
    for d in (4, 5):
        res = run_query(ExtensionQuery(werner(d, 0.0), 2, "SE_B"))
        assert critical_weight(res.t_star, d) == pytest.approx(1 / 4, abs=2e-3)


def test_monotonicity_in_k():
    for d in (2, 3):
        t2 = run_query(ExtensionQuery(werner(d, 0.0), 2, "SE")).t_star
        t3 = run_query(ExtensionQuery(werner(d, 0.0), 3, "SE")).t_star
        assert t3 >= t2 - 1e-6


def test_side_symmetry_for_ideal_werner():
    ta = run_query(ExtensionQuery(swap_parties(werner(3, 0.1)), 2, "SE")).t_star
    tb = run_query(ExtensionQuery(werner(3, 0.1), 2, "SE")).t_star
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
        found = extension_threshold(d, k, "SE", "B")
        assert found == pytest.approx(v_sym, abs=2e-3)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_threshold_takes_one_solve_at_v0(d, k, monkeypatch):
    calls = []
    real_run_query = extend.run_query

    def spy(q, tol):
        calls.append(q)
        return real_run_query(q, tol=tol)

    monkeypatch.setattr(extend, "run_query", spy)
    found = extension_threshold(d, k, "SE", "B")
    assert len(calls) == 1
    assert np.array_equal(calls[0].rho.mat, werner(d, 0.0).mat)
    assert found == pytest.approx(0.5 * (1 - (d - 1) / k), rel=0, abs=1e-6)


def test_query_validation():
    with pytest.raises(ValueError):
        ExtensionQuery(werner(3, 0.0), 1, "SE")
    with pytest.raises(ValueError):
        run_query(ExtensionQuery(noisy_surrogate(werner(3, 0.0), SURROGATE), 5, "SE"))  # 3^5*3 = 729 > 243
    run_query(ExtensionQuery(werner(3, 0.0), 5, "SE"))  # a Werner input takes the closed form, with no cap
    with pytest.raises(ValueError):
        ExtensionQuery(werner(3, 0.0), 2, "XX")


def test_sqe_keeps_the_dimension_cap_at_every_k():
    build_program(ExtensionQuery(noisy_surrogate(werner(3, 0.0), SURROGATE), 4, "SQE"))  # 3^5 = 243, at the cap
    with pytest.raises(ValueError, match="exceeds 243"):
        run_query(ExtensionQuery(noisy_surrogate(werner(4, 0.0), SURROGATE), 3, "SQE"))  # 4^4 = 256
    with pytest.raises(ValueError, match="exceeds 243"):
        build_program(ExtensionQuery(noisy_surrogate(werner(7, 0.0), SURROGATE), 2, "SQE"))  # 7^3 = 343
    with pytest.raises(ValueError, match="k <= 4"):
        ExtensionQuery(noisy_surrogate(werner(2, 0.0), SURROGATE), 5, "SQE")
    with pytest.raises(ValueError, match="k <= 4"):
        ExtensionQuery(werner(2, 0.0), 5, "SQE")
    # a Werner input takes the closed form past the cap, exactly
    res = run_query(ExtensionQuery(werner(4, 0.0), 3, "SQE"))
    assert (res.t_star, res.status, res.iterations) == (float(werner_t_star(4, 3, SQE, Fraction(-1))), "OPTIMAL", 0)


def test_unconverged_solve_gives_no_verdict(monkeypatch):
    # SE(3, 3) on werner(3, 0.15) is exactly t* = 31/30, i.e. not extendible, from the closed
    # form: there is no solve to cut short
    assert werner_t_star(3, 3, SE, 2 * Fraction(15, 100) - 1) == Fraction(31, 30)
    done = run_query(ExtensionQuery(werner(3, 0.15), 3, "SE"), max_iter=25)
    assert done.status == "OPTIMAL"
    assert done.t_star == pytest.approx(31 / 30, rel=0, abs=1e-12)
    assert done.extension_exists is False
    # a cut SQE solve on a non-Werner input gives no verdict
    real_solve = extend.solve
    monkeypatch.setattr(extend, "solve", lambda prog, tol, max_iter: real_solve(prog, tol=tol, max_iter=25))
    cut = run_query(ExtensionQuery(noisy_surrogate(werner(2, 0.0), SURROGATE), 2, "SQE"))
    assert (cut.status, cut.extension_exists) == ("MAX_ITER", None)


def test_unconverged_general_program_gives_no_verdict():
    # the twin of the test above on a non-Werner input, which keeps the S_k-block SDP
    q = ExtensionQuery(noisy_surrogate(werner(3, 0.15), SURROGATE), 3, "SE")
    cut = run_query(q, max_iter=25)
    assert cut.status == "MAX_ITER"
    assert cut.extension_exists is None


def solver_calls(q, monkeypatch):
    """The queries run_query builds programs for, the programs it solves, and its result."""
    built, solved = [], []
    real_build, real_solve = extend.build_program, extend.solve

    def build_spy(query):
        built.append(query)
        return real_build(query)

    def solve_spy(prog, tol, max_iter):
        solved.append(prog)
        return real_solve(prog, tol=tol, max_iter=max_iter)

    with monkeypatch.context() as patch:
        patch.setattr(extend, "build_program", build_spy)
        patch.setattr(extend, "solve", solve_spy)
        res = run_query(q)
    return built, solved, res


@pytest.mark.parametrize("flavor", ["SE", "SE_B", "SQE"])
def test_werner_inputs_call_no_solver(flavor, monkeypatch):
    # werner(4, 0.1) at k = 3 lies past the dimension cap
    for rho in (werner_all_v(3, 0.7), werner_from_qubit_mixture(3, 0.2), werner(4, 0.1), werner(2, 0.2)):
        built, solved, res = solver_calls(ExtensionQuery(swap_parties(rho), 3, flavor), monkeypatch)
        assert built == solved == []
        assert (res.status, res.gap, res.iterations) == ("OPTIMAL", 0.0, 0)
    d = 2 if flavor == "SQE" else 3  # SQE(3, 3) solves eight 81-blocks
    for q in (
        ExtensionQuery(swap_parties(noisy_surrogate(werner(d, 0.2), SURROGATE)), 3, flavor),
        ExtensionQuery(swap_parties(DensityMatrix(2, 3, np.eye(6) / 6)), 2, flavor),  # twirl-invariant, not square
    ):
        built, solved, res = solver_calls(q, monkeypatch)
        assert len(built) == len(solved) == 1 and built[0] is q
        assert any(bl.kind == "psd" for bl in solved[0].blocks)
        assert res.iterations > 0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_werner_lp_columns_match_young_orthogonal_form(d, k):
    cols = werner_lp_columns(d, k)
    assert [(lam, mu) for lam, mu, _ in werner_lp_columns(d, k, bosonic=True)] == [
        (lam, mu) for lam, mu, _ in cols if mu == (k,)
    ]
    pairs = set()
    for lam in _partitions(k + 1, d):
        last = np.diag(young_orthogonal_form(lam)[-1])  # the transposition (k, k+1)
        rows = np.array([t[-1] for t in _standard_tableaux(lam)])  # row of the box holding k+1
        for row in sorted(set(rows)):
            mu = tuple(x for x in lam[:row] + (lam[row] - 1,) + lam[row + 1 :] if x)
            pairs.add((lam, mu, float(last[rows == row].mean())))
    assert len(cols) == len(pairs)
    for lam, mu, r in cols:
        assert isinstance(r, Fraction) and -1 <= r <= 1
        (ref,) = [p[2] for p in pairs if p[:2] == (lam, mu)]
        assert r == pytest.approx(ref, rel=0, abs=1e-14)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2)])
@pytest.mark.parametrize("flavor", ["SE", "SE_B"])
@pytest.mark.parametrize("side", ["A", "B"])
def test_werner_lp_matches_general_program(d, k, flavor, side):
    for v in (0.0, 0.1, 0.15, 0.3):
        q = ExtensionQuery(side_b(werner(d, v), side), k, flavor)
        lp = run_query(q)
        general = solve(build_program(q), tol=1e-7)
        assert lp.status == general.status == "OPTIMAL"
        assert lp.t_star == pytest.approx(general.primal_obj, abs=1e-6)


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_werner_sqe_closed_form_matches_the_program(d, k):
    # the SQE program, which non-Werner inputs solve, is the reference on both sides of s = 1/d
    for v in (0.0, 0.3, 0.8, 1.0):
        q = ExtensionQuery(werner(d, v), k, "SQE")
        exact = run_query(q)
        sdp = solve(build_program(q))
        assert sdp.status == "OPTIMAL"
        assert exact.t_star == pytest.approx(sdp.primal_obj, rel=0, abs=1e-6)


def copy_swap_sum(d, k):
    """J = sum_i F_{0i} on (C^d)^(k+1), F_{0i} swapping party 0 with copy i."""
    index = np.arange(d ** (k + 1)).reshape((d,) * (k + 1))
    eye = np.eye(d ** (k + 1))
    return sum(eye[np.swapaxes(index, 0, i).ravel()] for i in range(1, k + 1))


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 2), (5, 2)])
def test_werner_table_is_the_spectrum_of_the_swap_sums(d, k):
    # werner_t_star's mu ranges: J for SE, J on the copies' symmetric subspace for SE-B, and J and
    # every J^(T_S) of the SQE program; k + d - 1 needs all copies or (0,) in the subset list
    subsets = extend._default_partitions(k)
    assert tuple(range(1, k + 1)) in subsets or (0,) in subsets
    j = copy_swap_sum(d, k)
    sym = np.kron(np.eye(d), symmetric_subspace_isometry(d, k))
    spectra = {
        SE: np.linalg.eigvalsh(j),
        SE_B: np.linalg.eigvalsh(sym.conj().T @ j @ sym),
        SQE: np.concatenate(
            [np.linalg.eigvalsh(partial_transpose_dims(j, [d] * (k + 1), list(s))) for s in [()] + subsets]
        ),
    }
    for flavor, mu in spectra.items():
        for s in (Fraction(-1), Fraction(1)):  # below and above 1/d
            want = werner_t_star(d, k, flavor, s)
            ext = mu.min() if s < Fraction(1, d) else mu.max()
            assert float(want) == pytest.approx(float(s - Fraction(1, d)) / (ext / k - 1 / d), rel=0, abs=1e-12)


@pytest.mark.parametrize("d,k,flavor,n_vars", [(3, 4, "SE", 10), (5, 2, "SE_B", 3)])
def test_werner_lp_matches_vertex_enumeration(d, k, flavor, n_vars):
    for v in (0.0, 0.15):
        swap = 2 * Fraction(v) - 1
        prog = werner_lp(d, k, flavor == "SE_B", swap)
        assert prog.n == n_vars
        exact = werner_t_star(d, k, flavor, swap)
        assert float(exact) == pytest.approx(lp_vertex_enumeration_check(prog), rel=0, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [2, 3, 4, 6, 10])
@pytest.mark.parametrize("bosonic", [False, True])
def test_werner_closed_form_matches_the_lp(d, k, bosonic):
    for v in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
        swap = 2 * Fraction(v) - 1
        prog = werner_lp(d, k, bosonic, swap)
        exact = float(werner_t_star(d, k, SE_B if bosonic else SE, swap))
        sol = solve(prog, tol=1e-7)
        assert sol.status == "OPTIMAL"
        assert exact == pytest.approx(sol.primal_obj, rel=0, abs=1e-6)
        if prog.n <= 12:  # the vertex oracle's limit
            assert exact == pytest.approx(lp_vertex_enumeration_check(prog), rel=0, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_exact_extension_laws(d):
    for k in range(2, 13):
        t_se, t_seb = (werner_t_star(d, k, flavor, Fraction(-1)) for flavor in (SE, SE_B))
        assert critical_weight(t_se, d) == max(Fraction(0), (1 - Fraction(d - 1, k)) / 2)
        assert critical_weight(t_seb, d) == (1 - Fraction(1, k)) / 2
        assert all(isinstance(x, Fraction) for x in (t_se, t_seb, critical_weight(t_se, d)))
        for flavor in (SE, SE_B):
            assert werner_t_star(d, k, flavor, Fraction(1, d)) == 0
            ratios = [r for _, _, r in werner_lp_columns(d, k, flavor == SE_B)]
            for s in (Fraction(-1), Fraction(-1, 2), Fraction(1, d), Fraction(1)):
                r_ext = min(ratios) if s < Fraction(1, d) else max(ratios)
                assert werner_t_star(d, k, flavor, s) == (s - Fraction(1, d)) / (r_ext - Fraction(1, d))


@pytest.mark.parametrize(
    "d,k,flavor,t_star,v_t",
    [
        (3, 20, "SE", Fraction(40, 13), Fraction(9, 20)),
        (3, 20, "SE_B", Fraction(80, 23), Fraction(19, 40)),
        (3, 3, "SE", Fraction(4, 3), Fraction(1, 6)),
        (2, 5, "SE", Fraction(15, 7), Fraction(2, 5)),
        (3, 4, "SE", Fraction(8, 5), Fraction(1, 4)),
        (3, 4, "SE_B", Fraction(16, 7), Fraction(3, 8)),
        (5, 2, "SE_B", Fraction(12, 7), Fraction(1, 4)),
    ],
)
def test_exact_werner_table_values(d, k, flavor, t_star, v_t):
    exact = werner_t_star(d, k, flavor, Fraction(-1))
    assert (exact, critical_weight(exact, d)) == (t_star, v_t)
    res = run_query(ExtensionQuery(werner(d, 0.0), k, flavor))
    assert res.t_star == pytest.approx(float(t_star), rel=0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(2, 6), k=st.integers(2, 11), v=st.fractions(0, 1, max_denominator=1000))
def test_closed_form_orders_flavors_and_grows_with_k(d, k, v):
    swap = 2 * v - 1  # tr(rho F) of werner(d, v)
    flavors = (SQE, SE, SE_B) if k <= 4 else (SE, SE_B)  # SQE's subsets are fixed up to k = 4
    t = {flavor: werner_t_star(d, k, flavor, swap) for flavor in flavors}
    assert all(isinstance(x, Fraction) for x in t.values())
    assert t.get(SQE, t[SE]) <= t[SE] <= t[SE_B]
    for flavor in flavors:
        if flavor != SQE or k < 4:
            assert werner_t_star(d, k + 1, flavor, swap) >= t[flavor]
    rho = werner(d, float(v))
    for flavor in flavors:
        t_a, t_b = (run_query(ExtensionQuery(side_b(rho, side), k, flavor)).t_star for side in "AB")
        assert t_a == t_b


def test_run_query_dispatch():
    r = run_query(ExtensionQuery(werner(2, 0.3), 2, "SE_B"))
    assert r.status == "OPTIMAL"
