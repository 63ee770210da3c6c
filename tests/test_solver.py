"""Tests for the conic solver."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import solver, steer
from wernerlab.solver import (
    Block,
    ConicProgram,
    ConicSolution,
    Family,
    dump_program,
    load_program,
    mat_real,
    presolve,
    solve,
    vec_real,
    vec_real_map,
)
from wernerlab.extend import ExtensionQuery, build_program
from wernerlab.states import NoiseSpec, noisy_surrogate, werner

from lp_oracle import lp_vertex_enumeration_check
from sequential_reference import assert_rows_bitwise_alone, blocks_of, check_by_row, solve_by_row, sr_program_csr


def shifted_lp():
    # min x s.t. x >= 3, written as x - s = 3 with s >= 0
    blocks = (Block("free", 1), Block("nonneg", 1))
    a = sp.csr_matrix(np.array([[1.0, -1.0]]))
    return ConicProgram(blocks, np.array([1.0, 0.0]), a, np.array([3.0]))


def spectral_norm_sdp(h):
    # min t s.t. t I - h >= 0  ->  t*vec(I) - vec(S) = vec(h)
    n = h.shape[0]
    k = n * n
    blocks = (Block("free", 1), Block("psd", n))
    rows, cols, vals = [], [], []
    vec_i = vec_real(np.eye(n))
    for r in range(k):
        if vec_i[r] != 0.0:
            rows.append(r)
            cols.append(0)
            vals.append(vec_i[r])
        rows.append(r)
        cols.append(1 + r)
        vals.append(-1.0)
    a = sp.csr_matrix((vals, (rows, cols)), shape=(k, 1 + k))
    c = np.zeros(1 + k)
    c[0] = 1.0
    return ConicProgram(blocks, c, a, vec_real(h))


def random_lp(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    x_feas = rng.uniform(0.5, 1.5, n)
    b = a @ x_feas
    c = rng.standard_normal(n) + 1.0  # keep it bounded with high probability
    return ConicProgram((Block("nonneg", n),), c, sp.csr_matrix(a), b)


def test_vec_real_isometry():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h1 = (g + g.conj().T) / 2
    g2 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h2 = (g2 + g2.conj().T) / 2
    v1, v2 = vec_real(h1), vec_real(h2)
    assert np.vdot(h1, h2).real == pytest.approx(v1 @ v2, abs=1e-12)
    assert np.allclose(mat_real(v1, 5), h1, atol=1e-14)
    # leading axes are a stack, handled entry by entry with the same arithmetic
    stack = np.stack([[h1, h2], [h2, h1]])
    assert np.array_equal(vec_real(stack), np.stack([[v1, v2], [v2, v1]]))
    assert np.array_equal(mat_real(vec_real(stack), 5)[0, 1], mat_real(v2, 5))
    u = vec_real_map(5)
    assert np.allclose(u @ h1.ravel(), v1, atol=1e-14)
    assert np.allclose((u.conj().T @ u).toarray(), np.eye(25), atol=1e-14)


def check_cone_projection_against_per_block_reference():
    # PSD sides 1, 2, 3 and 9 each appear twice so they project as batches
    psd_sides = (2, 9, 1, 3, 45, 2, 9, 3, 1)
    blocks = (Block("free", 3), Block("nonneg", 4)) + tuple(Block("psd", n) for n in psd_sides)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(sum(bl.size for bl in blocks))
    proj = solver._ConeProjector(blocks)
    out = proj.project(x)
    pos = 0
    for bl in blocks:
        seg, got = x[pos : pos + bl.size], out[pos : pos + bl.size]
        pos += bl.size
        if bl.kind == "free":
            expect = seg
        elif bl.kind == "nonneg":
            expect = np.maximum(seg, 0.0)
        else:
            w, q = np.linalg.eigh(mat_real(seg, bl.n))
            expect = vec_real((q * np.clip(w, 0.0, None)) @ q.conj().T)
            assert np.linalg.eigvalsh(mat_real(got, bl.n))[0] >= -1e-12
        assert np.allclose(got, expect, rtol=0, atol=1e-12)
    assert np.allclose(proj.project(out), out, rtol=0, atol=1e-12)


def test_cone_projection_matches_per_block_reference():
    check_cone_projection_against_per_block_reference()


def test_cone_projection_survives_eigh_failure(monkeypatch):
    real_eigh, failures = np.linalg.eigh, []

    def eigh_failing_once(h):
        if not failures:
            failures.append(h.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_once)
    check_cone_projection_against_per_block_reference()
    # side-2 blocks project in closed form, so the first eigh batch is the pair of 9-side blocks
    assert failures == [(2, 9, 9)]


# eigenvalue pairs of a 2 x 2 block, in units of its scale; the last two straddle 0 at 1e-12
PSD2_SPECTRA = {
    "zero": (0.0, 0.0),
    "plus_identity": (1.0, 1.0),
    "minus_identity": (-1.0, -1.0),
    "rank1": (1.0, 0.0),
    "negative_rank1": (0.0, -1.0),
    "straddle_up": (1.0, 1e-12),
    "straddle_down": (1.0, -1e-12),
}


def psd2_block(spectrum, scale, seed):
    """vec_real of U diag(spectrum) U^dag for a seeded random U; 'random' draws the spectrum too.
    Straddling pairs keep their 1e-12 eigenvalue unscaled."""
    rng = np.random.default_rng(seed)
    if spectrum == "random":
        w = scale * rng.standard_normal(2)
    else:
        top, low = PSD2_SPECTRA[spectrum]
        w = np.array([scale * top, low if spectrum.startswith("straddle") else scale * low])
    q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    return vec_real((q * w) @ q.conj().T)


def reference_psd2(x):
    w, q = np.linalg.eigh(mat_real(x, 2))
    return vec_real((q * np.clip(w, 0.0, None)[..., None, :]) @ q.conj().swapaxes(-1, -2))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["random", *PSD2_SPECTRA]),
            st.floats(-8.0, 8.0),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=16,
    )
)
def test_psd2_closed_form_matches_eigh(specs):
    x = np.array([psd2_block(kind, 10.0**exponent, seed) for kind, exponent, seed in specs])
    got = solver._project_psd2(x)
    tol = 1e-12 * (1.0 + np.max(np.abs(x), axis=-1))
    assert np.all(np.max(np.abs(got - reference_psd2(x)), axis=-1) <= tol)
    assert np.all(np.linalg.eigvalsh(mat_real(got, 2))[:, 0] >= -tol)
    assert np.all(np.max(np.abs(solver._project_psd2(got) - got), axis=-1) <= tol)


def test_psd2_rows_give_the_same_bits_alone():
    # 16 rows of 8 side-2 blocks, every spectrum kind at scales 1e-8 to 1e8
    kinds = ["random", *PSD2_SPECTRA]
    rng = np.random.default_rng(3)
    x = np.array(
        [
            np.concatenate([psd2_block(kinds[(r + i) % len(kinds)], 10.0 ** rng.uniform(-8, 8), 8 * r + i) for i in range(8)])
            for r in range(16)
        ]
    )
    proj = solver._ConeProjector(tuple(Block("psd", 2) for _ in range(8)))
    assert_rows_bitwise_alone(lambda rows: (proj.project(rows),), (x,))


# eigenvalue triples of a 3 x 3 block, in units of its scale; the straddling ones put their
# smallest eigenvalue at +-1e-12 of the scale
PSD3_SPECTRA = {
    "zero": (0.0, 0.0, 0.0),
    "plus_identity": (1.0, 1.0, 1.0),
    "minus_identity": (-1.0, -1.0, -1.0),
    "definite": (1.0, 0.5, 0.25),
    "negative_definite": (-0.25, -0.5, -1.0),
    "rank1": (1.0, 0.0, 0.0),
    "rank2": (1.0, 0.5, 0.0),
    "negative_rank1": (0.0, 0.0, -1.0),
    "straddle_up": (1.0, 0.5, 1e-12),
    "straddle_down": (1.0, 0.5, -1e-12),
}
PSD3_KEPT = ("plus_identity", "definite")  # positive definite: the pivot test keeps them as they are
PSD3_ZEROED = ("minus_identity", "negative_definite")


def psd3_block(spectrum, scale, seed):
    """vec_real of U diag(spectrum) U^dag for a seeded random U; 'random' draws the spectrum too."""
    rng = np.random.default_rng(seed)
    w = scale * (rng.standard_normal(3) if spectrum == "random" else np.array(PSD3_SPECTRA[spectrum]))
    q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    return vec_real((q * w) @ q.conj().T)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["random", *PSD3_SPECTRA]),
            st.floats(-8.0, 8.0),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=16,
    )
)
def test_psd3_definite_blocks_skip_eigh(specs):
    x = np.array([psd3_block(kind, 10.0**exponent, seed) for kind, exponent, seed in specs])
    proj = solver._ConeProjector(tuple(Block("psd", 3) for _ in specs))
    got = proj.project(x.ravel()).reshape(x.shape)
    w, q = np.linalg.eigh(mat_real(x, 3))
    want = vec_real((q * np.clip(w, 0.0, None)[:, None, :]) @ q.conj().swapaxes(-1, -2))
    tol = 1e-12 * (1.0 + np.max(np.abs(x), axis=-1))
    for (kind, _, _), block, out in zip(specs, x, got):
        if kind in PSD3_KEPT:
            assert out.tobytes() == block.tobytes()
        if kind in PSD3_ZEROED:
            assert not out.any()
    assert np.all(np.max(np.abs(got - want), axis=-1) <= tol)
    assert np.all(np.linalg.eigvalsh(mat_real(got, 3))[:, 0] >= -tol)


def test_psd3_rows_give_the_same_bits_alone():
    # 16 rows of 8 side-3 blocks, every spectrum kind at scales 1e-8 to 1e8
    kinds = ["random", *PSD3_SPECTRA]
    rng = np.random.default_rng(4)
    x = np.array(
        [
            np.concatenate(
                [psd3_block(kinds[(r + i) % len(kinds)], 10.0 ** rng.uniform(-8, 8), 8 * r + i) for i in range(8)]
            )
            for r in range(16)
        ]
    )
    proj = solver._ConeProjector(tuple(Block("psd", 3) for _ in range(8)))
    assert_rows_bitwise_alone(lambda rows: (proj.project(rows),), (x,))


def test_embedding_linear_solve():
    # (I + Q) u = h for the skew embedding matrix Q of each row's program: rows differ in b
    prog = random_lp(6, 3, 1)
    family = family_of(prog)
    rng = np.random.default_rng(2)
    b = rng.standard_normal((3, prog.m))
    h = rng.standard_normal((3, prog.n + prog.m + 1))
    u = family.kkt(h, *family.b_vectors(b))
    a, c = family.A.dot(np.eye(prog.n)).T, family.c  # the scaled A, column by column
    for b_r, h_r, u_r in zip(b, h, u):
        q = np.block(
            [
                [np.zeros((prog.n, prog.n)), -a.T, c[:, None]],
                [a, np.zeros((prog.m, prog.m)), -b_r[:, None]],
                [-c[None, :], b_r[None, :], np.zeros((1, 1))],
            ]
        )
        assert np.allclose(u_r, np.linalg.solve(np.eye(len(h_r)) + q, h_r), atol=1e-10)


def test_lp_shift():
    sol = solve(shifted_lp(), tol=1e-9)
    assert sol.status == "OPTIMAL"
    assert sol.primal_obj == pytest.approx(3.0, abs=1e-7)
    assert lp_vertex_enumeration_check(shifted_lp()) == pytest.approx(3.0, abs=1e-12)


def test_sdp_spectral_norm():
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sol = solve(spectral_norm_sdp(pauli_x), tol=1e-9)
    assert sol.status == "OPTIMAL"
    assert sol.primal_obj == pytest.approx(1.0, abs=1e-7)
    assert sol.gap <= 1e-7


def test_sdp_random_spectral_norm():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    sol = solve(spectral_norm_sdp(h), tol=1e-9)
    assert sol.primal_obj == pytest.approx(np.linalg.eigvalsh(h)[-1], abs=1e-6)


def test_weak_duality_and_gap():
    for seed in range(4):
        sol = solve(random_lp(7, 3, seed), tol=1e-8)
        assert sol.status == "OPTIMAL"
        assert sol.primal_obj >= sol.dual_obj - 1e-6
        assert sol.gap <= 1e-7


def test_optimal_solution_respects_cones():
    prog = spectral_norm_sdp(np.array([[0.2, 1j], [-1j, -0.4]], dtype=complex))
    sol = solve(prog, tol=1e-8)
    assert sol.status == "OPTIMAL"
    t_val, psd_block = blocks_of(sol, prog)
    assert np.linalg.eigvalsh(psd_block)[0] >= -1e-7
    assert np.linalg.norm(prog.A @ sol.x - prog.b) / (1 + np.linalg.norm(prog.b)) <= 1e-7


def test_vertex_enumeration_matches_solver():
    for seed in range(6):
        prog = random_lp(5, 2, 100 + seed)
        sol = solve(prog, tol=1e-9)
        assert sol.status == "OPTIMAL"
        assert lp_vertex_enumeration_check(prog) == pytest.approx(sol.primal_obj, abs=1e-6)
    with pytest.raises(ValueError, match="12-variable"):
        lp_vertex_enumeration_check(random_lp(13, 2, 0))


def test_determinism():
    prog = random_lp(8, 4, 77)
    s1 = solve(prog, tol=1e-8)
    s2 = solve(prog, tol=1e-8)
    assert s1.iterations == s2.iterations
    assert s1.primal_obj == s2.primal_obj
    assert s1.dual_obj == s2.dual_obj


def test_scaling_invariance():
    prog = random_lp(6, 3, 42)
    scaled = ConicProgram(prog.blocks, 10 * prog.c, prog.A, 10 * prog.b)
    s1 = solve(prog, tol=1e-9)
    s2 = solve(scaled, tol=1e-9)
    assert s1.status == s2.status == "OPTIMAL"
    # objective scales like b*c = 100, within 1e-6 relative
    assert s2.primal_obj == pytest.approx(100 * s1.primal_obj, rel=1e-6)


def test_infeasible_detected():
    # x = -1 with x >= 0
    prog = ConicProgram(
        (Block("nonneg", 1),), np.array([0.0]), sp.csr_matrix(np.array([[1.0]])), np.array([-1.0])
    )
    sol = solve(prog, tol=1e-9, max_iter=50000)
    assert sol.status == "INFEASIBLE"


def test_unbounded_detected():
    # min -x1 s.t. x2 = 1
    prog = ConicProgram(
        (Block("nonneg", 2),),
        np.array([-1.0, 0.0]),
        sp.csr_matrix(np.array([[0.0, 1.0]])),
        np.array([1.0]),
    )
    sol = solve(prog, tol=1e-9, max_iter=50000)
    assert sol.status == "UNBOUNDED"


def test_presolve_drops_rows():
    a = sp.csr_matrix(np.array([[1.0, -1.0], [1.0, -1.0], [0.0, 0.0]]))
    prog = ConicProgram((Block("free", 1), Block("nonneg", 1)), np.array([1.0, 0.0]), a, np.array([3.0, 3.0, 0.0]))
    slim = presolve(prog)
    assert slim.m == 1
    assert solve(slim, tol=1e-9).primal_obj == pytest.approx(3.0, abs=1e-7)


def test_dump_load_roundtrip():
    prog = spectral_norm_sdp(np.array([[0.5, 0.25j], [-0.25j, -0.5]], dtype=complex))
    back = load_program(dump_program(prog))
    assert back.blocks == prog.blocks
    assert np.array_equal(back.c, prog.c)
    assert np.array_equal(back.b, prog.b)
    assert (back.A != prog.A).nnz == 0
    assert solve(back, tol=1e-9).primal_obj == pytest.approx(solve(prog, tol=1e-9).primal_obj, abs=1e-10)


def test_every_dump_loads_back():
    # a CSR that holds an entry twice dumps it once, summed, so that the dump loads
    twice = sp.csr_matrix((np.array([1.0, 2.0, -1.0]), np.array([0, 0, 1]), np.array([0, 3])), shape=(1, 2))
    progs = [ConicProgram((Block("free", 1), Block("nonneg", 1)), np.array([1.0, 0.0]), twice, np.array([3.0]))]
    rho = noisy_surrogate(werner(2, 0.3), NoiseSpec(0.06, 0.02, 7))
    progs += [build_program(ExtensionQuery(rho, 2, flavor)) for flavor in ("SE", "SE_B", "SQE")]
    for prog in progs:
        text = dump_program(prog)
        back = load_program(text)
        assert back.blocks == prog.blocks
        assert np.array_equal(back.c, prog.c) and np.array_equal(back.b, prog.b)
        assert np.array_equal(back.A.toarray(), prog.A.toarray())
        assert dump_program(back) == text
    assert "0 0 3.0" in dump_program(progs[0]).splitlines()


def test_program_validation():
    with pytest.raises(ValueError):
        ConicProgram((Block("nonneg", 2),), np.array([1.0]), sp.csr_matrix((1, 2)), np.array([0.0]))
    with pytest.raises(ValueError):
        ConicProgram(
            (Block("nonneg", 1),), np.array([np.nan]), sp.csr_matrix((1, 1)), np.array([0.0])
        )
    with pytest.raises(ValueError):
        Block("cone", 3)


def presolve_by_rows(prog):
    """Row-by-row presolve: drop rows that are zero or repeat an earlier (row, b) exactly."""
    a = prog.A.tocsr()
    seen, keep = set(), []
    for i in range(a.shape[0]):
        row = a.getrow(i)
        key = (tuple(row.indices.tolist()), tuple(row.data.tolist()), float(prog.b[i]))
        if (not row.nnz and abs(prog.b[i]) < 1e-14) or key in seen:
            continue
        seen.add(key)
        keep.append(i)
    return keep


def captured_sr_program(seed, d=3, n_s=2):
    """The program sr_solve solves for a random assemblage, with A as the CSR matrix of
    ``sr_program_csr``, so that presolve and the CSR kernel see it."""
    rng = np.random.default_rng(seed)
    asm = steer.assemblage_from(werner(d, rng.uniform(0, 0.5)), steer.random_projective(d, n_s, rng))
    return ConicProgram(*sr_program_csr(n_s, d, d), vec_real(asm.sigma).ravel())


def edge_programs():
    """Zero rows with zero and nonzero b, duplicates with equal and different b, signed zeros,
    an explicitly stored zero and unsorted column indices."""
    blocks = (Block("free", 2), Block("nonneg", 2))
    dense = np.array([[1.0, -1.0, 0, 0], [1.0, -1.0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 2.0, 0, 1.0], [0, 0, 0, 0]])
    out = []
    for b in ([3.0, 3.0, 0.0, 0.0, 1.0, 0.0], [3.0, 4.0, 0.0, 2.0, 1.0, 2.0], [3.0, 3.0, 1e-15, -0.0, 1.0, 0.0]):
        out.append(ConicProgram(blocks, np.array([1.0, 0.0, 0.0, 0.0]), sp.csr_matrix(dense), np.array(b)))
    # rows 0 and 1 differ only in the sign of a zero; row 2 stores an explicit zero; row 3 is row 4 reordered
    data = np.array([1.0, 0.0, 1.0, -0.0, 0.0, 2.0, 1.0, 1.0, 2.0])
    indices = np.array([0, 1, 0, 1, 2, 3, 1, 1, 3])
    indptr = np.array([0, 2, 4, 5, 7, 9])
    a = sp.csr_matrix((data, indices, indptr), shape=(5, 4))
    out.append(ConicProgram(blocks, np.ones(4), a, np.array([1.0, 1.0, 0.0, 5.0, 5.0])))
    return out


def test_presolve_matches_row_by_row_reference():
    progs = [captured_sr_program(seed) for seed in (1, 2)] + [captured_sr_program(3, d=2, n_s=3)]
    meas = steer.random_grouped_projective(2, 2, 2, np.random.default_rng(5))
    progs.append(steer.nonlocal_content_program(steer.correlation_from(werner(2, 0.3), meas, meas)))
    for flavor, k in (("SE", 2), ("SQE", 2), ("SE_B", 3), ("SE", 3)):
        progs.append(build_program(ExtensionQuery(werner(3, 0.2), k, flavor)))
    progs += edge_programs()
    dropped = 0
    for prog in progs:
        keep = presolve_by_rows(prog)
        slim = presolve(prog)
        if len(keep) == prog.m:
            assert slim is prog
            continue
        dropped += 1
        want = prog.A.tocsr()[keep]
        for name in ("indptr", "indices", "data"):
            assert getattr(slim.A, name).tobytes() == getattr(want, name).tobytes()
        assert np.array_equal(slim.b, prog.b[keep]) and slim.blocks == prog.blocks and slim.c is prog.c
    assert dropped == 4  # only the edge programs have rows to drop


def same_solution(got, want):
    return (
        got.x.tobytes() == want.x.tobytes()
        and got.y.tobytes() == want.y.tobytes()
        and (got.status, got.iterations) == (want.status, want.iterations)
    )


def same_exit(got, want):
    """Status, iteration, x, y, both objectives and the gap agree bit for bit."""
    scalars = [np.array([sol.primal_obj, sol.dual_obj, sol.gap]).tobytes() for sol in (got, want)]
    return same_solution(got, want) and scalars[0] == scalars[1]


def family_of(prog):
    return Family(prog.blocks, prog.c, prog.A)


def solve_stack(progs, **kwargs):
    """The programs, which share blocks, A and c, as the rows of one family's stack."""
    return family_of(progs[0]).solve_many(np.stack([p.b for p in progs]), **kwargs)


def test_family_solutions_share_no_memory_with_it():
    progs = [captured_sr_program(seed) for seed in (1, 2, 3)]
    family = family_of(progs[0])
    b = np.stack([p.b for p in progs])
    first = family.solve_many(b, max_iter=400)
    for sol in first:
        sol.x[:] = 0.0
        sol.y[:] = 0.0
    again = family.solve_many(b, max_iter=400)
    assert all(same_solution(got, want) for got, want in zip(again, [solve(p, max_iter=400) for p in progs]))


def test_family_rejects_bad_right_hand_sides():
    prog = captured_sr_program(1)
    family = family_of(prog)
    nan = prog.b.copy()
    nan[3] = np.nan
    for b in (np.zeros((2, prog.m + 1)), prog.b, nan[None]):
        with pytest.raises(ValueError, match=rf"finite \(R, {prog.m}\) array"):
            family.solve_many(b)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": np.inf}, "tol must be finite and positive"),
        ({"tol": np.nan}, "tol must be finite and positive"),
        ({"tol": -1.0}, "tol must be finite and positive"),
        ({"tol": 0.0}, "tol must be finite and positive"),
        ({"max_iter": 0}, "max_iter must be at least 1"),
    ],
)
def test_solve_rejects_bad_stopping_rules(monkeypatch, kwargs, message):
    prog = captured_sr_program(1)
    monkeypatch.setattr(solver.Family, "kkt", lambda *args: pytest.fail("iterated"))
    with pytest.raises(ValueError, match=message):
        solve(prog, **kwargs)


def test_solve_many_matches_solo_solves_bitwise():
    # SR programs at d = 3 (2 settings) and d = 2 (3 settings); the d = 2 batch mixes exits
    # at 50 and 250 iterations, so rows leave the stack while others iterate on
    for d, n_s in ((3, 2), (2, 3)):
        progs = [captured_sr_program(seed, d=d, n_s=n_s) for seed in range(8)]
        alone = [solve(prog) for prog in progs]
        assert all(sol.status == "OPTIMAL" for sol in alone)
        together = solve_stack(progs)
        assert all(same_solution(got, want) for got, want in zip(together, alone))
        assert [sol.gap for sol in together] == [sol.gap for sol in alone]
    assert len({sol.iterations for sol in together}) > 1
    # a program solved twice in one batch, and a batch in another order
    twice = solve_stack([progs[1], progs[0], progs[1]])
    assert same_solution(twice[0], alone[1]) and same_solution(twice[1], alone[0]) and same_solution(twice[2], alone[1])
    assert family_of(progs[0]).solve_many(np.empty((0, progs[0].m))) == []


def test_solve_many_lp_batch_mixes_exits(monkeypatch):
    # one A and c per stack; b is feasible, infeasible (tau collapses), unbounded or too slow for max_iter
    a = sp.csr_matrix(np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]))
    mixed = [
        ConicProgram((Block("nonneg", 3),), np.array([1.0, 2.0, 3.0]), a, np.array(b))
        for b in ([1.0, 0.2], [-1.0, 0.0], [1.0, 0.999])
    ]
    # min -x2 over x1 >= 0 and a free x2 with x1 = b: unbounded at b = 1, infeasible at b = -1
    a = sp.csr_matrix(np.array([[1.0, 0.0]]))
    certified = [
        ConicProgram((Block("nonneg", 1), Block("free", 1)), np.array([0.0, -1.0]), a, np.array([b]))
        for b in (1.0, -1.0)
    ]
    # SR programs cut off at 130 iterations: longer rows, some of them still at MAX_ITER
    sr = [captured_sr_program(seed, d=2, n_s=3) for seed in range(8)]
    exits = {
        "mixed": [("OPTIMAL", 75), ("INFEASIBLE", 50), ("MAX_ITER", 200)],
        "certified": [("UNBOUNDED", 25), ("INFEASIBLE", 25)],
    }
    checks, stacked_check = [], solver._check

    def spy(*args):
        checks.append((args, stacked_check(*args)))
        return checks[-1][1]

    monkeypatch.setattr(solver, "_check", spy)
    stacked = {}
    for name, progs, max_iter in (("mixed", mixed, 200), ("certified", certified, 200), ("sr", sr, 130)):
        alone = [solve(prog, max_iter=max_iter) for prog in progs]
        checks.clear()
        together = solve_stack(progs, max_iter=max_iter)
        by_row = [solve_by_row(prog, max_iter=max_iter) for prog in progs]
        # the stacked exit test gives each row the per-row reference's exit, bit for bit
        assert all(same_exit(got, want) and same_exit(got, ref) for got, want, ref in zip(together, alone, by_row))
        stacked[name] = together
        # and at every check, each row's crit and mapped-back iterate, or its certificate
        for (family, b, beta, bnorm, u, v), (crit, rows) in checks:
            for i, (x, y, pobj, dobj, gap, status) in enumerate(rows):
                prog = dataclasses.replace(presolve(progs[0]), b=b[i])
                ref, best = check_by_row(prog, family, beta[i], bnorm[i], u[i], v[i], 0, -1.0, None)
                if status is None:
                    got = np.concatenate([[crit[i]], x, y, [pobj, dobj]])
                    assert got.tobytes() == np.concatenate([[best[0]], best[1], best[2], best[3:]]).tobytes()
                elif status:
                    assert same_exit(ConicSolution(x, y, pobj, dobj, status, gap, 0), ref)
                else:
                    assert ref is None
    for name, want in exits.items():
        assert [(sol.status, sol.iterations) for sol in stacked[name]] == want
    assert {sol.status for sol in stacked["sr"]} == {"OPTIMAL", "MAX_ITER"}
    assert stacked["mixed"][0].primal_obj == pytest.approx(1.4, abs=1e-6)
    assert np.isfinite(stacked["mixed"][2].primal_obj)  # the best iterate, not a verdict
