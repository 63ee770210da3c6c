"""Tests for the conic solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from wernerlab import solver
from wernerlab.solver import (
    Block,
    ConicProgram,
    dump_program,
    load_program,
    lp_vertex_enumeration_check,
    mat_real,
    presolve,
    solve,
    vec_real,
    vec_real_map,
)


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
    assert failures == [(2, 2, 2)]  # the batch of the two 2-side blocks took the fallback


def test_embedding_linear_solve():
    prog = random_lp(6, 3, 1)
    emb = solver._Embedding(prog)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(prog.n + prog.m + 1)
    u = emb.solve(h)
    assert np.allclose(u + emb.apply_q(u), h, atol=1e-10)


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
    t_val, psd_block = sol.blocks_of(prog)
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


def test_program_validation():
    with pytest.raises(ValueError):
        ConicProgram((Block("nonneg", 2),), np.array([1.0]), sp.csr_matrix((1, 2)), np.array([0.0]))
    with pytest.raises(ValueError):
        ConicProgram(
            (Block("nonneg", 1),), np.array([np.nan]), sp.csr_matrix((1, 1)), np.array([0.0])
        )
    with pytest.raises(ValueError):
        Block("cone", 3)
