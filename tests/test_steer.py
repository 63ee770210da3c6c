"""Tests for assemblages, steering robustness, correlations and nonlocal content."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import steer
from wernerlab.filterops import rotated_filtered_state
from wernerlab.qmat import DensityMatrix, contract, kron
from wernerlab.solver import Block, vec_real
from wernerlab.states import NoiseSpec, noisy_surrogate, werner
from wernerlab.steer import (
    Assemblage,
    Correlation,
    MeasurementSet,
    assemblage_from,
    bell_value,
    chsh_coefficients,
    correlation_from,
    deterministic_strategies,
    mub_qubit_measurements,
    nonlocal_content,
    projective_from_unitaries,
    random_projective,
    seesaw_bell,
    sr_solve,
    sr_state_lower_bound,
    steering_robustness,
)

SINGLET_2MUB_SR = 3 - 2 * np.sqrt(2)  # proven optimal; see decisions ledger


def singlet():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return DensityMatrix(2, 2, np.outer(psi, psi.conj()))


def bloch_measurement(*directions):
    settings = []
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    for n in directions:
        op = sum(ni * p for ni, p in zip(n, paulis))
        settings.append(((np.eye(2) + op) / 2, (np.eye(2) - op) / 2))
    return MeasurementSet(tuple(settings))


def random_state(d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_a * d_b, d_a * d_b)) + 1j * rng.standard_normal((d_a * d_b, d_a * d_b))
    m = g @ g.conj().T
    return DensityMatrix(d_a, d_b, m / np.trace(m))


def swapped(rho):
    """SWAP rho SWAP: the same state with its two sides exchanged."""
    d_a, d_b = rho.dimA, rho.dimB
    m = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(d_a * d_b, d_a * d_b)
    return DensityMatrix(d_b, d_a, m)


DIMS = st.sampled_from([(2, 2), (3, 3), (2, 3), (3, 2)])
SEEDS = st.integers(0, 2**32 - 1)


def pr_box():
    p = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (x & y):
                        p[x, y, a, b] = 0.5
    return Correlation(p)


def test_measurement_set_validation():
    with pytest.raises(ValueError, match="sum to the identity"):
        MeasurementSet(((np.eye(2, dtype=complex) * 0.4, np.eye(2, dtype=complex) * 0.4),))
    with pytest.raises(ValueError, match="PSD"):
        bad = np.diag([1.5, -0.5]).astype(complex)
        MeasurementSet(((bad, np.eye(2) - bad),))


def test_assemblage_from_separable_product():
    rng = np.random.default_rng(0)
    ga = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_a = ga @ ga.conj().T
    rho_a /= np.trace(rho_a)
    rho_b = np.diag([0.7, 0.3]).astype(complex)
    rho = DensityMatrix(2, 2, kron(rho_a, rho_b))
    meas = mub_qubit_measurements(2)
    asm = assemblage_from(rho, meas, "A")
    for x in range(2):
        for a in range(2):
            weight = np.real(np.trace(meas.effects[x][a] @ rho_a))
            assert np.allclose(asm.sigma[x][a], weight * rho_b, atol=1e-12)


def test_assemblage_from_singlet_anticorrelated():
    asm = assemblage_from(singlet(), mub_qubit_measurements(1), "A")
    assert np.allclose(asm.sigma[0][0], np.diag([0, 0.5]), atol=1e-12)
    assert np.allclose(asm.sigma[0][1], np.diag([0.5, 0]), atol=1e-12)


def test_assemblage_from_werner_computational():
    # diagonal conditional blocks with entries v/6 (matching index) and
    # v/12 + (1-v)/6 (mismatched), read off the projector decomposition
    v = 0.3
    comp = projective_from_unitaries([np.eye(3, dtype=complex)])
    asm = assemblage_from(werner(3, v), comp, "A")
    for a in range(3):
        sig = asm.sigma[0][a]
        assert np.max(np.abs(sig - np.diag(np.diag(sig)))) < 1e-12
        for b in range(3):
            expect = v / 6 if b == a else v / 12 + (1 - v) / 6
            assert sig[b, b].real == pytest.approx(expect, abs=1e-12)


def test_assemblage_validation_rejects_signaling():
    good = assemblage_from(singlet(), mub_qubit_measurements(2), "A")
    bad = list(list(s) for s in good.sigma)
    bad[0][0] = bad[0][0] + 0.1 * np.eye(2)
    with pytest.raises(ValueError):
        Assemblage(tuple(tuple(s) for s in bad))


def test_sr_separable_is_zero():
    rho = DensityMatrix(2, 2, np.diag([0.32, 0.18, 0.3, 0.2]).astype(complex))
    assert abs(steering_robustness(assemblage_from(rho, mub_qubit_measurements(2), "A"))) < 1e-6


def test_sr_singlet_two_mubs_pinned():
    res = sr_solve(assemblage_from(singlet(), mub_qubit_measurements(2), "A"), tol=1e-9)
    assert res.status == "OPTIMAL"
    assert res.gap <= 1e-8
    assert res.value == pytest.approx(SINGLET_2MUB_SR, abs=1e-8)
    # solution is stable when re-solved at another tolerance
    res2 = sr_solve(assemblage_from(singlet(), mub_qubit_measurements(2), "A"), tol=1e-10)
    assert abs(res2.value - res.value) < 1e-6
    # dual sanity: the returned steering functional reproduces the value
    total = sum(
        np.real(np.trace(res.duals[x][a] @ assemblage_from(singlet(), mub_qubit_measurements(2), "A").sigma[x][a]))
        for x in range(2)
        for a in range(2)
    )
    assert total - 1 == pytest.approx(res.value, abs=1e-7)


def test_sr_three_mubs_larger():
    res = sr_solve(assemblage_from(singlet(), mub_qubit_measurements(3), "A"), tol=1e-9)
    assert res.value == pytest.approx(2 - np.sqrt(3), abs=1e-7)
    assert res.value > SINGLET_2MUB_SR


def test_sr_convex_monotone():
    rng = np.random.default_rng(1)
    meas = mub_qubit_measurements(2)
    for seed in range(3):
        rho1 = noisy_surrogate(werner(2, 0.1), NoiseSpec(0.1, 0.05, seed))
        rho2 = noisy_surrogate(werner(2, 0.4), NoiseSpec(0.2, 0.05, seed + 50))
        a1 = assemblage_from(rho1, meas, "A")
        a2 = assemblage_from(rho2, meas, "A")
        lam = rng.uniform(0.2, 0.8)
        mix = Assemblage(
            tuple(
                tuple(lam * a1.sigma[x][a] + (1 - lam) * a2.sigma[x][a] for a in range(2))
                for x in range(2)
            )
        )
        sr_mix = steering_robustness(mix)
        bound = lam * steering_robustness(a1) + (1 - lam) * steering_robustness(a2)
        assert sr_mix <= bound + 2e-6


def test_sr_monotone_under_more_settings():
    a2 = assemblage_from(singlet(), mub_qubit_measurements(2), "A")
    a3 = assemblage_from(singlet(), mub_qubit_measurements(3), "A")
    assert steering_robustness(a3) >= steering_robustness(a2) - 1e-6


def test_sr_state_lower_bound_unsteerable_werner():
    # v = 0.3 exceeds v_steer = 2/9: projective see-saws must return zero
    for n_s in (2, 3):
        res = sr_state_lower_bound(werner(3, 0.3), n_s, restarts=4, seed=5)
        assert abs(res.best) < 2e-6
        assert max(res.per_restart) < 2e-6
    # two settings find nothing even deep in the steerable regime
    res = sr_state_lower_bound(werner(3, 0.1), 2, restarts=6, seed=7)
    assert abs(res.best) < 2e-6


def test_sr_state_lower_bound_filtered_beats_unfiltered():
    unf = sr_state_lower_bound(werner(3, 0.2), 3, restarts=3, seed=11, max_rounds=30)
    fil = sr_state_lower_bound(rotated_filtered_state(0.2), 3, restarts=3, seed=11, max_rounds=30)
    assert fil.best >= unf.best - 1e-6
    assert fil.best > 0.01
    assert len(fil.per_restart) == 3


def test_sr_lambda_budget():
    with pytest.raises(ValueError, match="lambda space"):
        sr_state_lower_bound(werner(3, 0.1), 8, restarts=1, seed=0)


def test_correlation_validation_and_singlet_chsh_angles():
    s2 = 1 / np.sqrt(2)
    a_dirs = [(0, 0, 1), (1, 0, 0)]
    b_dirs = [(-s2, 0, -s2), (s2, 0, -s2)]
    corr = correlation_from(singlet(), bloch_measurement(*a_dirs), bloch_measurement(*b_dirs))
    # E(x,y) = -a.b for the singlet: all four correlators sit at +-1/sqrt(2)
    for x, av in enumerate(a_dirs):
        for y, bv in enumerate(b_dirs):
            e = sum(
                corr.p[x, y, a, b] * (1 if a == b else -1) for a in range(2) for b in range(2)
            )
            assert e == pytest.approx(-np.dot(av, bv), abs=1e-12)
            assert abs(e) == pytest.approx(s2, abs=1e-12)
    assert bell_value(corr, chsh_coefficients()) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_correlation_werner_antisymmetric_exclusion():
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    meas = projective_from_unitaries([u])
    corr = correlation_from(werner(3, 0.0), meas, meas)
    for a in range(3):
        assert corr.p[0, 0, a, a] == pytest.approx(0.0, abs=1e-12)


def test_nonlocal_content_extremes():
    det = np.zeros((2, 2, 2, 2))
    det[:, :, 0, 0] = 1.0
    assert nonlocal_content(Correlation(det), tol=1e-9) <= 1e-8
    assert nonlocal_content(pr_box(), tol=1e-9) == pytest.approx(1.0, abs=1e-8)


def test_nonlocal_content_chsh_optimal_singlet_positive():
    s2 = 1 / np.sqrt(2)
    corr = correlation_from(
        singlet(),
        bloch_measurement((0, 0, 1), (1, 0, 0)),
        bloch_measurement((-s2, 0, -s2), (s2, 0, -s2)),
    )
    # the Tsirelson-point correlation has nonlocal content sqrt(2) - 1
    assert nonlocal_content(corr, tol=1e-9) == pytest.approx(np.sqrt(2) - 1, abs=1e-6)


def test_lhs_feasible_assemblage_gives_local_correlation():
    # cross-check between the SR SDP and the nonlocal-content LP
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        rho = werner(3, 0.3)
        meas_a = random_projective(3, 2, rng)
        meas_b = random_projective(3, 2, rng)
        assert steering_robustness(assemblage_from(rho, meas_a, "A")) < 2e-6
        corr = correlation_from(rho, meas_a, meas_b)
        assert nonlocal_content(corr, tol=1e-8) <= 1e-6


def test_two_extendible_states_have_local_two_setting_correlations():
    # every W(3)(v) is 2-extendible (v_t = 0), so 2-setting correlations are local
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        v = rng.uniform(0.0, 0.5)
        corr = correlation_from(werner(3, v), random_projective(3, 2, rng), random_projective(3, 2, rng))
        assert nonlocal_content(corr, tol=1e-8) <= 1e-6


def test_seesaw_chsh_singlet():
    val = seesaw_bell(singlet(), chsh_coefficients(), restarts=8, seed=0)
    assert val == pytest.approx(2 * np.sqrt(2), abs=1e-5)


def test_seesaw_matches_horodecki():
    from wernerlab.certify import chsh_horodecki

    for v in (0.0, 0.15):
        rho = rotated_filtered_state(v)
        exact = chsh_horodecki(rho).value
        found = seesaw_bell(rho, chsh_coefficients(), restarts=8, seed=1)
        assert found <= exact + 1e-5
        assert found == pytest.approx(exact, abs=1e-4)


def test_seesaw_separable_respects_local_bound():
    rho = DensityMatrix(2, 2, np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex))
    val = seesaw_bell(rho, chsh_coefficients(), restarts=4, seed=2)
    assert val <= 2.0 + 1e-6


def test_deterministic_strategies_lexicographic():
    strats = deterministic_strategies(2, 2)
    assert strats == ((0, 0), (0, 1), (1, 0), (1, 1))


@settings(max_examples=40, deadline=None)
@given(dims=DIMS, seed=SEEDS)
def test_assemblage_side_b_is_side_a_of_swapped_state(dims, seed):
    rho = random_state(*dims, seed)
    meas = random_projective(dims[1], 2, np.random.default_rng(seed))
    side_b = assemblage_from(rho, meas, "B")
    side_a = assemblage_from(swapped(rho), meas, "A")
    for row_b, row_a in zip(side_b.sigma, side_a.sigma):
        for sig_b, sig_a in zip(row_b, row_a):
            assert np.max(np.abs(sig_b - sig_a)) < 1e-14
    with pytest.raises(ValueError, match="dimension"):
        assemblage_from(rho, random_projective(4, 1, np.random.default_rng(seed)), "B")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(dims=DIMS, seed=SEEDS)
def test_sr_lower_bound_side_b_is_side_a_of_swapped_state(dims, seed):
    rho = random_state(*dims, seed)
    side_b = sr_state_lower_bound(rho, 2, restarts=2, seed=seed, steering_side="B", max_rounds=5)
    side_a = sr_state_lower_bound(swapped(rho), 2, restarts=2, seed=seed, steering_side="A", max_rounds=5)
    assert side_b.best == pytest.approx(side_a.best, abs=1e-9)
    assert side_b.per_restart == pytest.approx(side_a.per_restart, abs=1e-9)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=SEEDS, purity=st.floats(0.6, 1.0))
def test_seesaw_bell_with_swapped_sides(seed, purity):
    # an entangled two-qubit state and CHSH with its minus sign at (x, y) = (1, 0),
    # so the transposed table differs: B's see-saw steps now run as A's
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix(2, 2, purity * np.outer(psi, psi.conj()) + (1 - purity) * np.eye(4) / 4)
    table = chsh_coefficients()[:, ::-1]
    direct = seesaw_bell(rho, table, restarts=4, seed=seed)
    exchanged = seesaw_bell(swapped(rho), table.transpose(1, 0, 3, 2), restarts=4, seed=seed)
    assert exchanged == pytest.approx(direct, abs=1e-7)


def sr_program_by_loops(assemblage):
    """The steering-robustness program as the original per-entry loops built it."""
    n_s, n_o, d = assemblage.n_settings, assemblage.n_outcomes, assemblage.dim
    lambdas = deterministic_strategies(n_s, n_o)
    n_lam, k, n_cons_blocks = len(lambdas), d * d, n_s * n_o
    rows, cols, vals = [], [], []
    b = np.empty(n_cons_blocks * k)
    for x in range(n_s):
        for a in range(n_o):
            blk = x * n_o + a
            row0 = blk * k
            b[row0 : row0 + k] = vec_real(assemblage.sigma[x][a])
            for il, lam in enumerate(lambdas):
                if lam[x] != a:
                    continue
                for r in range(k):
                    rows.append(row0 + r)
                    cols.append(il * k + r)
                    vals.append(1.0)
            for r in range(k):
                rows.append(row0 + r)
                cols.append((n_lam + blk) * k + r)
                vals.append(-1.0)
    n_var = (n_lam + n_cons_blocks) * k
    c = np.zeros(n_var)
    for il in range(n_lam):
        c[il * k : il * k + d] = vec_real(np.eye(d))[:d]
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(b), n_var)), b, c


def nonlocal_program_by_loops(corr):
    """The nonlocal-content LP's constraint matrix and right-hand side as the original loops built them."""
    n_sa, n_sb, n_oa, n_ob = corr.scenario
    las = deterministic_strategies(n_sa, n_oa)
    mus = deterministic_strategies(n_sb, n_ob)
    n_q = len(las) * len(mus)
    n_r = n_sa * n_sb * n_oa * n_ob

    def r_index(x, y, a, bq):
        return n_q + ((x * n_sb + y) * n_oa + a) * n_ob + bq

    rows, cols, vals, b_vec = [], [], [], []

    def add(row, col, val):
        rows.append(row)
        cols.append(col)
        vals.append(val)

    for x, y, a, bq in np.ndindex(n_sa, n_sb, n_oa, n_ob):
        row = len(b_vec)
        for il, lam in enumerate(las):
            for im, mu in enumerate(mus):
                if lam[x] == a and mu[y] == bq:
                    add(row, il * len(mus) + im, 1.0)
        add(row, r_index(x, y, a, bq), 1.0)
        b_vec.append(corr.p[x, y, a, bq])
    for j in range(n_q):
        add(len(b_vec), j, 1.0)
    add(len(b_vec), n_q + n_r, 1.0)
    b_vec.append(1.0)
    for x, a, y in np.ndindex(n_sa, n_oa, n_sb):
        if y:
            for bq in range(n_ob):
                add(len(b_vec), r_index(x, y, a, bq), 1.0)
                add(len(b_vec), r_index(x, 0, a, bq), -1.0)
            b_vec.append(0.0)
    for y, bq, x in np.ndindex(n_sb, n_ob, n_sa):
        if x:
            for a in range(n_oa):
                add(len(b_vec), r_index(x, y, a, bq), 1.0)
                add(len(b_vec), r_index(0, y, a, bq), -1.0)
            b_vec.append(0.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(b_vec), n_q + n_r + 1)), np.asarray(b_vec)


def assert_same_csr(got, want):
    got, want = sp.csr_matrix(got), sp.csr_matrix(want)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize(
    "d, n_s, n_o",
    [(2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 2, 2), (2, 1, 2)],
)
def test_sr_program_matches_loop_reference(monkeypatch, d, n_s, n_o):
    rng = np.random.default_rng(10 * d + n_s)
    rho = random_state(d, d, 7 * n_s + n_o)
    meas = steer.random_grouped_projective(d, n_s, n_o, rng)
    asm = assemblage_from(rho, meas, "A")
    captured = []
    real_solve = steer.solve

    def capture(prog, **kwargs):
        captured.append(prog)
        return real_solve(prog, **kwargs)

    monkeypatch.setattr(steer, "solve", capture)
    sr_solve(asm)
    (prog,) = captured
    a_ref, b_ref, c_ref = sr_program_by_loops(asm)
    assert_same_csr(prog.A, a_ref)
    assert np.array_equal(prog.b, b_ref)
    assert np.array_equal(prog.c, c_ref)
    assert prog.blocks == tuple([Block("psd", d)] * ((n_o**n_s) + n_s * n_o))


@pytest.mark.parametrize(
    "scenario",
    [(2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 3), (2, 2, 3, 3), (1, 2, 2, 2)],
)
def test_nonlocal_content_program_matches_loop_reference(scenario):
    rng = np.random.default_rng(sum(scenario))
    n_sa, n_sb, n_oa, n_ob = scenario
    d = max(n_oa, n_ob)
    meas_a = steer.random_grouped_projective(d, n_sa, n_oa, rng)
    meas_b = steer.random_grouped_projective(d, n_sb, n_ob, rng)
    corr = correlation_from(random_state(d, d, sum(scenario)), meas_a, meas_b)
    prog = steer.nonlocal_content_program(corr)
    a_ref, b_ref = nonlocal_program_by_loops(corr)
    assert_same_csr(prog.A, a_ref)
    assert np.array_equal(prog.b, b_ref)
    c_ref = np.zeros(a_ref.shape[1])
    c_ref[-1] = 1.0
    assert np.array_equal(prog.c, c_ref)
    assert prog.blocks == (Block("nonneg", a_ref.shape[1]),)


def test_sr_lower_bound_ignores_unconverged_solves(monkeypatch):
    # every other SDP solve reports MAX_ITER with an inflated objective, which must never count
    real_solve = steer.solve
    calls = []

    def flaky(prog, **kwargs):
        sol = real_solve(prog, **kwargs)
        calls.append(sol.status)
        if len(calls) % 2 == 0:
            sol.status, sol.primal_obj = "MAX_ITER", sol.primal_obj + 10.0
        return sol

    monkeypatch.setattr(steer, "solve", flaky)
    res = sr_state_lower_bound(rotated_filtered_state(0.1), 2, restarts=4, seed=3, max_rounds=5)
    assert all(status == "OPTIMAL" for status in calls)
    assert res.per_restart and max(res.per_restart) < 1.0
    assert res.best == max(res.per_restart)
    assert res.best_gap < 1e-6

    def stuck(prog, **kwargs):
        sol = real_solve(prog, **kwargs)
        sol.status, sol.primal_obj = "MAX_ITER", sol.primal_obj + 10.0
        return sol

    monkeypatch.setattr(steer, "solve", stuck)
    res = sr_state_lower_bound(rotated_filtered_state(0.1), 2, restarts=3, seed=3)
    assert res.per_restart == [] and res.best == 0.0 and res.best_measurements is None


def correlation_by_loops(rho, meas_a, meas_b):
    """P(a,b|x,y) one kron and one trace per entry."""
    p = np.empty((meas_a.n_settings, meas_b.n_settings, meas_a.n_outcomes, meas_b.n_outcomes))
    for x, sa in enumerate(meas_a.effects):
        for y, sb in enumerate(meas_b.effects):
            for a, ma in enumerate(sa):
                for b, mb in enumerate(sb):
                    p[x, y, a, b] = float(np.real(np.trace(rho.mat @ kron(ma, mb))))
    return p


def bell_response_by_loops(rho, coefficients, other_meas, side):
    """G_{a|x} one partial contraction per (x, a)."""
    table = coefficients if side == "A" else coefficients.transpose(1, 0, 3, 2)
    effects = np.asarray(other_meas.effects)
    other = "B" if side == "A" else "A"
    return np.array(
        [
            [contract(rho, np.einsum("yb,ybij->ij", table[x, :, a], effects), other) for a in range(table.shape[2])]
            for x in range(table.shape[0])
        ]
    )


@pytest.mark.parametrize("d_a, d_b, n_oa, n_ob", [(2, 2, 2, 2), (3, 3, 3, 3), (3, 2, 2, 2), (2, 3, 2, 3), (3, 3, 2, 3)])
def test_bell_kernels_match_loop_reference(d_a, d_b, n_oa, n_ob):
    rng = np.random.default_rng(d_a * 10 + d_b + n_oa + n_ob)
    rho = random_state(d_a, d_b, 5 * d_a + d_b)
    meas_a = steer.random_grouped_projective(d_a, 2, n_oa, rng)
    meas_b = steer.random_grouped_projective(d_b, 3, n_ob, rng)
    p = correlation_from(rho, meas_a, meas_b).p
    assert p.shape == (2, 3, n_oa, n_ob)
    assert np.allclose(p, correlation_by_loops(rho, meas_a, meas_b), rtol=0, atol=1e-14)
    coefficients = rng.standard_normal((2, 3, n_oa, n_ob))
    for side, other_meas in (("A", meas_b), ("B", meas_a)):
        want = bell_response_by_loops(rho, coefficients, other_meas, side)
        got = np.asarray(steer._bell_response(rho, coefficients, other_meas, side))
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-14)
    # sum_ax tr(M_{a|x} G_{a|x}) is the Bell value
    response_a = steer._bell_response(rho, coefficients, meas_b, "A")
    value = sum(np.trace(meas_a.effects[x][a] @ response_a[x][a]).real for x in range(2) for a in range(n_oa))
    assert value == pytest.approx(bell_value(Correlation(p), coefficients), abs=1e-12)


def forced_max_iter(real_solve):
    def stuck(prog, **kwargs):
        sol = real_solve(prog, **kwargs)
        sol.status = "MAX_ITER"
        return sol

    return stuck


def test_steering_robustness_raises_on_unconverged_solve(monkeypatch):
    asm = assemblage_from(singlet(), mub_qubit_measurements(2), "A")
    assert steering_robustness(asm) == pytest.approx(SINGLET_2MUB_SR, abs=1e-6)
    monkeypatch.setattr(steer, "solve", forced_max_iter(steer.solve))
    with pytest.raises(RuntimeError, match="MAX_ITER"):
        steering_robustness(asm)
    assert sr_solve(asm).status == "MAX_ITER"  # the raw result still reports its status


def test_nonlocal_content_raises_on_unconverged_solve(monkeypatch):
    assert nonlocal_content(pr_box(), tol=1e-9) == pytest.approx(1.0, abs=1e-8)
    monkeypatch.setattr(steer, "solve", forced_max_iter(steer.solve))
    with pytest.raises(RuntimeError, match="MAX_ITER"):
        nonlocal_content(pr_box(), tol=1e-9)


def test_batched_validation_keeps_messages_and_order():
    eye = np.eye(2, dtype=complex)
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="one dimension"):
        MeasurementSet(((eye / 2, eye / 2), (np.eye(3) / 2, np.eye(3) / 2)))
    # the first failing setting decides which check reports
    with pytest.raises(ValueError, match="sum to the identity"):
        MeasurementSet(((eye * 0.4, eye * 0.4), (bad, eye - bad)))
    with pytest.raises(ValueError, match="PSD"):
        MeasurementSet(((bad, eye - bad), (eye * 0.4, eye * 0.4)))
    good = assemblage_from(singlet(), mub_qubit_measurements(2), "A")
    sigma = [list(s) for s in good.sigma]
    shift = np.diag([-0.1, 0.1]).astype(complex)  # moves weight between outcomes: marginals stay put
    with pytest.raises(ValueError, match="PSD"):
        Assemblage(((sigma[0][0] + shift, sigma[0][1] - shift), tuple(sigma[1])))
    with pytest.raises(ValueError, match="signals"):
        Assemblage((tuple(sigma[0]), (sigma[1][0] + shift, sigma[1][1] + shift)))
    with pytest.raises(ValueError, match="normalized"):
        Assemblage(tuple(tuple(2 * s for s in setting) for setting in sigma))
