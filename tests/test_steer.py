"""Tests for assemblages, steering robustness, correlations and nonlocal content."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import qmat, solver, states, steer
from wernerlab.filterops import rotated_filtered_state
from wernerlab.qmat import DensityMatrix, kron, swap_parties
from wernerlab.solver import Block, vec_real
from wernerlab.states import NoiseSpec, grid_rows, noisy_surrogate, werner
from wernerlab.steer import (
    Assemblage,
    Correlation,
    MeasurementSet,
    assemblage_from,
    chsh_coefficients,
    correlation_from,
    deterministic_strategies,
    mub_qubit_measurements,
    nonlocal_content,
    projective_from_unitaries,
    random_projective,
    seesaw_bell,
    seesaw_bell_many,
    sr_closed_form,
    sr_solve,
    sr_state_lower_bound,
    steering_robustness,
)

from sequential_reference import (
    assert_rows_bitwise_alone,
    bell_value,
    contract,
    random_state,
    seesaw_bell_by_restarts,
    singlet,
    sr_program_csr,
)

SINGLET_2MUB_SR = 3 - 2 * np.sqrt(2)  # proven optimal; see decisions ledger


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
    asm = assemblage_from(rho, meas)
    for x in range(2):
        for a in range(2):
            weight = np.real(np.trace(meas.effects[x][a] @ rho_a))
            assert np.allclose(asm.sigma[x][a], weight * rho_b, atol=1e-12)


def test_assemblage_from_singlet_anticorrelated():
    asm = assemblage_from(singlet(), mub_qubit_measurements(1))
    assert np.allclose(asm.sigma[0][0], np.diag([0, 0.5]), atol=1e-12)
    assert np.allclose(asm.sigma[0][1], np.diag([0.5, 0]), atol=1e-12)


def test_assemblage_from_werner_computational():
    # diagonal conditional blocks with entries v/6 (matching index) and
    # v/12 + (1-v)/6 (mismatched), read off the projector decomposition
    v = 0.3
    comp = projective_from_unitaries([np.eye(3, dtype=complex)])
    asm = assemblage_from(werner(3, v), comp)
    for a in range(3):
        sig = asm.sigma[0][a]
        assert np.max(np.abs(sig - np.diag(np.diag(sig)))) < 1e-12
        for b in range(3):
            expect = v / 6 if b == a else v / 12 + (1 - v) / 6
            assert sig[b, b].real == pytest.approx(expect, abs=1e-12)


def test_assemblage_validation_rejects_signaling():
    good = assemblage_from(singlet(), mub_qubit_measurements(2))
    bad = list(list(s) for s in good.sigma)
    bad[0][0] = bad[0][0] + 0.1 * np.eye(2)
    with pytest.raises(ValueError):
        Assemblage(tuple(tuple(s) for s in bad))


def test_sr_separable_is_zero():
    rho = DensityMatrix(2, 2, np.diag([0.32, 0.18, 0.3, 0.2]).astype(complex))
    assert abs(steering_robustness(assemblage_from(rho, mub_qubit_measurements(2)))) < 1e-6


def test_sr_singlet_two_mubs_pinned():
    res = sr_solve(assemblage_from(singlet(), mub_qubit_measurements(2)), tol=1e-9)
    assert res.status == "OPTIMAL"
    assert res.gap <= 1e-8
    assert res.value == pytest.approx(SINGLET_2MUB_SR, abs=1e-8)
    # solution is stable when re-solved at another tolerance
    res2 = sr_solve(assemblage_from(singlet(), mub_qubit_measurements(2)), tol=1e-10)
    assert abs(res2.value - res.value) < 1e-6
    # dual sanity: the returned steering functional reproduces the value
    total = sum(
        np.real(np.trace(res.duals[x][a] @ assemblage_from(singlet(), mub_qubit_measurements(2)).sigma[x][a]))
        for x in range(2)
        for a in range(2)
    )
    assert total - 1 == pytest.approx(res.value, abs=1e-7)


def test_sr_three_mubs_larger():
    res = sr_solve(assemblage_from(singlet(), mub_qubit_measurements(3)), tol=1e-9)
    assert res.value == pytest.approx(2 - np.sqrt(3), abs=1e-7)
    assert res.value > SINGLET_2MUB_SR


def test_sr_convex_monotone():
    rng = np.random.default_rng(1)
    meas = mub_qubit_measurements(2)
    for seed in range(3):
        rho1 = noisy_surrogate(werner(2, 0.1), NoiseSpec(0.1, 0.05, seed))
        rho2 = noisy_surrogate(werner(2, 0.4), NoiseSpec(0.2, 0.05, seed + 50))
        a1 = assemblage_from(rho1, meas)
        a2 = assemblage_from(rho2, meas)
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
    a2 = assemblage_from(singlet(), mub_qubit_measurements(2))
    a3 = assemblage_from(singlet(), mub_qubit_measurements(3))
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


def test_sr_state_lower_bound_best_comes_from_its_witness():
    # this run has rounds that gain less than 1e-7 and are rejected; the bound must stay
    # the value of the kept measurements, not of the rejected ones
    rho = werner(3, 0.1)
    res = sr_state_lower_bound(rho, 2, restarts=16, seed=6772338406072145443, max_rounds=30)
    again = sr_solve(assemblage_from(rho, res.best_measurements))
    assert again.value == pytest.approx(res.best, rel=0, abs=1e-10)


def test_sr_state_lower_bound_rejects_negative_rounds_before_any_draw_or_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("drew or solved before the check")

    monkeypatch.setattr(states, "haar_restarts", forbidden)
    monkeypatch.setattr(solver.Family, "solve_many", forbidden)
    with pytest.raises(ValueError, match="max_rounds must be at least 0, got -3"):
        sr_state_lower_bound(werner(3, 0.1), 2, restarts=2, max_rounds=-3)


def test_sr_lambda_budget():
    with pytest.raises(ValueError, match="lambda space"):
        sr_state_lower_bound(werner(3, 0.1), 8, restarts=1, seed=0)


V_GRID = [round(0.05 * i, 2) for i in range(7)]  # 0:0.05:0.3


@pytest.mark.parametrize("n_s", [2, 3])
@pytest.mark.parametrize("v", V_GRID)
def test_sr_closed_form_is_the_mub_sdp_optimum(n_s, v):
    rho = rotated_filtered_state(v)
    exact = sr_closed_form(rho, n_s).best
    res = sr_solve(assemblage_from(rho, mub_qubit_measurements(n_s)), tol=1e-10)
    assert res.status == "OPTIMAL"
    assert exact == pytest.approx(res.value, abs=1e-9)


def test_sr_closed_form_keeps_the_singlet_pin():
    assert sr_closed_form(rotated_filtered_state(0.0), 2).best == pytest.approx(SINGLET_2MUB_SR, rel=0, abs=1e-12)
    assert sr_closed_form(rotated_filtered_state(0.0), 3).best == pytest.approx(2 - np.sqrt(3), rel=0, abs=1e-12)


def test_sr_closed_form_answers_only_its_two_cases():
    assert sr_closed_form(werner(3, 0.1), 2).best == 0.0  # t*_SE(3, 2) = 1 - 3v/2 <= 1 for every v
    assert sr_closed_form(werner(3, 0.2), 3).best == 0.0  # t*_SE(3, 3) = 4/3 - 2v <= 1 from v = 1/6
    assert sr_closed_form(werner(3, 0.1), 3) is None
    assert sr_closed_form(rotated_filtered_state(0.1), 4) is None  # no closed form past three MUBs
    assert sr_closed_form(noisy_surrogate(rotated_filtered_state(0.1), NoiseSpec(0.05, 0.02, 3)), 2) is None
    phi = states.max_entangled_ket(3)
    iso3 = DensityMatrix(3, 3, 0.8 * np.outer(phi, phi.conj()) + 0.2 * np.eye(9) / 9)
    assert sr_closed_form(iso3, 2) is None  # isotropic, but not two qubits
    for n in (0, -1):  # rejected before the input is classified, as the see-saw rejects them
        with pytest.raises(ValueError, match=f"^n_settings must be at least 1, got {n}$"):
            sr_closed_form(werner(3, 0.1), n)


@pytest.mark.parametrize("n_s", [2, 3])
@pytest.mark.parametrize("filtered, v", [(1, v) for v in V_GRID] + [(0, 0.2), (0, 0.3)])
def test_sr_closed_form_returns_the_see_saws_result_with_its_witness(filtered, v, n_s):
    rho = rotated_filtered_state(v) if filtered else werner(3, v)
    res = sr_closed_form(rho, n_s)
    assert isinstance(res, steer.SRLowerBound)
    assert res.per_restart == [] and res.best_gap == 0.0
    assert (res.best_measurements is None) == (res.best == 0.0)
    if res.best_measurements is not None:  # the witness's own SR is the value
        sol = sr_solve(assemblage_from(rho, res.best_measurements), tol=1e-10)
        assert sol.status == "OPTIMAL"
        assert sol.value == pytest.approx(res.best, rel=0, abs=1e-8)


@pytest.mark.parametrize("v", [0.0, 0.1, 0.2])
@pytest.mark.parametrize("n_s", [2, 3])
def test_see_saw_stays_below_the_filtered_closed_form(v, n_s):
    rho = rotated_filtered_state(v)
    res = sr_state_lower_bound(rho, n_s, restarts=3, seed=11, max_rounds=30)
    assert res.best <= sr_closed_form(rho, n_s).best + 1e-7


@pytest.mark.parametrize("n_s, v", [(2, 0.0), (2, 0.1), (2, 0.3), (3, 0.2), (3, 0.3)])
def test_see_saw_finds_nothing_where_the_werner_closed_form_is_zero(n_s, v):
    rho = werner(3, v)
    assert sr_closed_form(rho, n_s).best == 0.0
    res = sr_state_lower_bound(rho, n_s, restarts=3, seed=5, max_rounds=30)
    assert res.best <= 2e-6


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
        assert steering_robustness(assemblage_from(rho, meas_a)) < 2e-6
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
    # B measured: the one-effect contraction over B of the unswapped state is the reference
    rho = random_state(*dims, seed)
    meas = random_projective(dims[1], 2, np.random.default_rng(seed))
    side_a = assemblage_from(swap_parties(rho), meas)
    side_b = [[contract(rho, effect, "B") for effect in setting] for setting in meas.effects]
    assert np.max(np.abs(side_a.sigma - np.array(side_b))) < 1e-14


@settings(max_examples=8, deadline=None, derandomize=True)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), seed=SEEDS)
def test_sr_lower_bound_side_b_is_side_a_of_swapped_state(dims, seed):
    # the bound for B measured is the SR of what its best measurements leave on A, contracted over B
    rho = noisy_pure_state(*dims, seed, 0.9)
    res = sr_state_lower_bound(swap_parties(rho), 2, restarts=2, seed=seed, max_rounds=5)
    if res.best_measurements is None:
        assert res.best == 0.0
    else:
        effects = res.best_measurements.effects
        side_b = Assemblage([[contract(rho, effect, "B") for effect in setting] for setting in effects])
        assert sr_solve(side_b).value == pytest.approx(res.best, abs=1e-9)


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
    exchanged = seesaw_bell(swap_parties(rho), table.transpose(1, 0, 3, 2), restarts=4, seed=seed)
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
def test_sr_program_matches_loop_reference(d, n_s, n_o):
    rng = np.random.default_rng(10 * d + n_s)
    rho = random_state(d, d, 7 * n_s + n_o)
    meas = steer.random_grouped_projective(d, n_s, n_o, rng)
    asm = assemblage_from(rho, meas)
    blocks, c, a_map = steer._sr_program(n_s, n_o, d)
    a_ref, b_ref, c_ref = sr_program_by_loops(asm)
    # A's columns are its products with the unit vectors; every entry is 0 or +-1, so they are exact
    assert np.array_equal(a_map.dot(np.eye(a_ref.shape[1])).T, a_ref.toarray())
    assert np.array_equal(vec_real(asm.sigma).ravel(), b_ref)
    assert np.array_equal(c, c_ref)
    assert blocks == tuple([Block("psd", d)] * ((n_o**n_s) + n_s * n_o))


@pytest.mark.parametrize("n_s, n_o, d", [(2, 2, 2), (2, 3, 3), (3, 3, 3), (3, 2, 3)])
def test_sr_map_matches_csr_reference(n_s, n_o, d):
    # the structured products A x, A^T y and the Gram matrix I + A A^T against the CSR matrix
    blocks, c, a_map = steer._sr_program(n_s, n_o, d)
    ref_blocks, ref_c, a_ref = sr_program_csr(n_s, n_o, d)
    assert blocks == ref_blocks and np.array_equal(c, ref_c) and a_map.shape == a_ref.shape
    rng = np.random.default_rng(n_s * 100 + n_o * 10 + d)
    x = rng.standard_normal((5, a_ref.shape[1]))
    y = rng.standard_normal((5, a_ref.shape[0]))

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    assert close(a_map.dot(x), (a_ref @ x.T).T)
    assert close(a_map.tdot(y), (a_ref.T @ y.T).T)
    gram, k = a_map.gram()
    eye = np.eye(a_ref.shape[0])
    assert close(np.kron(gram, np.eye(k)) + eye, (a_ref @ a_ref.T).toarray() + eye)
    # the family's inverse of I + A A^T, on the same stack
    family = solver.Family(blocks, c, a_map)
    assert np.array_equal(family.e_col, np.ones(a_ref.shape[1]))
    want = np.linalg.solve((a_ref @ a_ref.T).toarray() + eye, y.T).T
    assert close(family.g_inv.dot(y), want)


@pytest.mark.parametrize("n_s, d", [(2, 3), (3, 2)])
def test_sr_family_rows_bitwise_alone(n_s, d):
    # every row of a stacked SR solve, exits included, is the row solved as a stack of one
    rng = np.random.default_rng(n_s)
    family = solver.Family(*steer._sr_program(n_s, d, d))
    b = np.stack(
        [
            vec_real(assemblage_from(werner(d, v), steer.random_projective(d, n_s, rng)).sigma).ravel()
            for v in rng.uniform(0.0, 0.5, 6)
        ]
    )

    def run(rows):
        sols = family.solve_many(rows)
        return (
            [sol.x for sol in sols],
            [sol.y for sol in sols],
            [np.array([sol.primal_obj, sol.dual_obj, sol.gap, sol.iterations]) for sol in sols],
            [sol.status for sol in sols],
        )

    assert_rows_bitwise_alone(run, (b,))
    assert len({sol.iterations for sol in family.solve_many(b)}) > 1


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
    # every other SDP solve reports MAX_ITER with an inflated objective, which must never count;
    # the see-saw solves each round in one Family.solve_many call, so the failures are injected per program
    real_solve_many = solver.Family.solve_many
    calls = []

    def flaky(family, b, **kwargs):
        sols = real_solve_many(family, b, **kwargs)
        for sol in sols:
            calls.append(sol.status)
            if len(calls) % 2 == 0:
                sol.status, sol.primal_obj = "MAX_ITER", sol.primal_obj + 10.0
        return sols

    monkeypatch.setattr(solver.Family, "solve_many", flaky)
    res = sr_state_lower_bound(rotated_filtered_state(0.1), 2, restarts=4, seed=3, max_rounds=5)
    assert len(calls) >= 4  # every restart's first solve went through the injection
    assert all(status == "OPTIMAL" for status in calls)
    assert res.per_restart and max(res.per_restart) < 1.0
    assert res.best == max(res.per_restart)
    assert res.best_gap < 1e-6

    def stuck(family, b, **kwargs):
        sols = real_solve_many(family, b, **kwargs)
        for sol in sols:
            sol.status, sol.primal_obj = "MAX_ITER", sol.primal_obj + 10.0
        return sols

    monkeypatch.setattr(solver.Family, "solve_many", stuck)
    res = sr_state_lower_bound(rotated_filtered_state(0.1), 2, restarts=3, seed=3)
    assert res.per_restart == [] and res.best == 0.0 and res.best_measurements is None


def test_sr_lower_bound_builds_one_family(monkeypatch):
    # the SDP set-up is factored once per call, however many restarts and rounds solve on it
    real_init, families = solver.Family.__init__, []

    def spy(family, *args):
        families.append(family)
        real_init(family, *args)

    monkeypatch.setattr(solver.Family, "__init__", spy)
    res = sr_state_lower_bound(rotated_filtered_state(0.1), 2, restarts=4, seed=3, max_rounds=5)
    assert len(families) == 1 and len(res.per_restart) == 4


def single_restart_runs(rho, restarts, seed, **kwargs):
    """sr_state_lower_bound run once per restart r, on its own, at seed ^ r."""
    return [sr_state_lower_bound(rho, 2, restarts=1, seed=seed ^ r, **kwargs) for r in range(restarts)]


def assert_bitwise(got, want):
    assert len(got) == len(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def noisy_pure_state(d_a, d_b, seed, purity):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    psi /= np.linalg.norm(psi)
    return DensityMatrix(d_a, d_b, purity * np.outer(psi, psi.conj()) + (1 - purity) * np.eye(d_a * d_b) / (d_a * d_b))


@pytest.mark.parametrize(
    "state, max_rounds",
    [
        (lambda: rotated_filtered_state(0.1), 30),
        (lambda: swap_parties(rotated_filtered_state(0.1)), 1),
        (lambda: swap_parties(noisy_pure_state(2, 3, 4, 0.8)), 5),
        (lambda: noisy_pure_state(3, 2, 4, 0.8), 5),
    ],
    ids=["filtered-A", "filtered-B-one-round", "pure-2x3-B", "pure-3x2-A"],
)
def test_lockstep_seesaw_matches_single_restarts(state, max_rounds):
    # restart r of a lockstep run gives, bit for bit, the value it gives run alone at seed ^ r;
    # the -B cases measure B, as A of the party-swapped state
    rho = state()
    seed, restarts = 12345, 4
    res = sr_state_lower_bound(rho, 2, restarts=restarts, seed=seed, max_rounds=max_rounds)
    singles = single_restart_runs(rho, restarts, seed, max_rounds=max_rounds)
    assert_bitwise(res.per_restart, [v for single in singles for v in single.per_restart])
    assert res.best == max(res.per_restart) > 0.01
    # the first restart with the best value supplies the measurements and the gap
    first = next(single for single in singles if single.per_restart == [res.best])
    assert res.best_gap == first.best_gap
    assert np.array_equal(res.best_measurements.effects, first.best_measurements.effects)
    if max_rounds == 1:
        # the cut-off binds: some restart was still improving after its first round
        longer = sr_state_lower_bound(rho, 2, restarts=restarts, seed=seed, max_rounds=30)
        assert any(b > a for a, b in zip(res.per_restart, longer.per_restart))


def test_lockstep_seesaw_drops_a_restart_whose_first_solve_fails(monkeypatch):
    rho = rotated_filtered_state(0.1)
    seed, restarts = 21, 5
    singles = single_restart_runs(rho, restarts, seed, max_rounds=10)
    real_solve_many = solver.Family.solve_many
    widths = []

    def first_solve_of_restart_2_fails(family, b, **kwargs):
        sols = real_solve_many(family, b, **kwargs)
        if not widths:
            sols[2].status, sols[2].primal_obj = "MAX_ITER", sols[2].primal_obj + 10.0
        widths.append(len(b))
        return sols

    monkeypatch.setattr(solver.Family, "solve_many", first_solve_of_restart_2_fails)
    res = sr_state_lower_bound(rho, 2, restarts=restarts, seed=seed, max_rounds=10)
    assert widths[0] == restarts and widths[1] == restarts - 1
    assert_bitwise(res.per_restart, [v for r, single in enumerate(singles) if r != 2 for v in single.per_restart])


def update_measurements_by_loops(effects, response):
    """One restart's measurement update, one setting, one effect and one outcome pair at a time."""
    new_settings = []
    for setting, resp in zip(effects, response):
        old_val = sum(float(np.real(np.trace(e @ g))) for e, g in zip(setting, resp))
        m = np.column_stack([np.linalg.eigh(e)[1][:, -1] for e in setting])
        for _ in range(3):
            for a in range(len(setting)):
                for ap in range(a + 1, len(setting)):
                    span = np.column_stack([m[:, a], m[:, ap]])
                    diff = span.conj().T @ (resp[a] - resp[ap]) @ span
                    q = np.linalg.eigh((diff + diff.conj().T) / 2)[1][:, ::-1]
                    m[:, a], m[:, ap] = (span @ q).T
        cand = [np.outer(m[:, a], m[:, a].conj()) for a in range(len(setting))]
        new_val = sum(float(np.real(np.trace(e @ g))) for e, g in zip(cand, resp))
        new_settings.append(cand if new_val >= old_val - 1e-12 else list(setting))
    return np.array(new_settings)


def tensor_measured_on(rho, side):
    """rho's tensor with ``side`` first: side B is contracted as A of the swapped tensor."""
    r = qmat.tensor(rho)
    return r if side == "A" else qmat.swapped(r)


@pytest.mark.parametrize("d_a, d_b, side", [(3, 3, "A"), (2, 3, "B"), (3, 2, "A"), (3, 2, "B")])
def test_seesaw_kernels_match_loop_reference(d_a, d_b, side):
    # the see-saw's stacked contraction and measurement update against one call per effect
    rng = np.random.default_rng(d_a + 3 * d_b)
    rho = random_state(d_a, d_b, 17 * d_a + d_b)
    d = d_a if side == "A" else d_b
    other = "B" if side == "A" else "A"
    effects = np.array([random_projective(d, 2, rng).effects for _ in range(3)])
    sigma = qmat.contract(tensor_measured_on(rho, side), effects)
    want = [[[contract(rho, e, side) for e in setting] for setting in restart] for restart in effects]
    assert np.allclose(sigma, want, rtol=0, atol=1e-14)
    # duals F_{a|x} on the unmeasured side: any Hermitian operators
    g = rng.standard_normal(sigma.shape) + 1j * rng.standard_normal(sigma.shape)
    duals = g + g.conj().swapaxes(-1, -2)
    response = qmat.contract(tensor_measured_on(rho, other), duals)
    want = [[[contract(rho, f, other) for f in row] for row in restart] for restart in duals]
    assert np.allclose(response, want, rtol=0, atol=1e-14)
    got = steer._update_measurements(effects, response)
    for restart in range(3):
        assert np.allclose(got[restart], update_measurements_by_loops(effects[restart], response[restart]), rtol=0, atol=1e-12)
    assert not np.allclose(got, effects)  # some setting moved


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
    effects = other_meas.effects
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
    for side, other_meas, table in (
        ("A", meas_b, coefficients),
        ("B", meas_a, coefficients.transpose(1, 0, 3, 2)),
    ):
        want = bell_response_by_loops(rho, coefficients, other_meas, side)
        got = steer._bell_response(tensor_measured_on(rho, side), table, other_meas.effects)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-14)
    # sum_ax tr(M_{a|x} G_{a|x}) is the Bell value
    response_a = steer._bell_response(qmat.tensor(rho), coefficients, meas_b.effects)
    value = sum(np.trace(meas_a.effects[x, a] @ response_a[x, a]).real for x in range(2) for a in range(n_oa))
    assert value == pytest.approx(bell_value(Correlation(p), coefficients), abs=1e-12)


def forced_max_iter(real_solve):
    def stuck(prog, **kwargs):
        sol = real_solve(prog, **kwargs)
        sol.status = "MAX_ITER"
        return sol

    return stuck


def test_steering_robustness_raises_on_unconverged_solve(monkeypatch):
    asm = assemblage_from(singlet(), mub_qubit_measurements(2))
    assert steering_robustness(asm) == pytest.approx(SINGLET_2MUB_SR, abs=1e-6)
    real_solve_many = solver.Family.solve_many

    def stuck(family, b, **kwargs):
        sols = real_solve_many(family, b, **kwargs)
        for sol in sols:
            sol.status = "MAX_ITER"
        return sols

    monkeypatch.setattr(solver.Family, "solve_many", stuck)
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
    good = assemblage_from(singlet(), mub_qubit_measurements(2))
    sigma = [list(s) for s in good.sigma]
    shift = np.diag([-0.1, 0.1]).astype(complex)  # moves weight between outcomes: marginals stay put
    with pytest.raises(ValueError, match="PSD"):
        Assemblage(((sigma[0][0] + shift, sigma[0][1] - shift), tuple(sigma[1])))
    with pytest.raises(ValueError, match="signals"):
        Assemblage((tuple(sigma[0]), (sigma[1][0] + shift, sigma[1][1] + shift)))
    with pytest.raises(ValueError, match="normalized"):
        Assemblage(tuple(tuple(2 * s for s in setting) for setting in sigma))


def test_nested_sequences_stack_into_the_array_form():
    meas = mub_qubit_measurements(3)
    nested = MeasurementSet(tuple(tuple(e for e in setting) for setting in meas.effects))
    assert nested.effects.shape == (3, 2, 2, 2) and nested.effects.dtype == complex
    assert np.array_equal(nested.effects, meas.effects)
    asm = assemblage_from(singlet(), meas)
    nested = Assemblage(tuple(tuple(s for s in setting) for setting in asm.sigma))
    assert np.array_equal(nested.sigma, asm.sigma) and nested.sigma.dtype == complex
    assert (nested.n_settings, nested.n_outcomes, nested.dim) == (meas.n_settings, meas.n_outcomes, meas.dim) == (3, 2, 2)
    res = sr_solve(asm)
    assert res.duals.shape == (3, 2, 2, 2) and res.duals.dtype == complex
    # real entries stack as complex; an effect that is not square cannot share the dimension
    assert MeasurementSet(np.real(meas.effects[:2])).effects.dtype == complex
    with pytest.raises(ValueError, match="one dimension"):
        MeasurementSet(np.zeros((1, 2, 2, 3)))


BELL_CASES = {
    # (state, coefficient table): CHSH with either sign pattern, then random tables with
    # two and three outcomes and unequal setting counts
    "filtered-0.1-chsh": (lambda: rotated_filtered_state(0.1), lambda: chsh_coefficients()),
    "pure-2x2-flipped": (lambda: noisy_pure_state(2, 2, 3, 0.9), lambda: chsh_coefficients()[:, ::-1]),
    "random-2x3": (lambda: random_state(2, 3, 5), lambda: np.random.default_rng(1).standard_normal((2, 3, 2, 3))),
    "pure-3x2-three-outcomes": (
        lambda: noisy_pure_state(3, 2, 4, 0.8),
        lambda: np.random.default_rng(2).standard_normal((2, 2, 3, 2)),
    ),
    "werner-0.1": (lambda: werner(3, 0.1), lambda: np.random.default_rng(3).standard_normal((3, 2, 2, 3))),
}


@pytest.mark.parametrize("state, table", BELL_CASES.values(), ids=BELL_CASES.keys())
def test_seesaw_bell_matches_sequential_reference(state, table):
    rho, coefficients = state(), table()
    seed, restarts = 4321, 16
    for rho_side, table_side in ((rho, coefficients), (swap_parties(rho), coefficients.transpose(1, 0, 3, 2))):
        want = seesaw_bell_by_restarts(rho_side, table_side, restarts, seed)
        n_sa, n_sb, n_oa, n_ob = table_side.shape
        _, _, (ua, ub) = grid_rows([rho_side], [seed], restarts, qmat.tensor, [(n_sa, 0), (n_sb, 1)])
        starts = steer._effects_from_unitaries(ua, n_oa), steer._effects_from_unitaries(ub, n_ob)
        rows = steer._seesaw_bell_rows(qmat.tensor(rho_side), table_side, *starts)
        assert np.allclose(rows, want, rtol=0, atol=1e-12)
        best = seesaw_bell(rho_side, table_side, restarts=restarts, seed=seed)
        assert best == pytest.approx(max(want), rel=0, abs=1e-12)
        for r in range(restarts):
            alone = steer._seesaw_bell_rows(qmat.tensor(rho_side), table_side, *(s[r : r + 1] for s in starts))
            assert alone.tobytes() == rows[r : r + 1].tobytes()


@pytest.mark.parametrize("state, table", BELL_CASES.values(), ids=BELL_CASES.keys())
def test_seesaw_bell_grid_gives_each_state_its_solo_value(state, table):
    coefficients = table()
    base = state()
    # three states of one bipartition: the case's state, a mixture with white noise and a random one
    noisy = DensityMatrix(base.dimA, base.dimB, 0.7 * base.mat + 0.3 * np.eye(base.dim) / base.dim)
    rhos, seeds, restarts = [base, noisy, random_state(base.dimA, base.dimB, 21)], [4321, 5, 77], 6
    values = seesaw_bell_many(rhos, coefficients, seeds, restarts=restarts)
    for value, rho, seed in zip(values, rhos, seeds):
        alone = seesaw_bell(rho, coefficients, restarts=restarts, seed=seed)
        assert np.float64(value).tobytes() == np.float64(alone).tobytes()
        assert value == pytest.approx(max(seesaw_bell_by_restarts(rho, coefficients, restarts, seed)), rel=0, abs=1e-12)


def test_stacked_effect_check_matches_measurement_set():
    rng = np.random.default_rng(8)
    stack = np.array([steer.random_grouped_projective(3, 2, 2, rng).effects for _ in range(4)])
    steer._check_effects(stack)
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    not_psd, not_normalised = stack.copy(), stack.copy()
    not_psd[2, 1] = [bad, np.eye(3) - bad]
    not_normalised[1, 0, 1] *= 0.5
    for broken, message in ((not_psd, "PSD"), (not_normalised, "sum to the identity")):
        with pytest.raises(ValueError, match=message):
            steer._check_effects(broken)
        row = 2 if broken is not_psd else 1
        with pytest.raises(ValueError, match=message):
            MeasurementSet(broken[row])
    # the first failing setting in row order decides, as within one MeasurementSet
    both = not_psd.copy()
    both[1] = not_normalised[1]
    with pytest.raises(ValueError, match="sum to the identity"):
        steer._check_effects(both)


def test_seesaw_bell_checks_each_half_step_in_one_call(monkeypatch):
    real_check = steer._check_effects
    widths = []

    def counting(effects):
        widths.append(effects.shape[0])
        real_check(effects)

    monkeypatch.setattr(steer, "_check_effects", counting)
    seesaw_bell(rotated_filtered_state(0.1), chsh_coefficients(), restarts=6, seed=9)
    assert widths[:3] == [6, 6, 6]  # both sides' draws, then A's first half-step
    assert widths == sorted(widths, reverse=True)  # rows only ever leave

    def broken_update(response):
        effects = real_two_outcome(response)
        effects[-1, 0, 0] = np.diag([1.5, -0.5]).astype(complex)
        return effects

    real_two_outcome = steer._exact_two_outcome_update
    monkeypatch.setattr(steer, "_exact_two_outcome_update", broken_update)
    with pytest.raises(ValueError, match="PSD"):
        seesaw_bell(rotated_filtered_state(0.1), chsh_coefficients(), restarts=3, seed=9)


@pytest.mark.parametrize(
    "search",
    [
        lambda: seesaw_bell(rotated_filtered_state(0.1), chsh_coefficients(), restarts=0),
        lambda: sr_state_lower_bound(rotated_filtered_state(0.1), 2, restarts=0),
    ],
    ids=["seesaw_bell", "sr_state_lower_bound"],
)
def test_see_saws_reject_zero_restarts(search):
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        search()


@pytest.mark.parametrize("d,o", [(4, 3), (3, 4), (5, 3), (5, 4)])
def test_seesaw_bell_rejects_outcome_counts_besides_two_and_the_dimension(d, o):
    table = np.random.default_rng(0).standard_normal((2, 2, o, o))
    with pytest.raises(ValueError, match=f"side A has {o} outcomes in dimension {d}"):
        seesaw_bell(werner(d, 0.1), table, restarts=2, seed=1)
    with pytest.raises(ValueError, match=f"side B has {o} outcomes in dimension {d}"):
        seesaw_bell(werner(d, 0.1), table[:, :, :2], restarts=2, seed=1)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_seesaw_bell_runs_with_two_or_dimension_many_outcomes(d):
    for o_a, o_b in ((2, 2), (d, d), (2, d), (d, 2)):
        table = np.random.default_rng(d).standard_normal((2, 2, o_a, o_b))
        value = seesaw_bell(werner(d, 0.1), table, restarts=2, seed=1)
        assert np.isfinite(value) and abs(value) <= np.abs(table).sum()


# eigenvalues of a qubit block: exact zeros and, unrotated, r = 0 blocks come up often
QUBIT_EIGENVALUE = st.one_of(st.just(0.0), st.sampled_from([-1.0, 0.5, 2.0]), st.floats(-4, 4))


def qubit_stack(blocks, sign):
    """H = U diag(w) U^dag for each (w0, w1, rotate, seed) of ``blocks``, with U = I when ``rotate``
    is false, so that zero eigenvalues and equal ones (r = 0) stay exact; ``sign`` +1 or -1 makes
    every eigenvalue at least 1/4 away from 0 on that side."""
    out = []
    for w0, w1, rotate, seed in blocks:
        w = np.array([w0, w1]) if sign == 0 else sign * (np.abs([w0, w1]) + 0.25)
        u = states.haar_unitaries(np.random.default_rng(seed).standard_normal((2, 2, 2))) if rotate else np.eye(2)
        h = (u * w) @ u.conj().T
        out.append((h + h.conj().T) / 2)
    return np.array(out)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(QUBIT_EIGENVALUE, QUBIT_EIGENVALUE, st.booleans(), SEEDS), min_size=1, max_size=6),
    st.sampled_from([0, 1, -1]),
)
def test_qubit_closed_forms_match_eigh(blocks, sign):
    h = qubit_stack(blocks, sign)
    w, q = np.linalg.eigh(h)
    m, r = steer._qubit_spectrum(h)
    assert np.allclose(np.stack([m - r, m + r], axis=-1), w, rtol=0, atol=1e-12)
    assert np.allclose(steer._min_eigenvalues(h), np.linalg.eigvalsh(h)[:, 0], rtol=0, atol=1e-12)
    # the positive-part projector of H = G_0 - G_1, from a (x, a, 2, 2) response per block
    pos, neg = steer._exact_two_outcome_update(np.stack([h, np.zeros_like(h)], axis=1)[:, None]).swapaxes(0, 2)[:, 0]
    assert np.array_equal(pos + neg, np.broadcast_to(np.eye(2), pos.shape))
    if sign:  # definite stacks give I or 0 exactly
        assert np.array_equal(pos, np.broadcast_to(np.eye(2) * (sign > 0), pos.shape))
    clear = np.all(np.abs(w) > 1e-9, axis=-1)  # a zero eigenvalue may go either way
    want = (q * (w > 0)[..., None, :]) @ q.conj().swapaxes(-1, -2)
    assert np.allclose(pos[clear], want[clear], rtol=0, atol=1e-12)
    # wherever it goes, the projector attains the positive part's value
    assert np.allclose(np.trace(pos @ h, axis1=-2, axis2=-1).real, np.clip(w, 0, None).sum(axis=-1), rtol=0, atol=1e-12)
    assert np.allclose(pos @ pos, pos, rtol=0, atol=1e-12)


def test_qubit_min_eigenvalue_takes_the_hermitian_part():
    ops = np.array([[[1.0, 2.0], [0.0, -1.0]], [[0.0, 1j], [0.0, 0.0]]])
    want = np.linalg.eigvalsh((ops + ops.conj().swapaxes(-1, -2)) / 2)[:, 0]
    assert np.allclose(steer._min_eigenvalues(ops), want, rtol=0, atol=1e-15)


def correlations_by_einsum(r, effects_a, effects_b):
    """The one-call three-operand einsum of P(a,b|x,y) = sum rho[(i,j),(k,l)] M_a[k,i] M_b[l,j]."""
    return np.einsum("...ijkl,...xaki,...yblj->...xyab", r, effects_a, effects_b).real


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 3), (2, 3)])
def test_correlations_match_the_einsum_reference(d_a, d_b):
    rng = np.random.default_rng(10 * d_a + d_b)
    rhos = [random_state(d_a, d_b, seed) for seed in range(3)]
    effects_a = np.array([steer.random_grouped_projective(d_a, 2, 2, rng).effects for _ in rhos])
    effects_b = np.array([random_projective(d_b, 3, rng).effects for _ in rhos])
    stack = np.stack([qmat.tensor(rho) for rho in rhos])
    got = qmat.correlations(stack, effects_a, effects_b)
    assert got.shape == (3, 2, 3, 2, d_b)
    assert np.allclose(got, correlations_by_einsum(stack, effects_a, effects_b), rtol=0, atol=1e-14)
    # one state broadcast against every row's effects, as the see-saw passes it
    one = qmat.tensor(rhos[0])
    got = qmat.correlations(np.broadcast_to(one, stack.shape), effects_a, effects_b)
    assert np.allclose(got, correlations_by_einsum(one, effects_a, effects_b), rtol=0, atol=1e-14)
    assert np.allclose(qmat.correlations(one, effects_a, effects_b), got, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "table",
    [chsh_coefficients()[0], np.where(chsh_coefficients() > 0, np.nan, -1.0), np.full((2, 2, 2, 2), np.inf)],
    ids=["3-D", "nan", "inf"],
)
def test_seesaw_bell_rejects_a_malformed_coefficient_table(table):
    with pytest.raises(ValueError, match=r"coefficient table must be a finite \(x, y, a, b\) array"):
        seesaw_bell_many([rotated_filtered_state(0.1)], table, [1], restarts=2)


def test_seesaw_bell_names_two_outcomes_for_qubits():
    table = np.zeros((2, 2, 3, 2))
    with pytest.raises(ValueError, match="side A has 3 outcomes in dimension 2; the see-saw needs 2$"):
        seesaw_bell(rotated_filtered_state(0.1), table, restarts=2, seed=1)
