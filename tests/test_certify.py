"""Tests for the scalar certificate battery."""

import argparse
import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import certify, cli
from wernerlab.certify import (
    chsh_horodecki,
    correlation_matrix,
    dc_threshold,
    dense_coding_delta,
    fef,
    fef2_exact,
    fef_closed_form,
    fef_many,
    filtered_delta,
    gurvits_ball,
    one_distillable,
    one_distillable_closed_form,
    one_distillable_many,
    ppt_min_eig,
    werner_delta,
)
from wernerlab.filterops import apply_filter, filtered_weight, qubit_projection, rotated_filtered_state
from wernerlab.qmat import DensityMatrix, partial_transpose
from wernerlab.states import experiment_like_noise, grid_rows, haar_unitaries, noisy_surrogate, werner
from wernerlab.steer import chsh_coefficients, seesaw_bell_many
from sequential_reference import (
    assert_rows_bitwise_alone,
    fef_ascent_to_step_floor,
    fef_by_restarts,
    fef_embedding_check,
    haar_unitary,
    one_distillable_by_restarts,
    random_state,
    singlet,
)


def random_two_qubit(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityMatrix(2, 2, m / np.trace(m))


def test_ppt_werner_law():
    # min eig of W(3)(v)^T_A follows (2v-1)/3
    for v in np.arange(0.0, 0.51, 0.1):
        cert = ppt_min_eig(werner(3, v))
        assert cert.value == pytest.approx((2 * v - 1) / 3, abs=1e-12)
        assert cert.verdict == ("FAIL" if v < 0.5 else "INCONCLUSIVE")
    prod = DensityMatrix(2, 2, np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex))
    assert ppt_min_eig(prod).value >= -1e-12


def test_one_distillable_boundary():
    # closed form for the restricted minimum: (5v-2)/12 at d=3
    below = one_distillable(werner(3, 0.35), restarts=16, seed=1)
    assert below.value < -1e-4
    assert below.value == pytest.approx((5 * 0.35 - 2) / 12, abs=1e-7)
    assert below.verdict == "PASS"
    above = one_distillable(werner(3, 0.45), restarts=16, seed=1)
    assert above.value >= -1e-6
    assert above.verdict == "INCONCLUSIVE"


def test_one_distillable_singlet_and_rayleigh_bound():
    cert = one_distillable(singlet(), restarts=8, seed=3)
    assert cert.value == pytest.approx(-0.5, abs=1e-9)
    for seed in range(5):
        rho = random_two_qubit(100 + seed)
        c = one_distillable(rho, restarts=8, seed=seed)
        min_eig = np.linalg.eigvalsh(certify.partial_transpose(rho))[0]
        assert c.value >= min_eig - 1e-10


def test_gurvits_ball_cases():
    flat = DensityMatrix(3, 3, np.eye(9) / 9)
    cert = gurvits_ball(flat)
    assert cert.value == pytest.approx(0.0, abs=1e-14)
    assert cert.verdict == "PASS"
    # ideal qutrit Werner at the separability boundary sits exactly on the sphere
    cert = gurvits_ball(werner(3, 0.5))
    assert cert.value == pytest.approx(1 / 72, abs=1e-12)
    assert cert.threshold == pytest.approx(1 / 72, abs=1e-15)
    assert gurvits_ball(werner(3, 0.6)).verdict == "PASS"
    assert gurvits_ball(werner(3, 0.4)).verdict == "INCONCLUSIVE"
    # filtered two-qubit state at v=0.5 (weight 0.6) is inside the qubit ball
    cert = gurvits_ball(rotated_filtered_state(0.5))
    assert cert.value == pytest.approx(0.03, abs=1e-12)
    assert cert.threshold == pytest.approx(1 / 12)
    assert cert.verdict == "PASS"


def test_fef_singlet_and_workhorse_bounds():
    cert = fef(singlet(), restarts=8, seed=0)
    assert cert.value == pytest.approx(1.0, abs=1e-7)
    assert cert.verdict == "PASS"
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    ident_overlap = float(np.real(phi.conj() @ singlet().mat @ phi))
    assert cert.value >= ident_overlap


def test_fef_werner_never_useful():
    for v in np.arange(0.0, 1.001, 0.125):
        cert = fef(werner(3, v), restarts=8, seed=2)
        assert cert.value <= 1 / 3 + 1e-6
        assert cert.verdict == "INCONCLUSIVE"
        # multi-start should reach the known restricted maximum
        expect = max((4 - 3 * v) / 18, v / 6)
        assert cert.value == pytest.approx(expect, abs=1e-6)


def test_fef2_exact_cases():
    assert fef2_exact(singlet()) == pytest.approx(1.0, abs=1e-12)
    assert fef2_exact(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)
    # closed form: best Bell overlap of a Bell-diagonal state, max((1+3q')/4, (1-q')/4)
    for v in (0.0, 0.2, 0.4, 0.7):
        q_p = 1 - 4 * filtered_weight(3, v) / 3
        expect = max((1 + 3 * q_p) / 4, (1 - q_p) / 4)
        assert fef2_exact(rotated_filtered_state(v)) == pytest.approx(expect, abs=1e-12)
    assert fef2_exact(rotated_filtered_state(0.2)) == pytest.approx(8 / 11, abs=1e-12)
    with pytest.raises(ValueError):
        fef2_exact(np.eye(9) / 9)


def test_fef_matches_exact_oracle():
    for seed in range(100):
        rho = random_two_qubit(seed)
        approx = fef(rho, restarts=6, seed=seed).value
        exact = fef2_exact(rho)
        assert approx == pytest.approx(exact, abs=1e-6)
        assert approx <= np.linalg.eigvalsh(rho.mat)[-1] + 1e-9


def test_fef_boundary_crossing():
    # F2 of the rotated filtered state hits 1/2 exactly at v = 0.4
    assert fef2_exact(rotated_filtered_state(0.4)) == pytest.approx(0.5, abs=1e-9)
    assert fef2_exact(rotated_filtered_state(0.39)) > 0.5
    assert fef2_exact(rotated_filtered_state(0.41)) < 0.5


def test_fef_embedding_check():
    assert fef_embedding_check(singlet(), 3)
    assert fef_embedding_check(rotated_filtered_state(0.39), 3)
    assert fef_embedding_check(rotated_filtered_state(0.3), 5)
    with pytest.raises(ValueError):
        fef_embedding_check(rotated_filtered_state(0.45), 3)


def test_chsh_singlet():
    cert = chsh_horodecki(singlet())
    assert cert.value == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert cert.verdict == "PASS"
    assert np.allclose(correlation_matrix(singlet()), -np.eye(3), atol=1e-12)


def test_chsh_witness_planes_diagonalise_the_correlation_matrix():
    for rho in [rotated_filtered_state(0.1), *(random_two_qubit(s) for s in range(5))]:
        w = chsh_horodecki(rho).witness
        alice, bob, s = w["alice_plane"], w["bob_plane"], w["singular_values"]
        assert np.allclose(alice @ alice.T, np.eye(2), atol=1e-12) and np.allclose(bob @ bob.T, np.eye(2), atol=1e-12)
        assert np.allclose(alice @ correlation_matrix(rho) @ bob.T, np.diag(s[:2]), atol=1e-12)


def test_chsh_filtered_values():
    # T = q' diag(-+1): S = 2 sqrt(2) |q'|
    for v in (0.0, 0.15, 0.3):
        q_p = 1 - 4 * filtered_weight(3, v) / 3
        cert = chsh_horodecki(rotated_filtered_state(v))
        assert cert.value == pytest.approx(2 * np.sqrt(2) * abs(q_p), abs=1e-12)
    assert chsh_horodecki(rotated_filtered_state(0.15)).value == pytest.approx(2.0391, abs=1e-4)
    prod = DensityMatrix(2, 2, np.diag([1.0, 0, 0, 0]).astype(complex))
    assert chsh_horodecki(prod).verdict == "FAIL"


def test_chsh_violation_implies_fef_above_half():
    states = [rotated_filtered_state(v) for v in np.arange(0, 0.25, 0.05)]
    states += [random_two_qubit(s) for s in range(20)]
    for rho in states:
        if chsh_horodecki(rho).value > 2:
            assert fef2_exact(rho) > 0.5


def test_dense_coding_certificates():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell = DensityMatrix(2, 2, np.outer(phi, phi.conj()))
    cert = dense_coding_delta(bell)
    assert cert.value == pytest.approx(1.0, abs=1e-9)
    assert cert.verdict == "PASS"
    assert dense_coding_delta(rotated_filtered_state(0.05)).value > 0
    # delta of W(3)(v) never exceeds zero; it vanishes exactly at v = 0
    # (S(Pi-/3) = log2(3) = S(I_3/3)) and is strictly negative beyond
    for v in np.arange(0.0, 1.001, 0.05):
        cert = dense_coding_delta(werner(3, v))
        assert cert.value < 1e-12
        assert cert.verdict == "FAIL"
        if v >= 0.05:
            assert cert.value < -1e-3


def test_werner_delta_closed_form_matches_entropy_route():
    for d in (2, 3, 4):
        for v in (0.0, 0.3, 0.65, 1.0):
            direct = dense_coding_delta(werner(d, v)).value
            assert werner_delta(d, v) == pytest.approx(direct, abs=1e-9)
    assert werner_delta(2, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_filtered_delta_equals_two_qubit_delta():
    for d in (3, 5):
        pi = qubit_projection(d, (0, 1))
        for v in (0.05, 0.2, 0.45):
            assert filtered_delta(d, v) == pytest.approx(werner_delta(2, filtered_weight(d, v)), abs=1e-12)
            # and the entropy route on the state that the qubit projection leaves
            filtered, _ = apply_filter(werner(d, v), pi, pi)
            assert filtered_delta(d, v) == pytest.approx(dense_coding_delta(filtered).value, abs=1e-9)


def test_dc_threshold_values():
    t2 = dc_threshold(2, 1e-6)
    assert filtered_delta(2, 0.18) > 0 > filtered_delta(2, 0.20)
    assert 0.18 < t2 < 0.20
    t3 = dc_threshold(3, 1e-6)
    assert 0.13 <= t3 <= 0.14
    # decreasing in d, heading to the large-d asymptote
    prev = t2
    for d in range(3, 17):
        cur = dc_threshold(d, 1e-6)
        assert cur < prev
        prev = cur
    assert dc_threshold(10**6, 1e-7) == pytest.approx(0.0722088, abs=1e-4)
    for d in (1, 0):  # d = 1 gave 2.98e-8 with a RuntimeWarning, d = 0 a ZeroDivisionError
        with pytest.raises(ValueError, match="need d >= 2"):
            dc_threshold(d)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_dc_threshold_rejects_a_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        dc_threshold(3, tol)


@pytest.mark.parametrize("tol", [1e-20, 5e-324])
def test_dc_threshold_below_the_float_spacing_stops_at_adjacent_floats(tol):
    # the bracket lo < hi shrinks to adjacent floats, where no midpoint lies strictly between
    root = dc_threshold(3, tol)
    below, above = np.nextafter(root, 0.0), np.nextafter(root, 1.0)
    assert filtered_delta(3, below) > 0 >= filtered_delta(3, above)
    assert abs(root - dc_threshold(3, 1e-7)) < 1e-7


# certificates that depend on the state only up to local unitaries U (x) V, per local dimension
LU_INVARIANTS = {
    3: {
        "ppt_min_eig": lambda rho: ppt_min_eig(rho).value,
        "gurvits_ball": lambda rho: gurvits_ball(rho).value,
        "dense_coding_delta": lambda rho: dense_coding_delta(rho).value,
    },
    2: {
        "chsh_horodecki": lambda rho: chsh_horodecki(rho).value,
        "fef2_exact": fef2_exact,
        # both searches are exact on two qubits, though their restarts are drawn in a fixed basis
        "fef": lambda rho: fef(rho).value,
        "one_distillable": lambda rho: one_distillable(rho).value,
    },
}


@settings(max_examples=25, deadline=None)
@given(rank=st.integers(1, 9), state_seed=st.integers(0, 2**32 - 1), unitary_seed=st.integers(0, 2**32 - 1))
def test_certificates_are_local_unitary_invariant(rank, state_seed, unitary_seed):
    for d, invariants in LU_INVARIANTS.items():
        rng, shape = np.random.default_rng(state_seed), (d * d, min(rank, d * d))
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = g @ g.conj().T
        rho = DensityMatrix(d, d, m / np.trace(m).real)
        u, v = haar_unitaries(np.random.default_rng(unitary_seed).standard_normal((2, 2, d, d)))
        w = np.kron(u, v)
        moved = DensityMatrix(d, d, w @ rho.mat @ w.conj().T)
        for name, value in invariants.items():
            assert value(moved) == pytest.approx(value(rho), rel=0, abs=1e-10), name


LOCKSTEP_STATES = {
    "werner-0": lambda: werner(3, 0.0),
    "werner-0.35": lambda: werner(3, 0.35),
    "werner-0.45": lambda: werner(3, 0.45),
    "filtered-0.1": lambda: rotated_filtered_state(0.1),
    "random-3x3": lambda: random_state(3, 3, 11),
    "random-2x2": lambda: random_two_qubit(12),
}


@pytest.mark.parametrize("state", LOCKSTEP_STATES.values(), ids=LOCKSTEP_STATES.keys())
def test_fef_matches_sequential_reference(state):
    rho = state()
    seed, restarts = 2024, 16
    want = fef_by_restarts(rho, restarts, seed)
    _, _, (draws,) = grid_rows([rho], [seed], restarts, lambda rho: rho.mat, [(1, 0)])
    starts = draws[:, 0]
    # the ascent reaches one optimum from most starts, so the starts themselves are checked
    for r in range(1, restarts):
        want_start = haar_unitary(rho.dimA, np.random.default_rng(seed ^ r))
        assert np.allclose(starts[r], want_start, rtol=0, atol=1e-12), r
    starts[0] = np.eye(rho.dimA)  # restart 0 starts from the identity
    assert np.allclose(certify._fef_ascent(rho.mat, starts)[0], want, rtol=0, atol=1e-12)
    cert = fef(rho, restarts=restarts, seed=seed)
    assert cert.value == pytest.approx(max(want), rel=0, abs=1e-12)
    assert_rows_bitwise_alone(lambda u: certify._fef_ascent(rho.mat, u), (starts,))


def assert_no_gain_exit_keeps_every_bit(rhos, seeds, restarts):
    """fef_many gives each state the same f and U, bit for bit, as with the ascent that halves a
    dead step down to 1e-12."""
    got = fef_many(rhos, seeds, restarts=restarts)
    with mock.patch.object(certify, "_fef_ascent", fef_ascent_to_step_floor):
        want = fef_many(rhos, seeds, restarts=restarts)
    for a, b in zip(got, want):
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
        assert a.witness["unitary"].tobytes() == b.witness["unitary"].tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fef_no_gain_exit_keeps_the_sweep_grid_bits(seed):
    # the fef task of `sweep --d 3` at its default v-grid and restarts, at CLI seed `seed`
    args = argparse.Namespace(d=3, v_grid=cli.parse_grid("0:0.05:0.5"), noisy=False)
    seeds, rhos = cli._grid_states(args, cli.derive_seed(seed, "fef"))
    assert_no_gain_exit_keeps_every_bit(rhos, seeds, restarts=16)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rank=st.integers(1, 9),
    v=st.floats(0.0, 1.0),
    mix=st.floats(0.0, 1.0),
    restarts=st.integers(1, 8),
)
def test_fef_no_gain_exit_keeps_the_bits_of_random_states(seed, rank, v, mix, restarts):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((9, rank)) + 1j * rng.standard_normal((9, rank))
    m = g @ g.conj().T
    rho = DensityMatrix(3, 3, mix * werner(3, v).mat + (1 - mix) * m / np.trace(m).real)
    assert_no_gain_exit_keeps_every_bit([rho, werner(3, v)], [seed, seed + 1], restarts)


@pytest.mark.parametrize(
    "state", [*LOCKSTEP_STATES.values(), lambda: random_state(2, 3, 13), lambda: random_state(3, 2, 14)],
    ids=[*LOCKSTEP_STATES.keys(), "random-2x3", "random-3x2"],
)
def test_one_distillable_matches_sequential_reference(state):
    rho = state()
    seed, restarts = 2024, 16
    want = one_distillable_by_restarts(rho, restarts, seed)
    _, _, (ua, ub) = grid_rows([rho], [seed], restarts, lambda rho: rho.mat, [(1, 0), (1, 1)])
    # the descent reaches one optimum from most starts, so the starts themselves are checked
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        assert np.allclose(ua[r, 0], haar_unitary(rho.dimA, rng), rtol=0, atol=1e-12), r
        assert np.allclose(ub[r, 0], haar_unitary(rho.dimB, rng), rtol=0, atol=1e-12), r
    frames = ua[:, 0, :, :2], ub[:, 0, :, :2]
    x = partial_transpose(rho)
    assert np.allclose(certify._distill_descent(x, *frames)[0], want, rtol=0, atol=1e-12)
    cert = one_distillable(rho, restarts=restarts, seed=seed)
    assert cert.value == pytest.approx(min(want), rel=0, abs=1e-12)
    # the witness attains the value
    psi = cert.witness["psi"]
    assert np.vdot(psi, x @ psi).real == pytest.approx(cert.value, abs=1e-12)
    assert_rows_bitwise_alone(lambda va, vb: certify._distill_descent(x, va, vb), frames)


GRID_STATES = {2024: lambda: werner(3, 0.0), 7: lambda: werner(3, 0.35), 99: lambda: random_state(3, 3, 11)}


@pytest.mark.parametrize(
    "many, solo, reference, best",
    [
        (fef_many, fef, fef_by_restarts, max),
        (one_distillable_many, one_distillable, one_distillable_by_restarts, min),
    ],
    ids=["fef", "one_distillable"],
)
def test_grid_search_gives_each_state_its_solo_certificate(many, solo, reference, best):
    seeds, rhos, restarts = list(GRID_STATES), [state() for state in GRID_STATES.values()], 6
    certs = many(rhos, seeds, restarts=restarts)
    assert len(certs) == len(rhos)
    for cert, rho, seed in zip(certs, rhos, seeds):
        alone = solo(rho, restarts=restarts, seed=seed)
        for field in dataclasses.fields(cert):
            got, want = getattr(cert, field.name), getattr(alone, field.name)
            if field.name == "witness":
                assert got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in got)
            else:
                assert got == want, field.name
        assert (cert.seed, cert.restarts) == (seed, restarts)
        assert cert.value == pytest.approx(best(reference(rho, restarts, seed)), rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "many",
    [
        fef_many,
        one_distillable_many,
        lambda rhos, seeds, **kwargs: seesaw_bell_many(rhos, chsh_coefficients(), seeds, **kwargs),
    ],
    ids=["fef", "one_distillable", "seesaw_bell"],
)
def test_grid_search_rejects_mixed_dimensions_and_empty_lists(many):
    with pytest.raises(ValueError, match="share their dimensions"):
        many([werner(3, 0.1), werner(2, 0.1)], [1, 2])
    with pytest.raises(ValueError, match="no states"):
        many([], [])
    with pytest.raises(ValueError, match="2 states need as many seeds, got 1"):
        many([werner(3, 0.1), werner(3, 0.2)], [1])
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        many([werner(3, 0.1), werner(3, 0.2)], [1, 2], restarts=0)


@pytest.mark.parametrize(
    "check",
    [lambda: fef(werner(3, 0.1), restarts=0), lambda: one_distillable(werner(3, 0.1), restarts=0)],
    ids=["fef", "one_distillable"],
)
def test_certificate_searches_reject_zero_restarts(check):
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        check()


WERNER_GRID = [round(0.05 * i, 12) for i in range(21)]  # 0:0.05:1


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "closed_form, many", [(fef_closed_form, fef_many), (one_distillable_closed_form, one_distillable_many)],
    ids=["fef", "one_distillable"],
)
def test_closed_forms_match_the_searches_on_werner_states(d, closed_form, many):
    rhos = [werner(d, v) for v in WERNER_GRID]
    found = many(rhos, list(range(len(rhos))), restarts=64)
    for v, rho, search in zip(WERNER_GRID, rhos, found):
        exact = closed_form(rho)
        assert exact.value == pytest.approx(search.value, rel=0, abs=1e-9), v
        assert (exact.name, exact.threshold, exact.verdict) == (search.name, search.threshold, search.verdict), v


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_form_witnesses_attain_their_values(d):
    phi = np.eye(d).ravel() / np.sqrt(d)
    for v in WERNER_GRID:
        rho = werner(d, v)
        cert = fef_closed_form(rho)
        u = cert.witness["unitary"]
        assert np.allclose(u @ u.conj().T, np.eye(d), rtol=0, atol=1e-15)
        psi = np.kron(np.eye(d), u) @ phi  # (I x U)|Phi+>
        assert np.vdot(psi, rho.mat @ psi).real == pytest.approx(cert.value, rel=0, abs=1e-15), v
        cert = one_distillable_closed_form(rho)
        psi = cert.witness["psi"]
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=0, abs=1e-15)
        assert np.linalg.matrix_rank(psi.reshape(d, d)) <= 2
        assert np.vdot(psi, partial_transpose(rho) @ psi).real == pytest.approx(cert.value, rel=0, abs=1e-15), v


@pytest.mark.parametrize(
    "rho",
    [
        noisy_surrogate(werner(3, 0.2), experiment_like_noise(0.2, seed=5)),
        random_state(3, 3, 11),
        rotated_filtered_state(0.1),  # two-qubit isotropic, not Werner
    ],
    ids=["noisy", "random", "isotropic"],
)
def test_closed_forms_answer_werner_inputs_only(rho):
    assert fef_closed_form(rho) is None
    assert one_distillable_closed_form(rho) is None


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_form_distillability_crosses_zero_at_the_boundary(d):
    cert = one_distillable_closed_form(werner(d, (d + 1) / (4 * d - 2)))
    assert abs(cert.value) <= 1e-15
    assert cert.verdict == "INCONCLUSIVE"
    assert one_distillable_closed_form(werner(d, 0.99 * (d + 1) / (4 * d - 2))).verdict == "PASS"


def test_closed_form_fef_of_qutrit_werner_states_stays_below_one_third():
    # paper criterion 06: without filtering no two-qutrit Werner state is useful for teleportation
    for v in np.linspace(0.0, 1.0, 101):
        cert = fef_closed_form(werner(3, v))
        assert cert.value < 1 / 3 and cert.verdict == "INCONCLUSIVE"
        assert cert.value == pytest.approx(max((4 - 3 * v) / 18, v / 6), rel=0, abs=1e-15)


def random_anti_hermitian(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (g - g.conj().swapaxes(-1, -2)) / 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_skew_expm_is_unitary_and_matches_expm(d):
    rng = np.random.default_rng(d)
    omega = random_anti_hermitian(rng, (8, d, d))
    omega[0] = 0.0
    # a degenerate spectrum: i * omega = V diag(1, 1, ..., -2) V^dag
    v = scipy.stats.unitary_group.rvs(d, random_state=d)
    w = np.ones(d)
    w[-1] = -2.0
    omega[1] = -1j * (v * w) @ v.conj().T
    omega[2] = 3.0j * np.eye(d)
    steps = np.concatenate([[1.0, 0.5, 1.3], rng.uniform(1e-12, 2.0, size=5)])
    got = certify._skew_expm(*np.linalg.eigh(1j * omega), steps)
    want = np.array([scipy.linalg.expm(s * om) for s, om in zip(steps, omega)])
    assert np.allclose(got, want, rtol=0, atol=1e-13)
    eye = np.broadcast_to(np.eye(d), got.shape)
    assert np.allclose(got @ got.conj().swapaxes(-1, -2), eye, rtol=0, atol=1e-13)
    assert np.allclose(got.conj().swapaxes(-1, -2) @ got, eye, rtol=0, atol=1e-13)
    assert np.array_equal(got[0], np.eye(d))  # Omega = 0 gives the identity exactly
