"""Tests for single-copy local filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import filterops
from wernerlab.filterops import (
    FilterOperator,
    apply_filter,
    filter_protocol,
    filtered_weight,
    qubit_projection,
    replay_protocol,
    rotated_filtered_state,
)
from wernerlab.qmat import DensityMatrix, kron, swap_parties, uhlmann_fidelity
from wernerlab.states import antisym_projector, werner

from sequential_reference import random_state


def test_qubit_projection_rows():
    f = qubit_projection(3, (0, 1))
    assert np.allclose(f.mat, np.eye(3)[[0, 1], :])
    f = qubit_projection(3, (1, 2))
    assert np.allclose(f.mat, np.eye(3)[[1, 2], :])
    assert np.allclose(qubit_projection(2, (0, 1)).mat, np.eye(2))
    with pytest.raises(ValueError):
        qubit_projection(3, (1, 1))
    with pytest.raises(ValueError):
        qubit_projection(3, (0, 3))


def test_filter_operator_norm_check():
    with pytest.raises(ValueError):
        FilterOperator(np.eye(2) * 0.5)
    with pytest.raises(ValueError):
        FilterOperator(np.ones((1, 3)))


def test_identity_filter_is_noop():
    rho = random_state(3, 3, 0)
    out, prob = apply_filter(rho, FilterOperator.identity(3), FilterOperator.identity(3))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.mat, rho.mat, atol=1e-12)


def test_filtered_werner_closed_form():
    # qubit projection maps W(d)(v) onto the two-qubit Werner with weight v'
    for d in (3, 4, 5):
        for v in np.arange(0.0, 0.501, 0.05):
            out, _ = apply_filter(
                werner(d, v), qubit_projection(d, (0, 1)), qubit_projection(d, (0, 1))
            )
            ref = werner(2, filtered_weight(d, v)).mat
            assert np.max(np.abs(out.mat - ref)) < 1e-10
            assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-10)


def test_success_probability_antisymmetric():
    # only the (1,2) singlet block of Pi-/3 survives; its trace weight is 1/3
    pi = np.eye(3)[[1, 2], :]
    block = kron(pi, pi) @ (antisym_projector(3) / 3) @ kron(pi, pi).conj().T
    assert np.trace(block).real == pytest.approx(1 / 3, abs=1e-12)
    _, prob = apply_filter(
        werner(3, 0.0), qubit_projection(3, (1, 2)), qubit_projection(3, (1, 2))
    )
    assert prob == pytest.approx(1 / 3, abs=1e-12)


def test_filter_annihilation_raises():
    psi = np.zeros(9)
    psi[8] = 1.0  # |22>
    rho = DensityMatrix(3, 3, np.outer(psi, psi))
    with pytest.raises(ValueError, match="annihilates"):
        apply_filter(rho, qubit_projection(3, (0, 1)), qubit_projection(3, (0, 1)))


def test_filtered_weight_values():
    assert filtered_weight(3, 0.0) == 0.0
    assert filtered_weight(3, 0.2) == pytest.approx(1.2 / 4.4, abs=1e-12)
    assert filtered_weight(3, 0.5) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValueError):
        filtered_weight(3, 1.5)


def test_filtered_weight_monotone_and_dominant():
    for d in (2, 3, 4, 5, 6):
        grid = np.linspace(0.0, 1.0, 201)
        vals = [filtered_weight(d, v) for v in grid]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        if d == 2:
            assert np.allclose(vals, grid)
        else:
            assert all(fw >= v for fw, v in zip(vals, grid))


def test_rotated_filtered_state_extremes():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    proj = np.outer(phi, phi.conj())
    assert np.allclose(rotated_filtered_state(0.0).mat, proj, atol=1e-13)
    assert np.allclose(rotated_filtered_state(1.0).mat, (np.eye(4) - proj) / 3, atol=1e-13)


def test_rotated_filtered_state_matches_filter_chain():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    rot = kron(sx, sz)
    for v in (0.0, 0.15, 0.4, 0.8):
        out, _ = apply_filter(
            werner(3, v), qubit_projection(3, (1, 2)), qubit_projection(3, (1, 2))
        )
        rotated = rot @ out.mat @ rot.conj().T
        f = uhlmann_fidelity(rotated, rotated_filtered_state(v).mat)
        assert f == pytest.approx(1.0, abs=1e-10)


def test_protocol_of_row_selector():
    proto = filter_protocol(qubit_projection(3, (1, 2)))
    assert np.allclose(proto.attenuations, [1, 1], atol=1e-12)
    assert np.max(np.abs(proto.recompose() - qubit_projection(3, (1, 2)).mat)) < 1e-12
    # pre-unitary rows are the selected rows of the identity up to permutation/phase
    assert np.allclose(np.abs(proto.pre_unitary @ proto.pre_unitary.conj().T), np.eye(3), atol=1e-12)


def test_protocol_diagonal_attenuation():
    proto = filter_protocol(FilterOperator(np.diag([1.0, 0.5]).astype(complex)))
    assert np.allclose(sorted(proto.attenuations, reverse=True), [1.0, 0.5], atol=1e-12)
    assert np.max(np.abs(proto.recompose() - np.diag([1.0, 0.5]))) < 1e-12


def test_protocol_replay_matches_apply_filter():
    rng = np.random.default_rng(123)
    for trial in range(100):
        g = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        m = g / np.linalg.norm(g, 2)
        f = FilterOperator(m)
        rho = random_state(3, 3, 1000 + trial)
        direct, p_direct = apply_filter(rho, f, FilterOperator.identity(3))
        proto = filter_protocol(f)
        assert np.max(np.abs(proto.recompose() - m)) < 1e-12
        replayed, p_replay = replay_protocol(rho, proto)
        assert p_replay == pytest.approx(p_direct, abs=1e-12)
        assert np.max(np.abs(replayed.mat - direct.mat)) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d_out=st.integers(2, 4), d_in=st.integers(1, 4), rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_protocol_recomposes_rectangular_and_rank_deficient_filters(d_out, d_in, rank, seed):
    rank = min(rank, d_out, d_in)
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((d_out, rank)) + 1j * rng.standard_normal((d_out, rank))
    right = rng.standard_normal((rank, d_in)) + 1j * rng.standard_normal((rank, d_in))
    f = FilterOperator(left @ right / np.linalg.norm(left @ right, 2))
    proto = filter_protocol(f)
    assert len(proto.kept_indices) == rank
    assert np.max(np.abs(proto.recompose() - f.mat)) < 1e-12


def test_protocol_rejects_zero():
    zero_like = FilterOperator.identity(2)
    object.__setattr__(zero_like, "mat", np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        filter_protocol(zero_like)


@settings(max_examples=40, deadline=None)
@given(
    d_in=st.integers(2, 3),
    d_out=st.integers(2, 3),
    d_other=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_protocol_replay_on_side_b_matches_apply_filter(d_in, d_out, d_other, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    f = FilterOperator(g / np.linalg.norm(g, 2))
    rho = random_state(d_other, d_in, seed)
    direct, p_direct = apply_filter(rho, FilterOperator.identity(d_other), f)
    # B's protocol replays on A of the party-swapped state, swapped back after
    swapped, p_replay = replay_protocol(swap_parties(rho), filter_protocol(f))
    replayed = swap_parties(swapped)
    assert (replayed.dimA, replayed.dimB) == (d_other, d_out)
    assert p_replay == pytest.approx(p_direct, abs=1e-12)
    assert np.max(np.abs(replayed.mat - direct.mat)) < 1e-12


def test_cached_rotated_filtered_states_are_shared_and_read_only():
    rho = rotated_filtered_state(0.25)
    assert rotated_filtered_state(np.float64(0.25)) is rho
    with pytest.raises(ValueError, match="read-only"):
        rho.mat[0, 0] = 1.0
    with pytest.raises(ValueError, match="v must lie in"):
        rotated_filtered_state(float("nan"))
