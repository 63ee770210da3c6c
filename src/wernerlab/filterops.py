"""Single-copy local filtering: qubit projections, arbitrary rectangular
filters, the three-step SVD realization, and filtered-state closed forms.
Protocols replay on party A; B's replay on A of ``qmat.swap_parties(rho)``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import DensityMatrix, as_state, dagger, kron

NORM_TOL = 1e-10


@dataclass(frozen=True)
class FilterOperator:
    """Local filter M of shape d' x d with operator norm 1."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] < 2:
            raise ValueError("filter must be a d' x d matrix with d' >= 2")
        top = np.linalg.norm(m, 2)
        if abs(top - 1.0) > NORM_TOL:
            raise ValueError(f"largest singular value {top} must equal 1 within 1e-10")
        object.__setattr__(self, "mat", m)

    @staticmethod
    def identity(d: int) -> "FilterOperator":
        return FilterOperator(np.eye(d, dtype=complex))

    @property
    def dim_out(self) -> int:
        return self.mat.shape[0]

    @property
    def dim_in(self) -> int:
        return self.mat.shape[1]


def qubit_projection(d: int, keep: tuple[int, int]) -> FilterOperator:
    """Filter keeping the two local levels ``keep=(i, j)``: rows i, j of the identity."""
    i, j = keep
    if not 0 <= i < j < d:
        raise ValueError("keep indices must satisfy 0 <= i < j < d")
    m = np.zeros((2, d), dtype=complex)
    m[0, i] = 1.0
    m[1, j] = 1.0
    return FilterOperator(m)


def apply_filter(
    rho: DensityMatrix, f_a: FilterOperator, f_b: FilterOperator
) -> tuple[DensityMatrix, float]:
    """Apply M_A (x) M_B to a state; returns the normalized output and success probability."""
    if f_a.dim_in != rho.dimA or f_b.dim_in != rho.dimB:
        raise ValueError("filter input dimensions do not match the state")
    k = kron(f_a.mat, f_b.mat)
    out = k @ rho.mat @ dagger(k)
    prob = float(np.trace(out).real)
    if prob < 1e-12:
        raise ValueError("filter annihilates state (success probability below 1e-12)")
    return as_state(out / prob, f_a.dim_out, f_b.dim_out), prob


def filtered_weight(d: int, v: float) -> float:
    """Symmetric weight v' of the two-qubit Werner state left by a qubit projection."""
    if d < 2 or not 0.0 <= v <= 1.0:
        raise ValueError("need d >= 2 and v in [0, 1]")
    return 3.0 * (d - 1) * v / ((d + 1) * (1 - v) + 3.0 * (d - 1) * v)


def rotated_filtered_state(v: float) -> DensityMatrix:
    """Two-qubit state produced by qubit-filtering a two-qutrit Werner state and
    rotating with sigma_x (x) sigma_z.

    Closed form [4(1-v) P + 2v (I - P)] / N with N = 4(1-v) + 6v, where P
    projects onto the maximally entangled vector of the kept qubit pair.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError("v must lie in [0, 1]")
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    proj = np.outer(phi, phi.conj())
    n = 4.0 * (1 - v) + 6.0 * v
    mat = (4.0 * (1 - v) * proj + 2.0 * v * (np.eye(4) - proj)) / n
    return DensityMatrix(2, 2, mat)


@dataclass(frozen=True)
class FilterProtocol:
    """Three-step realization of a filter: V-dagger, attenuated projection, U."""

    pre_unitary: np.ndarray
    kept_indices: tuple[int, ...]
    attenuations: np.ndarray
    post_unitary: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        """The d_out x d_in middle step: row i keeps input level kept_indices[i], attenuated."""
        sigma = np.zeros((self.post_unitary.shape[0], self.pre_unitary.shape[0]), dtype=complex)
        sigma[np.arange(len(self.kept_indices)), list(self.kept_indices)] = self.attenuations
        return sigma

    def recompose(self) -> np.ndarray:
        return self.post_unitary @ self.sigma @ self.pre_unitary


def filter_protocol(f: FilterOperator) -> FilterProtocol:
    """Decompose a filter into its sequential unitary/attenuation/unitary steps."""
    if np.max(np.abs(f.mat)) == 0:
        raise ValueError("zero filter has no protocol")
    u, s, vdag = np.linalg.svd(f.mat, full_matrices=True)
    kept = tuple(i for i, si in enumerate(s) if si > 1e-12)
    return FilterProtocol(
        pre_unitary=vdag,
        kept_indices=kept,
        attenuations=s[list(kept)],
        post_unitary=u,
    )


def replay_protocol(rho: DensityMatrix, proto: FilterProtocol) -> tuple[DensityMatrix, float]:
    """Run the three protocol steps on party A of a state (B untouched)."""
    m = rho.mat
    for step in (proto.pre_unitary, proto.sigma, proto.post_unitary):
        big = kron(step, np.eye(rho.dimB))
        m = big @ m @ dagger(big)
    prob = float(np.trace(m).real)
    if prob < 1e-12:
        raise ValueError("protocol annihilates state")
    return as_state(m / prob, proto.post_unitary.shape[0], rho.dimB), prob
