"""Dense complex linear algebra and quantum-information primitives.

Everything operates on plain ``numpy`` complex arrays in the computational
product basis |i>|j| ordered i*dB + j.  Bipartite states are carried by
:class:`DensityMatrix`, which validates Hermiticity, unit trace and
positivity on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex dtype."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; leading axes are a stack of matrices."""
    return np.conj(m).swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


@dataclass(frozen=True)
class DensityMatrix:
    """Bipartite density matrix on C^dimA (x) C^dimB."""

    dimA: int
    dimB: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.dimA * self.dimB
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dims ({self.dimA},{self.dimB})")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite entries in density matrix")
        if not is_hermitian(m, HERM_TOL):
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1 by more than 1e-10")
        w = np.linalg.eigvalsh((m + dagger(m)) / 2)
        if w[0] < -PSD_TOL:
            raise ValueError(f"minimum eigenvalue {w[0]} below -1e-9")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.dimA * self.dimB


def as_state(mat: np.ndarray, dimA: int, dimB: int, clip_tol: float = 1e-8) -> DensityMatrix:
    """Project a nearly-valid matrix onto the state set and wrap it.

    Symmetrizes, clips eigenvalues in [-clip_tol, 0) to zero and renormalizes.
    Anything more negative than ``-clip_tol`` is a genuine error.
    """
    m = np.asarray(mat, dtype=complex)
    h = (m + dagger(m)) / 2
    w, q = np.linalg.eigh(h)
    if w[0] < -clip_tol:
        raise ValueError(f"matrix is not PSD within {clip_tol} (min eig {w[0]})")
    w = np.clip(w, 0.0, None)
    h = (q * w) @ dagger(q)
    h /= np.trace(h).real
    h = (h + dagger(h)) / 2
    return DensityMatrix(dimA, dimB, h)


def tensor(rho: DensityMatrix) -> np.ndarray:
    """rho as a (dA, dB, dA, dB) tensor: the one place the bipartite index layout is written."""
    return rho.mat.reshape(rho.dimA, rho.dimB, rho.dimA, rho.dimB)


def swapped(t: np.ndarray) -> np.ndarray:
    """:func:`swap_parties` of each :func:`tensor` of a (..., dA, dB, dA, dB) stack, as a strided view."""
    return t.swapaxes(-4, -3).swapaxes(-2, -1)


def partial_trace(rho: DensityMatrix) -> np.ndarray:
    """Trace out subsystem A: the reduced state of B.  A's is that of :func:`swap_parties` of rho."""
    return np.einsum("ijil->jl", tensor(rho))


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Partial transpose with respect to subsystem A; B's is that of :func:`swap_parties` of rho.

    Pure index permutation: applying it twice returns the input bit-for-bit.
    """
    return partial_transpose_dims(rho.mat, [rho.dimA, rho.dimB], [0])


def swap_parties(rho: DensityMatrix) -> DensityMatrix:
    """SWAP rho SWAP on C^dimB (x) C^dimA; a pure index permutation, so applying it twice returns rho bit-for-bit."""
    return DensityMatrix(rho.dimB, rho.dimA, swapped(tensor(rho)).reshape(rho.dim, rho.dim))


def partial_transpose_dims(mat: np.ndarray, dims: list[int], subsystems: list[int]) -> np.ndarray:
    """Transpose the listed subsystems of an operator on prod(dims)."""
    n = len(dims)
    if any(s < 0 or s >= n for s in subsystems):
        raise ValueError("subsystem index out of range")
    t = np.asarray(mat).reshape(dims + dims)
    perm = list(range(2 * n))
    for s in subsystems:
        perm[s], perm[s + n] = perm[s + n], perm[s]
    d = int(np.prod(dims))
    return np.transpose(t, perm).reshape(d, d).copy()


def von_neumann_entropy(rho: np.ndarray | DensityMatrix) -> float:
    """Von Neumann entropy in bits; eigenvalues below 1e-12 contribute zero."""
    m = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    w = np.linalg.eigvalsh((m + dagger(m)) / 2)
    if w[0] < -1e-8:
        raise ValueError(f"negative eigenvalue {w[0]} in entropy input")
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


def uhlmann_fidelity(rho: DensityMatrix | np.ndarray, sigma: DensityMatrix | np.ndarray) -> float:
    """Uhlmann-Jozsa fidelity [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2."""
    r = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    s = sigma.mat if isinstance(sigma, DensityMatrix) else np.asarray(sigma, dtype=complex)
    if r.shape != s.shape:
        raise ValueError("fidelity requires equal dimensions")

    def root(w):  # eigenvalues <= n * eps * max(w) of an n x n matrix are rounding, not spectrum: root 0
        return np.sqrt(np.where(w > len(w) * np.finfo(float).eps * w.max(), w, 0.0))

    w, q = np.linalg.eigh((r + dagger(r)) / 2)
    sq = (q * root(w)) @ dagger(q)
    inner = sq @ s @ sq
    ev = np.linalg.eigvalsh((inner + dagger(inner)) / 2)
    f = float(np.sum(root(ev)) ** 2)
    return min(max(f, 0.0), 1.0) if f < 1.0 + 1e-9 else f
