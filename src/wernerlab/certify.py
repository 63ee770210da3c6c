"""Scalar certificates on a given state.

Each check returns a :class:`Certificate` carrying the raw value, the decision
threshold and a verdict.  Verdict semantics, per certificate:

* ``ppt``            FAIL = separability refuted (entangled); else INCONCLUSIVE.
* ``one_distillable``  PASS = 1-distillability certified; else INCONCLUSIVE
  (a heuristic search that finds nothing proves nothing).
* ``gurvits_ball``   PASS = separability certified; else INCONCLUSIVE.
* ``fef``            PASS = useful for teleportation (F_d > 1/d); else INCONCLUSIVE.
* ``chsh``           PASS = CHSH violation (exact for two qubits); FAIL = none possible.
* ``dense_coding``   PASS = dense-codable (delta > 0); FAIL = not (delta is exact).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import qmat
from .filterops import filtered_weight
from .qmat import DensityMatrix, dagger, kron, partial_trace, partial_transpose
from .states import haar_unitary, max_entangled_ket

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Certificate:
    name: str
    value: float
    threshold: float
    verdict: str
    witness: dict | None = None
    seed: int | None = None
    restarts: int | None = None

    def to_json(self) -> str:
        obj = {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.restarts is not None:
            obj["restarts"] = self.restarts
        return json.dumps(obj)


def _mat_witness(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


def ppt_min_eig(rho: DensityMatrix) -> Certificate:
    """Minimum eigenvalue of the partial transpose; negative certifies entanglement."""
    value = float(np.linalg.eigvalsh(partial_transpose(rho, "A"))[0])
    verdict = FAIL if value < -1e-9 else INCONCLUSIVE
    return Certificate("ppt", value, 0.0, verdict)


def _schmidt_frames(psi_block: np.ndarray, rank: int = 2):
    """Left/right orthonormal frames of a (rank x n) coefficient matrix."""
    u, s, vdag = np.linalg.svd(psi_block, full_matrices=False)
    return u[:, :rank], dagger(vdag)[:, :rank], s


def one_distillable(rho: DensityMatrix, restarts: int = 64, seed: int = 0) -> Certificate:
    """Best (lowest) <psi| rho^T_A |psi> over Schmidt-rank-2 vectors psi.

    Alternating eigen-steps: with one side's two-dimensional frame fixed, the
    optimal psi is the bottom eigenvector of the compressed operator, which
    also yields the updated frame for the other side.
    """
    d_a, d_b = rho.dimA, rho.dimB
    x = partial_transpose(rho, "A")
    best_val = np.inf
    best_psi = None
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r if r else seed)
        va = haar_unitary(d_a, rng)[:, :2]
        vb = haar_unitary(d_b, rng)[:, :2]
        val_prev = np.inf
        for _ in range(100):
            # optimize over A side with B frame fixed
            big = kron(np.eye(d_a), vb)
            comp = dagger(big) @ x @ big
            w, q = np.linalg.eigh((comp + dagger(comp)) / 2)
            psi = q[:, 0]  # lives on C^dA (x) C^2
            va = _schmidt_frames(psi.reshape(d_a, 2).T)[1]  # new A frame
            # optimize over B side with A frame fixed
            big = kron(va, np.eye(d_b))
            comp = dagger(big) @ x @ big
            w, q = np.linalg.eigh((comp + dagger(comp)) / 2)
            psi = q[:, 0]  # lives on C^2 (x) C^dB
            vb = _schmidt_frames(psi.reshape(2, d_b))[1]
            val = float(w[0])
            if val_prev - val < 1e-12:
                break
            val_prev = val
        if val < best_val:
            best_val = val
            best_psi = (kron(va, np.eye(d_b)) @ psi).ravel()
    verdict = PASS if best_val < -1e-6 else INCONCLUSIVE
    witness = {"psi": _mat_witness(best_psi)} if best_psi is not None else None
    return Certificate("one_distillable", best_val, 0.0, verdict, witness, seed, restarts)


def gurvits_ball(rho: DensityMatrix) -> Certificate:
    """Separability ball around the maximally mixed state (Frobenius distance test)."""
    if rho.dimA != rho.dimB:
        raise ValueError("ball criterion stated for equal local dimensions")
    d = rho.dimA
    value = float(np.linalg.norm(rho.mat - np.eye(d * d) / (d * d)) ** 2)
    radius = 1.0 / (d * d * (d * d - 1))
    verdict = PASS if value <= radius else INCONCLUSIVE
    return Certificate("gurvits_ball", value, radius, verdict)


def _fef_objective(rho_mat: np.ndarray, u: np.ndarray, d: int):
    psi = u.T.reshape(-1) / np.sqrt(d)
    w = rho_mat @ psi
    f = float(np.real(np.vdot(psi, w)))
    grad = w.reshape(d, d).T / np.sqrt(d)  # d f / d conj(U)
    return f, grad


def fef(rho: DensityMatrix, restarts: int = 32, seed: int = 0) -> Certificate:
    """Fully-entangled fraction via multi-start Riemannian ascent over the unitary group.

    A heuristic lower bound on max_U <Phi+|(I x U^dag) rho (I x U)|Phi+>; the
    identity start guarantees value >= <Phi+|rho|Phi+>.
    """
    if rho.dimA != rho.dimB:
        raise ValueError("fully-entangled fraction needs a square bipartition")
    d = rho.dimA
    best_f, best_u = -np.inf, None
    for r in range(restarts):
        if r == 0:
            u = np.eye(d, dtype=complex)
        else:
            u = haar_unitary(d, np.random.default_rng(seed ^ r))
        f, grad = _fef_objective(rho.mat, u, d)
        step = 1.0
        for _ in range(300):
            omega = grad @ dagger(u) - u @ dagger(grad)  # anti-Hermitian ascent direction
            gnorm = np.linalg.norm(omega)
            if gnorm < 1e-12:
                break
            improved = False
            while step > 1e-12:
                u_try = scipy.linalg.expm(step * omega) @ u
                f_try, grad_try = _fef_objective(rho.mat, u_try, d)
                if f_try > f + 1e-15:
                    u, f, grad = u_try, f_try, grad_try
                    improved = True
                    step *= 1.3
                    break
                step /= 2
            if not improved:
                break
        if f > best_f:
            best_f, best_u = f, u
    verdict = PASS if best_f > 1.0 / d + 1e-9 else INCONCLUSIVE
    witness = {"unitary": _mat_witness(best_u)}
    return Certificate("fef", best_f, 1.0 / d, verdict, witness, seed, restarts)


def _magic_basis() -> np.ndarray:
    """Columns are the magic-basis vectors; maximally entangled states have real coords."""
    s = 1 / np.sqrt(2)
    e1 = s * np.array([1, 0, 0, 1], dtype=complex)
    e2 = 1j * s * np.array([1, 0, 0, -1], dtype=complex)
    e3 = 1j * s * np.array([0, 1, 1, 0], dtype=complex)
    e4 = s * np.array([0, 1, -1, 0], dtype=complex)
    return np.column_stack([e1, e2, e3, e4])


def fef2_exact(rho: DensityMatrix | np.ndarray) -> float:
    """Exact two-qubit fully-entangled fraction: top eigenvalue of Re(rho) in the magic basis."""
    m = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("fef2_exact needs a two-qubit state")
    e = _magic_basis()
    magic = dagger(e) @ m @ e
    return float(np.linalg.eigvalsh(magic.real)[-1])


def _fef2_optimal_unitary(rho: DensityMatrix) -> np.ndarray:
    """Unitary U_2 whose maximally entangled vector attains fef2_exact."""
    e = _magic_basis()
    magic = dagger(e) @ rho.mat @ e
    w, q = np.linalg.eigh(magic.real)
    psi = e @ q[:, -1].astype(complex)
    u2 = np.sqrt(2.0) * psi.reshape(2, 2).T
    return u2


def fef_embedding_check(rho: DensityMatrix, d: int) -> bool:
    """Constructive check that F_2 > 1/2 forces F_d > 1/d after embedding.

    Embeds a two-qubit state into C^d (x) C^d padded with zeros, extends the
    optimal qubit unitary by the identity, and verifies the attained overlap
    (2/d) F_2 beats 1/d.
    """
    if rho.dimA != 2 or rho.dimB != 2:
        raise ValueError("embedding check starts from a two-qubit state")
    f2 = fef2_exact(rho)
    if f2 <= 0.5:
        raise ValueError("precondition F_2 > 1/2 violated")
    u2 = _fef2_optimal_unitary(rho)
    u_d = np.eye(d, dtype=complex)
    u_d[:2, :2] = u2
    # embed rho on the first two levels of each side
    big = np.zeros((d * d, d * d), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    big[i * d + j, k * d + l] = rho.mat[i * 2 + j, k * 2 + l]
    psi_d = kron(np.eye(d), u_d) @ max_entangled_ket(d)
    attained = float(np.real(np.vdot(psi_d, big @ psi_d)))
    if attained < (2.0 / d) * f2 - 1e-10:
        raise RuntimeError("embedded unitary attains less than (2/d) F_2")
    return attained > 1.0 / d


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 two-qubit correlation matrix T_mn = tr[rho sigma_m (x) sigma_n]."""
    if rho.dimA != 2 or rho.dimB != 2:
        raise ValueError("correlation matrix defined for two-qubit states")
    t = np.empty((3, 3))
    for m_i, sm in enumerate(qmat.PAULIS):
        for n_i, sn in enumerate(qmat.PAULIS):
            t[m_i, n_i] = float(np.real(np.trace(rho.mat @ kron(sm, sn))))
    return t


def chsh_horodecki(rho: DensityMatrix) -> Certificate:
    """Maximal CHSH value 2 sqrt(t1^2 + t2^2) from the correlation-matrix criterion."""
    t = correlation_matrix(rho)
    u, s, vdag = np.linalg.svd(t)
    value = float(2.0 * np.sqrt(s[0] ** 2 + s[1] ** 2))
    verdict = PASS if value > 2.0 + 1e-9 else FAIL
    witness = {
        "singular_values": [float(x) for x in s],
        "alice_plane": _mat_witness(u[:, :2].T),
        "bob_plane": _mat_witness(vdag[:2]),
    }
    return Certificate("chsh", value, 2.0, verdict, witness)


def dense_coding_delta(rho: DensityMatrix) -> Certificate:
    """Dense-coding advantage delta = S(rho_B) - S(rho_AB) in bits."""
    s_b = qmat.von_neumann_entropy(partial_trace(rho, "A"))
    s_ab = qmat.von_neumann_entropy(rho)
    value = s_b - s_ab
    verdict = PASS if value > 1e-9 else FAIL
    return Certificate("dense_coding", value, 0.0, verdict)


def _xlog2(x: float) -> float:
    return 0.0 if x <= 0.0 else x * np.log2(x)


def werner_delta(d: int, v: float) -> float:
    """Closed-form delta of the d-dimensional Werner state with weight v."""
    return float(
        np.log2(d) + _xlog2(v) + v * np.log2(2.0 / (d * (d + 1))) + _xlog2(1 - v)
        + (1 - v) * np.log2(2.0 / (d * (d - 1)))
    )


def filtered_delta(d: int, v: float) -> float:
    """Closed-form delta of the qubit-filtered Werner state (two-qubit Werner at v')."""
    n = (d + 1.0) * (1 - v) + 3.0 * v * (d - 1)
    a = (d + 1.0) * (1 - v) / n  # this is 1 - v'
    bcoef = 3.0 * v * (d - 1) / n  # this is v'
    second = 0.0 if v == 0 else bcoef * np.log2(v * (d - 1) / n)
    return float(1.0 + _xlog2(a) + second)


def dc_threshold(d: int, tol: float = 1e-5) -> float | None:
    """Root of filtered_delta(d, .) on [0, 0.5] by bisection; None if no sign change."""
    lo, hi = 0.0, 0.5
    f_lo, f_hi = filtered_delta(d, lo), filtered_delta(d, hi)
    if f_lo <= 0 or f_hi >= 0:
        return None
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if filtered_delta(d, mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def filtered_weight_params(d: int, v: float) -> tuple[float, float]:
    """(v', q') of the filtered two-qubit Werner state; q' = 1 - (4/3) v'."""
    vp = filtered_weight(d, v)
    return vp, 1.0 - (4.0 / 3.0) * vp
