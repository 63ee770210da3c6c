"""Werner-state constructors, two-qubit building blocks and noisy surrogates.

Three equivalent routes to the same d-dimensional Werner family:

* ``werner`` mixes the normalized symmetric/antisymmetric projectors directly,
* ``werner_from_qubit_mixture`` mixes noisy two-qubit singlet blocks
  (only valid while the block weight q stays nonnegative),
* ``werner_all_v`` mixes singlet/triplet/diagonal blocks and covers all
  weights v in [0, 1].

All agree entrywise to machine precision on their common domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import DensityMatrix, as_state, dagger

BLOCK_KINDS = ("singlet", "diag", "cross", "triplet")


@dataclass(frozen=True)
class WernerParams:
    """Local dimension d and symmetric weight v, with the qubit-mixture parameters."""

    d: int
    v: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("local dimension must be at least 2")
        if not 0.0 <= self.v <= 1.0:
            raise ValueError("symmetric weight v must lie in [0, 1]")

    @property
    def p(self) -> float:
        return 1.0 / self.d

    @property
    def q(self) -> float:
        return 1.0 - (2.0 * self.d / (self.d + 1.0)) * self.v


def swap_operator(d: int) -> np.ndarray:
    """Swap V with V |psi>|phi> = |phi>|psi> on C^d (x) C^d."""
    if d < 2:
        raise ValueError("swap operator needs d >= 2")
    return np.eye(d * d, dtype=complex)[np.arange(d * d).reshape(d, d).T.ravel()]  # row i*d+j is e_(j*d+i)


def sym_projector(d: int) -> np.ndarray:
    return (np.eye(d * d, dtype=complex) + swap_operator(d)) / 2


def antisym_projector(d: int) -> np.ndarray:
    return (np.eye(d * d, dtype=complex) - swap_operator(d)) / 2


def werner(d: int, v: float) -> DensityMatrix:
    """Werner state: v-weighted mixture of the normalized Pi+ and Pi- projectors."""
    params = WernerParams(d, v)
    n_plus = d * (d + 1) / 2
    n_minus = d * (d - 1) / 2
    mat = (params.v / n_plus) * sym_projector(d) + ((1 - params.v) / n_minus) * antisym_projector(d)
    return DensityMatrix(d, d, mat)


def qubit_block(d: int, i: int, j: int, kind: str) -> DensityMatrix:
    """Two-qubit block state supported on span{|ii>,|ij>,|ji>,|jj>} of C^d (x) C^d."""
    if not 0 <= i < j < d:
        raise ValueError("block indices must satisfy 0 <= i < j < d")
    if kind not in BLOCK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}")
    dd = d * d
    m = np.zeros((dd, dd), dtype=complex)
    ij, ji = i * d + j, j * d + i
    ii, jj = i * d + i, j * d + j
    if kind in ("singlet", "triplet"):
        psi = np.zeros(dd, dtype=complex)
        psi[ij], psi[ji] = 1 / np.sqrt(2), (-1 if kind == "singlet" else 1) / np.sqrt(2)
        m = np.outer(psi, psi.conj())
    elif kind == "diag":
        m[ii, ii] = m[jj, jj] = 0.5
    else:  # cross
        m[ij, ij] = m[ji, ji] = 0.5
    return DensityMatrix(d, d, m)


def _block_mixture(d: int, weights: dict[str, float]) -> DensityMatrix:
    """Uniform mixture over the pairs i < j of the qubit blocks, block kind k weighted by ``weights[k]``."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    mat = sum(w * qubit_block(d, i, j, kind).mat for i, j in pairs for kind, w in weights.items())
    return DensityMatrix(d, d, mat / (d * (d - 1) / 2))


def werner_from_qubit_mixture(d: int, v: float) -> DensityMatrix:
    """Werner state as a uniform mixture of noisy two-qubit singlet blocks.

    Valid only while q = 1 - 2d/(d+1) v is nonnegative, i.e. v <= (d+1)/(2d).
    """
    params = WernerParams(d, v)
    q, p = params.q, params.p
    if q < -1e-12:
        raise ValueError(
            f"v={v} exceeds (d+1)/(2d)={(d + 1) / (2 * d)}: qubit-mixture weight q<0, "
            "use the all-v route (werner_all_v)"
        )
    q = max(q, 0.0)
    return _block_mixture(d, {"singlet": q, "diag": (1 - q) * p, "cross": (1 - q) * (1 - p)})


def werner_all_v(d: int, v: float) -> DensityMatrix:
    """Werner state as a uniform qubit-block mixture valid for every v in [0, 1]."""
    WernerParams(d, v)
    q = 2.0 * v / (d + 1.0)
    p = (d + 1.0) * (1.0 - v) / (d + 1.0 - 2.0 * v)
    return _block_mixture(d, {"diag": q, "singlet": (1 - q) * p, "triplet": (1 - q) * (1 - p)})


def max_entangled_ket(d: int) -> np.ndarray:
    """|Phi+_d> = sum_i |ii> / sqrt(d)."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1 / np.sqrt(d)
    return psi


WERNER = "werner"
ISOTROPIC = "isotropic"


def twirl_class(rho: DensityMatrix) -> tuple[str, float] | None:
    """(WERNER, s = tr(rho F)) when dimA = dimB and rho equals its U(x)U twirl alpha I + beta F
    to 1e-12 entrywise, else (ISOTROPIC, f = <Phi+|rho|Phi+>) when it equals its U(x)conj(U)
    twirl alpha I + beta |Phi+><Phi+| to 1e-12; None otherwise.  I/D is both, and reads as Werner.

    Each twirl keeps tr rho and tr(rho G), G = F or |Phi+><Phi+|, which fix alpha and beta
    (Johnson & Viola 2013 treat both families)."""
    if rho.dimA != rho.dimB:
        return None
    d, dd = rho.dimA, rho.dim
    proj = np.zeros((dd, dd))  # |Phi+><Phi+|
    proj[:: d + 1, :: d + 1] = 1.0 / d
    tr_rho = np.trace(rho.mat).real
    for kind, op, tr_op, tr_op2 in ((WERNER, swap_operator(d), d, dd), (ISOTROPIC, proj, 1, 1)):
        overlap = np.vdot(op, rho.mat).real  # G is real symmetric, so this is tr(rho G)
        det = dd * tr_op2 - tr_op * tr_op
        alpha = (tr_op2 * tr_rho - tr_op * overlap) / det
        beta = (dd * overlap - tr_op * tr_rho) / det
        if np.abs(rho.mat - alpha * np.eye(dd) - beta * op).max() <= 1e-12:
            return kind, float(overlap)
    return None


def haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from an (..., 2, d, d) stack of standard normals, the real and
    imaginary parts of each complex Gaussian: one QR of the whole stack, with phase-fixed diagonals."""
    q, r = np.linalg.qr((normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_restarts(seeds: list[int], sides: list[tuple[int, int]]) -> list[np.ndarray]:
    """Haar unitaries for seeded restarts, one (R, k, d, d) stack per (k, d) of ``sides``.

    Restart r draws k standard-normal (2, d, d) arrays from ``default_rng(seeds[r])`` for
    each side in turn, and one :func:`haar_unitaries` QR covers each side's stack."""
    normals = [[] for _ in sides]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for draws, (k, d) in zip(normals, sides):
            draws.append(rng.standard_normal((k, 2, d, d)))
    return [haar_unitaries(np.reshape(draws, (len(seeds), k, 2, d, d))) for draws, (k, d) in zip(normals, sides)]


def check_restarts(restarts: int) -> None:
    """Raise ValueError when a seeded search is asked for fewer than one restart."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")


def grid_rows(
    rhos: list[DensityMatrix], seeds: list[int], restarts: int, form, sides: list[tuple[int, int]]
) -> tuple[tuple[int, int], np.ndarray, list[np.ndarray]]:
    """The (dimA, dimB) shared by the states of a grid search, state i seeded by ``seeds[i]``,
    the stack of ``form(rho)`` with ``restarts`` rows per state in turn, and for each (k, party)
    of ``sides`` (party 0 for A, 1 for B) an (S R, k, d, d) stack of Haar unitaries on that
    party, row i R + r drawn from ``seeds[i] ^ r``: the one place restart seeds are drawn.

    Raises ValueError on an empty list, when the seeds do not match the states one to one,
    on states of different dimensions and when ``restarts`` is below 1."""
    if not rhos:
        raise ValueError("no states to search")
    if len(seeds) != len(rhos):
        raise ValueError(f"{len(rhos)} states need as many seeds, got {len(seeds)}")
    dims = sorted({(rho.dimA, rho.dimB) for rho in rhos})
    if len(dims) > 1:
        raise ValueError(f"states searched together must share their dimensions, got {dims}")
    check_restarts(restarts)
    restart_seeds = [seed ^ r for seed in seeds for r in range(restarts)]
    draws = haar_restarts(restart_seeds, [(k, dims[0][party]) for k, party in sides])
    return dims[0], np.repeat(np.stack([form(rho) for rho in rhos]), restarts, axis=0), draws


def grid_best(values: np.ndarray, restarts: int, pick) -> np.ndarray:
    """Row index of each state's best restart in a state-major stack of values, as
    ``pick`` (``np.argmin`` or ``np.argmax``) chooses it."""
    per_state = values.reshape(-1, restarts)
    return np.arange(len(per_state)) * restarts + pick(per_state, axis=1)


@dataclass(frozen=True)
class NoiseSpec:
    """Two-knob noise model: global depolarizing weight plus a seeded Hermitian kick."""

    depol: float = 0.0
    coherent_eps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.depol <= 1.0:
            raise ValueError("depol must lie in [0, 1]")
        if not 0.0 <= self.coherent_eps < np.inf:
            raise ValueError(f"coherent_eps must be nonnegative and finite, got {self.coherent_eps}")


def experiment_like_noise(v: float, seed: int = 97) -> NoiseSpec:
    """Noise ramp that keeps qutrit-Werner surrogates inside the target
    tomography fidelity band [0.958, 0.995] across v in [0, 0.5]."""
    return NoiseSpec(
        depol=max(0.05 - 0.08 * v, 0.01),
        coherent_eps=0.03 + 0.04 * v,
        seed=seed,
    )


def noisy_surrogate(rho_ideal: DensityMatrix, spec: NoiseSpec) -> DensityMatrix:
    """Deterministic noisy stand-in for an imperfectly prepared state.

    Depolarizes with weight ``spec.depol``, adds a seeded random traceless
    Hermitian perturbation of Frobenius norm ``spec.coherent_eps``, then
    projects back onto the state set.  Not a physical model of any apparatus;
    the two knobs are tuned to hit a target fidelity band.
    """
    d2 = rho_ideal.dim
    if spec.depol == 0.0 and spec.coherent_eps == 0.0:
        return rho_ideal
    m = (1 - spec.depol) * rho_ideal.mat + spec.depol * np.eye(d2) / d2
    if spec.coherent_eps == 0.0:
        # depolarizing alone keeps the state exact; no reprojection needed
        return DensityMatrix(rho_ideal.dimA, rho_ideal.dimB, m)
    rng = np.random.default_rng(spec.seed)
    g = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
    h = (g + dagger(g)) / 2
    h -= np.trace(h) / d2 * np.eye(d2)
    h /= np.linalg.norm(h)
    m = m + spec.coherent_eps * h
    return as_state(m, rho_ideal.dimA, rho_ideal.dimB, clip_tol=np.inf)
