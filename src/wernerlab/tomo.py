"""Coincidence-count simulation and certified maximum-likelihood reconstruction.

The measurement model mirrors a path-encoded photonic setup: each side projects onto one of
nine fixed path vectors (or six polarization vectors after filtering), and the
recorded coincidences are Poissonian in the product-projector overlaps.

The raw frame is overcomplete but not a POVM (the projectors do not sum to
the identity), so the reconstruction runs in the frame-normalized picture:
with G = sum_k Pi_k, the operators E_k = G^-1/2 Pi_k G^-1/2 form a genuine
POVM and the transformed state is mu = G^1/2 rho G^1/2 (normalized).  The
estimate maximises the log-likelihood per count L(mu) = sum_k f_k log tr(E_k mu)
by restarted accelerated projected-gradient ascent (Shang, Zhang & Ng,
Phys. Rev. A 95, 062336, 2017), with one ``eigh`` per step to project onto
the states, and is pulled back through G^-1/2 at the end.

It stops on a certificate, not on slow progress.  For any y >= 0 that is
positive on the observed settings, Jensen's inequality bounds L* - L(mu) by
sum_k f_k log(f_k / (y_k p_k)) + log tr mu + log lambda_max(sum_k y_k E_k), and
the smaller bound of two points y is taken (:meth:`_MleEngine.gap`).  The
first, y = f / p with the gradient R = sum_k (f_k / p_k) E_k, gives
log(tr mu lambda_max(R)), never above the first-order bound lambda_max(R) - 1
(Glancy, Knill & Girard, New J. Phys. 14, 095017, 2012).  The second,
y = f / p - z with sum_k z_k E_k = R - P - QRQ, where P projects onto mu's
support and Q = I - P, is second order: it falls like the true gap, where the
first falls like its square root.  A reconstruction stops once that bound,
times the record's total counts and with a rounding margin, is at most
``tol`` nats per record, or once its steps can no longer move it beyond
rounding, with its gap flagged.  The default 0.1 lies far below the
likelihood's statistical spread, about half the number of parameters: 40
nats for the 80 of a two-qutrit state.
:func:`mle_reconstruct_many` reconstructs records of one frame as the rows of
one lockstep stack, as the :mod:`~wernerlab.certify` module docstring
describes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qmat import DensityMatrix, as_state, dagger
from .solver import check_tol


@dataclass(frozen=True)
class TomoFrame:
    """Local measurement vectors with their human-readable labels, and the read-only product
    projectors |v_i v_j><v_i v_j|, stacked with k = i*size + j."""

    name: str
    labels: tuple[str, ...]
    vectors: tuple[np.ndarray, ...]
    projectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        p = v[:, :, None] * v.conj()[:, None, :]  # |v_i><v_i|
        n = self.dim**2
        # (i, j, a, b, c, e) -> p_i[a, c] p_j[b, e], the kron of the pair
        projs = (p[:, None, :, None, :, None] * p[None, :, None, :, None, :]).reshape(self.size**2, n, n)
        projs.flags.writeable = False
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    @property
    def size(self) -> int:
        return len(self.vectors)


@lru_cache(maxsize=None)
def qutrit_bases() -> TomoFrame:
    """The nine path-measurement vectors M1..M9."""
    k0 = np.array([1, 0, 0], dtype=complex)
    k1 = np.array([0, 1, 0], dtype=complex)
    k2 = np.array([0, 0, 1], dtype=complex)
    s = 1 / np.sqrt(2)
    vectors = (
        k0,
        k1,
        k2,
        s * (k0 + k1),
        s * (k0 + 1j * k1),
        s * (k0 + k2),
        s * (k0 + 1j * k2),
        s * (k1 + k2),
        s * (k1 + 1j * k2),
    )
    labels = tuple(f"M{i}" for i in range(1, 10))
    frame = TomoFrame("qutrit9", labels, vectors)
    if frame_rank(frame) != 81:
        raise RuntimeError("overcomplete qutrit frame must span Herm(9)")
    return frame


@lru_cache(maxsize=None)
def qubit_bases() -> TomoFrame:
    """Six-vector polarization frame {H, V, D, A, R, L} for filtered qubits."""
    k0 = np.array([1, 0], dtype=complex)
    k1 = np.array([0, 1], dtype=complex)
    s = 1 / np.sqrt(2)
    vectors = (k0, k1, s * (k0 + k1), s * (k0 - k1), s * (k0 + 1j * k1), s * (k0 - 1j * k1))
    frame = TomoFrame("qubit6", ("H", "V", "D", "A", "R", "L"), vectors)
    if frame_rank(frame) != 16:
        raise RuntimeError("qubit frame must span Herm(4)")
    return frame


FRAMES = {"qutrit9": qutrit_bases, "qubit6": qubit_bases}


def frame_for(name: str) -> TomoFrame:
    if not isinstance(name, str) or name not in FRAMES:  # a list is unhashable, so test the type first
        raise ValueError(f"unknown tomography frame {name!r}")
    return FRAMES[name]()


def frame_rank(frame: TomoFrame) -> int:
    """Rank of the product-projector design matrix on Hermitian operators."""
    design = frame.projectors.reshape(frame.size**2, -1)
    return int(np.linalg.matrix_rank(design, tol=1e-10))


@dataclass(frozen=True)
class CountsRecord:
    """Coincidence counts per product setting, with provenance metadata."""

    counts: np.ndarray
    shots: int
    seed: int
    frame_name: str
    state_tag: str = ""

    def __post_init__(self):
        arr = np.asarray(self.counts)
        size = frame_for(self.frame_name).size
        if arr.shape != (size, size):
            raise ValueError(f"counts of frame {self.frame_name!r} must be a {size}x{size} table, not {arr.shape}")
        if not (np.all(np.isfinite(arr)) and np.all(arr >= 0) and np.all(arr == np.round(arr))):
            raise ValueError("counts must be nonnegative integers")
        for name, value, low in (("shots", self.shots, 1), ("seed", self.seed, 0)):
            if type(value) is not int or value < low:  # bool excluded; the sidecar writes Python ints
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        if not isinstance(self.state_tag, str):
            raise ValueError(f"state_tag must be a string, got {self.state_tag!r}")
        object.__setattr__(self, "counts", arr.astype(np.int64))

    @property
    def frame(self) -> TomoFrame:
        return frame_for(self.frame_name)


def expected_probabilities(rho: DensityMatrix, frame: TomoFrame | None = None) -> np.ndarray:
    """Noise-free overlap table p[i, j] = <v_i v_j| rho |v_i v_j>."""
    frame = frame or frame_for("qutrit9" if rho.dimA == 3 else "qubit6")
    if frame.dim != rho.dimA or frame.dim != rho.dimB:
        raise ValueError("frame dimension does not match the state")
    p = np.einsum("kij,ji->k", frame.projectors, rho.mat).real
    return np.clip(p, 0.0, None).reshape(frame.size, frame.size)


def simulate_counts(
    rho: DensityMatrix, shots: int, seed: int, frame: TomoFrame | None = None, state_tag: str = ""
) -> CountsRecord:
    """Poissonian coincidence counts with mean shots * p[i, j], reproducibly seeded."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    frame = frame or frame_for("qutrit9" if rho.dimA == 3 else "qubit6")
    p = expected_probabilities(rho, frame)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(shots * p)
    return CountsRecord(counts, shots, seed, frame.name, state_tag)


def expected_counts_record(
    rho: DensityMatrix, shots: int, frame: TomoFrame | None = None, state_tag: str = ""
) -> CountsRecord:
    """Noise-free (rounded expected value) counts, for fixed-point checks."""
    frame = frame or frame_for("qutrit9" if rho.dimA == 3 else "qubit6")
    p = expected_probabilities(rho, frame)
    return CountsRecord(np.rint(shots * p).astype(np.int64), shots, 0, frame.name, state_tag)


EPS = np.finfo(float).eps
# step-size factors of the backtracking line search: after an accepted step, after a rejected one
STEP_GROW, STEP_SHRINK = 1.1, 0.3
GAP_EVERY = 5  # ticks between gap checks
# share of I / d^2 in the start, which keeps every p_k of the projected linear-inversion estimate positive
START_MIX = 0.01


class _MleEngine:
    def __init__(self, frame: TomoFrame):
        self.frame = frame
        d2 = frame.dim**2
        projs = frame.projectors
        w, q = np.linalg.eigh(projs.sum(axis=0))  # positive definite: the frame builders check full rank
        self.g_isqrt = (q * (1.0 / np.sqrt(w))) @ dagger(q)
        self.povm = np.einsum("ab,kbc,cd->kad", self.g_isqrt, projs, self.g_isqrt)
        # row k is E_k flattened, as real and imaginary parts in turn
        self._rows = self.povm.reshape(len(projs), d2 * d2).view(np.float64)
        # row k pairs with a flattened m's parts:
        # Re tr(E_k m) = sum_ij Re E_k[i, j] Re m[j, i] - Im E_k[i, j] Im m[j, i]
        self._trace_rows = self.povm.swapaxes(-1, -2).reshape(len(projs), d2 * d2).conj().view(np.float64)
        self.norms = np.linalg.norm(self._rows, axis=1)  # ||E_k||_F, for the gap's rounding margin
        # row k of the least-squares inverse of the map m -> Re tr(E_k m), flattened like _rows
        self._inverse_rows = np.ascontiguousarray(np.linalg.pinv(self._trace_rows).T)
        self.d2 = d2

    def overlaps(self, m: np.ndarray) -> np.ndarray:
        """Re tr(E_k m) for a C-contiguous matrix or each of a stack, one real matrix-vector product per matrix."""
        return (self._trace_rows @ m.view(np.float64).reshape(*m.shape[:-2], -1, 1))[..., 0]

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        """The least-norm z with sum_k z_k E_k = m, for a Hermitian matrix (the frame spans them) or
        each of a stack, one real matrix-vector product per matrix."""
        return (self._inverse_rows @ m.view(np.float64).reshape(*m.shape[:-2], -1, 1))[..., 0]

    def inversion(self, freqs: np.ndarray) -> np.ndarray:
        """The linear-inversion estimate: the least-norm Hermitian m with tr(E_k m) = f_k in least
        squares, for a row of frequencies or each of a stack."""
        return (freqs[..., None, :] @ self._inverse_rows).view(complex).reshape(*freqs.shape[:-1], self.d2, self.d2)

    def probabilities(self, mu: np.ndarray) -> np.ndarray:
        """tr(E_k mu), clipped at 0, for a matrix or each of a stack."""
        return np.maximum(self.overlaps(mu), 0.0)

    def combination(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k E_k for a row of coefficients or each of a stack."""
        return (y[..., None, :] @ self._rows).view(complex).reshape(*y.shape[:-1], self.d2, self.d2)

    def r_operator(self, freqs: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """R = sum_k (f_k / p_k) E_k, the log-likelihood's gradient, for a row of frequencies or each of a stack."""
        return self.combination(freqs / np.maximum(probs, 1e-300))

    def gap(self, freqs: np.ndarray, probs: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Certified bound on L* - L(mu / tr mu) per count, for a row or each of a stack.

        A dual bound.  Take y >= 0 with y_k > 0 wherever f_k > 0, and Y = sum_k y_k E_k.
        Jensen's inequality and tr(Y sigma) <= lambda_max(Y) give, for every state sigma,
        L(sigma) <= sum_{f_k > 0} f_k log(f_k / y_k) + log lambda_max(Y), so
        L* - L(mu / tr mu) <= sum_{f_k > 0} f_k log(f_k / (y_k p_k)) + log tr mu + log lambda_max(Y).
        The smaller bound of two points y is reported:

        1. y = f / p.  Y is R, the f-terms vanish, and the bound log(tr mu lambda_max(R)) never
           exceeds the first-order bound tr mu lambda_max(R) - 1 (Glancy, Knill & Girard, New
           J. Phys. 14, 095017, 2012).
        2. y = f / p - z, second order.  P projects onto mu's numerical support (eigenvalues
           above d2 eps), Q = I - P, and z are the least-squares coefficients of R - P - QRQ
           (:meth:`coefficients`), so Y = P + QRQ but for the clipping below; at the maximum
           R is I on the support and at most I off it, so lambda_max(Y) tends to 1.  On an
           observed setting, with r_k = z_k p_k / f_k, y_k = (f_k / p_k)(1 - r_k), which must
           stay positive or the point is skipped, and its f-term is -f_k log1p(-r_k); on an
           unobserved one y_k = max(-z_k, 0).  The f-terms' first-order part, sum_k z_k p_k =
           tr((R - P - QRQ) mu) = tr(R mu) - tr(P mu) - tr(QRQ mu), vanishes as Q mu does,
           so this bound falls like the true gap, not like its square root.  lambda_max(Y)
           is taken of the y actually used, so any z gives a valid bound.

        Rounding.  Each p_k is a sum of 2n products (n = d2^2), each at most ||E_k||_F
        ||mu||_F <= ||E_k||_F, so it is off by at most 2n eps ||E_k||_F.  Summing a
        combination over the K settings, and ``eigvalsh``, which is backward stable, add at
        most K eps sum_k |y_k| ||E_k||_F and a few d2 eps lambda_max.  So with w_k = f_k / p_k
        the margins 4 eps (sum_k w_k ||E_k||_F (K + n ||E_k||_F / p_k) + d2 lambda_max(R)) on
        point 1's lambda_max and 4 eps (sum_k y_k ||E_k||_F (K + 3) + d2 lambda_max(Y)) on
        point 2's, where the 3 covers the three roundings in each y_k, bound them with room;
        point 1's p_k enter through w_k.  Point 2's p_k enter through its f-terms, each off by
        f_k 2n eps ||E_k||_F / p_k, and the log1p and their sum add K eps |f-term| each, so
        those carry 4 eps sum_k f_k (n ||E_k||_F / p_k + K |f-term_k|).
        """
        k, n, d2 = self.norms.shape[-1], self.d2 * self.d2, self.d2
        safe = np.maximum(probs, 1e-300)
        weights = freqs / safe
        trace = _trace(mu)
        r = self.combination(weights)
        top = np.linalg.eigvalsh(r)[..., -1]
        rounding = (weights * self.norms * (k + n * self.norms / safe)).sum(axis=-1) + d2 * top
        first = np.log(trace * (top + 4 * EPS * rounding))
        w, v = np.linalg.eigh(mu)
        support = (v * (w > d2 * EPS)[..., None, :]) @ dagger(v)  # P; rest is Q
        rest = np.eye(d2) - support
        z = self.coefficients(r - support - rest @ r @ rest)
        unobserved = freqs == 0
        rel = np.divide(z * probs, freqs, out=np.zeros_like(z), where=~unobserved)
        usable = (rel < 1).all(axis=-1)
        y = np.where(unobserved, np.maximum(-z, 0.0), weights * (1 - rel))
        top_y = np.linalg.eigvalsh(self.combination(y))[..., -1]
        terms = -freqs * np.log1p(-np.where(rel < 1, rel, 0.0))
        rounding_y = (y * self.norms).sum(axis=-1) * (k + 3) + d2 * top_y
        rounding_f = (freqs * n * self.norms / safe + k * np.abs(terms)).sum(axis=-1)
        second = terms.sum(axis=-1) + np.log(trace * (top_y + 4 * EPS * rounding_y)) + 4 * EPS * rounding_f
        return np.minimum(first, np.where(usable, second, np.inf))


@lru_cache(maxsize=None)
def _engine_for(frame_name: str) -> _MleEngine:
    """One engine per registered frame: the POVM depends on the frame alone."""
    return _MleEngine(frame_for(frame_name))


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1).real


def _norm(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each of a stack of matrices."""
    flat = m.reshape(len(m), -1)
    return np.sqrt(np.vecdot(flat, flat).real)


def project_to_states(h: np.ndarray) -> np.ndarray:
    """The unit-trace PSD matrix nearest (in Frobenius norm) to each of a stack of Hermitian matrices.

    Its eigenvectors are h's, and its eigenvalues are h's projected onto the
    probability simplex (Duchi et al., ICML 2008): shifted down by one common
    tau and clipped at 0.  tau is the largest (s_k - 1) / k, where s_k sums
    the k largest eigenvalues of h.
    """
    w, q = np.linalg.eigh(h)
    down = w[..., ::-1]  # eigh sorts ascending
    tau = ((np.cumsum(down, axis=-1) - 1.0) / np.arange(1, w.shape[-1] + 1)).max(axis=-1)
    lam = np.maximum(w - tau[..., None], 0.0)
    return (q * lam[..., None, :]) @ dagger(q)


class LikelihoodTrace(list):
    """A reconstruction's log-likelihood per count at the start and after each accepted step.

    ``gap`` bounds how far the last iterate's log-likelihood lies below the
    maximum, in nats per record (total counts times the bound per count);
    ``capped`` is True when the row left with ``gap`` still above ``tol``, at
    ``max_iter`` tries or stalled; ``tries`` counts its tries, accepted or not.
    """

    def __init__(self, values, gap: float, capped: bool, tries: int):
        super().__init__(values)
        self.gap = gap
        self.capped = capped
        self.tries = tries


def mle_reconstruct(record: CountsRecord, max_iter: int = 5000, tol: float = 0.1) -> DensityMatrix:
    """Maximum-likelihood state estimate from a counts record, to within ``tol`` nats per record."""
    rho, _ = mle_reconstruct_with_history(record, max_iter=max_iter, tol=tol)
    return rho


def mle_reconstruct_with_history(
    record: CountsRecord, max_iter: int = 5000, tol: float = 0.1
) -> tuple[DensityMatrix, LikelihoodTrace]:
    """MLE estimate plus its log-likelihood trace, which carries the certified gap."""
    return mle_reconstruct_many([record], max_iter=max_iter, tol=tol)[0]


def _loglik(freqs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Each row's log-likelihood per count, sum_k f_k log p_k."""
    return (freqs * np.log(np.maximum(probs, 1e-300))).sum(axis=-1)


def mle_reconstruct_many(
    records: list[CountsRecord], max_iter: int = 5000, tol: float = 0.1
) -> list[tuple[DensityMatrix, LikelihoodTrace]]:
    """MLE estimates with their log-likelihood traces for counts records of one frame, in lockstep.

    The records are the rows of one restarted accelerated projected-gradient
    ascent (Shang, Zhang & Ng, Phys. Rev. A 95, 062336, 2017) on the
    log-likelihood per count L(mu) = sum_k f_k log tr(E_k mu) over states mu.
    A row starts from its linear-inversion estimate projected onto the
    states, mixed with ``START_MIX`` of I / d^2.  Each tick tries one step on
    every row still running: from the row's extrapolated point nu, the
    candidate is the state nearest nu + t R(nu) (:func:`project_to_states`).
    A candidate without sufficient ascent over nu (the backtracking test) is
    rejected and t shrinks; one with it but below the row's current
    likelihood restarts the momentum at the current iterate; otherwise it is
    accepted, t grows, and nu moves on with the momentum of FISTA.

    Near the maximum a step gains far less than the rounding in L itself, so
    both tests measure differences directly: L(mu / tr mu) changes by
    sum_k f_k log1p(tr(E_k delta) / p_k) - log1p(tr delta / tr mu) over a step
    delta, with each tr(E_k delta) taken from the difference of the matrices.
    Neither the rounding in L's sum nor the rounding of the iterate's trace
    (a first-order change to L, where the gain is second order) can then
    decide a test.  Each of these sums, like L itself, is numpy's sum over
    all of a row's settings, with 0 for the terms of unobserved settings, so a
    row's bits do not depend on the rows stacked with it.

    A row leaves when its certified gap (see :meth:`_MleEngine.gap`), times its
    total counts, is at most ``tol`` nats per record; after ``max_iter``
    tries, accepted or not; or once it has stalled: its nu is its iterate mu
    (theta < 2) and its next step t R(mu) is below mu's own rounding,
    t ||R(mu)||_F <= eps ||mu||_F, so no try can move mu by more than rounding.
    Its :class:`LikelihoodTrace` reports the gap, whether it is above ``tol``,
    and the tries made.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    check_tol(tol)
    if not records:
        raise ValueError("no counts records to reconstruct")
    names = {rec.frame_name for rec in records}
    if len(names) > 1:
        raise ValueError("records reconstructed together must share one frame")
    engine = _engine_for(names.pop())
    counts = np.array([rec.counts.ravel() for rec in records])
    total = counts.sum(axis=1)
    if np.any(total <= 0):
        raise ValueError("all-zero counts cannot be reconstructed")
    freqs = counts.astype(float) / total[:, None]
    d2 = engine.d2
    rows = np.arange(len(records))
    guess = project_to_states(engine.inversion(freqs))
    # pts[0] is each row's extrapolated point nu, pts[1] its iterate mu; probs holds their p_k
    pts = np.stack([(1 - START_MIX) * guess + START_MIX * np.eye(d2) / d2] * 2)
    probs = engine.probabilities(pts)
    trails = [[ll] for ll in _loglik(freqs, probs[1]).tolist()]  # each row's start and accepted steps
    unobserved = freqs == 0
    theta = np.ones(len(rows))  # FISTA's theta; beta is 0 from theta = 1, so nu is mu while theta < 2
    step = np.ones(len(rows))
    gap = total * engine.gap(freqs, probs[1], pts[1])
    final_mu, final_gap, final_tries = np.empty_like(pts[1]), np.empty(len(rows)), np.empty(len(rows), int)
    leave = gap <= tol
    tick = 0  # every live row has tried this many steps
    while True:
        if leave.any():
            done = rows[leave]
            final_mu[done], final_gap[done], final_tries[done] = pts[1, leave], gap[leave], tick
            keep = ~leave
            rows, pts, probs, theta, step = rows[keep], pts[:, keep], probs[:, keep], theta[keep], step[keep]
            gap, total, leave, freqs, unobserved = gap[keep], total[keep], leave[keep], freqs[keep], unobserved[keep]
            if not rows.size:
                break
        tick += 1
        cand = project_to_states(pts[0] + step[:, None, None] * engine.r_operator(freqs, probs[0]))
        cand_p = engine.probabilities(cand)
        # the step from nu (row 0) and from mu (row 1): each setting's relative change in p, and the trace's
        delta = cand - pts
        with np.errstate(divide="ignore", invalid="ignore"):  # unobserved settings may have p = 0
            rel = engine.overlaps(delta) / probs
            logs = np.log1p(rel)
            logs[0] -= rel[0]
            shift = _trace(delta) / _trace(pts)
            tail = np.log1p(shift)
            tail[0] -= shift[0]
            # excess = L(cand) - L(nu) - <grad L(nu), cand - nu>, rise = L(cand) - L(mu); the mask keeps
            # 0 * inf = NaN out of the sums where an unobserved setting's p is or becomes 0
            excess, rise = np.where(unobserved, 0.0, freqs * logs).sum(axis=-1) - tail
        flat = delta[0].reshape(len(rows), -1)
        ascent = 2 * step * excess + np.vecdot(flat, flat).real >= 0  # sufficient ascent allows -|cand - nu|^2 / 2t
        took = ascent & (rise >= 0)
        restart = ascent & ~took & (theta >= 2)  # with no momentum there is nothing to restart
        # FISTA momentum from an accepted step, unless it takes an observed setting's p to 0 or below
        theta_next = (1 + np.sqrt(1 + 4 * theta * theta)) / 2
        beta = (theta - 1) / theta_next
        ahead_p = cand_p + beta[:, None] * (cand_p - probs[1])
        usable = took & ((ahead_p > 0) | unobserved).all(axis=1)
        back = (took & ~usable) | restart  # nu returns to the (new) iterate
        for row, ll in zip(rows[took], _loglik(freqs[took], cand_p[took]).tolist()):
            trails[row].append(ll)
        np.copyto(pts[0], cand + beta[:, None, None] * delta[1], where=usable[:, None, None])
        np.copyto(probs[0], ahead_p, where=usable[:, None])
        np.copyto(pts[1], cand, where=took[:, None, None])
        np.copyto(probs[1], cand_p, where=took[:, None])
        np.copyto(pts[0], pts[1], where=back[:, None, None])
        np.copyto(probs[0], probs[1], where=back[:, None])
        theta = np.where(usable, theta_next, np.where(back, 1.0, theta))
        step = np.where(took, step * STEP_GROW, np.where(restart, step, step * STEP_SHRINK))
        if tick % GAP_EVERY == 0 or tick == max_iter:
            gap = total * engine.gap(freqs, probs[1], pts[1])
            stalled = (theta < 2) & (step * _norm(engine.r_operator(freqs, probs[1])) <= EPS * _norm(pts[1]))
            leave = (gap <= tol) | (tick == max_iter) | stalled
    rhos = engine.g_isqrt @ final_mu @ engine.g_isqrt
    dim = engine.frame.dim
    out = []
    for trail, rho, g, tries in zip(trails, rhos, final_gap, final_tries):
        history = LikelihoodTrace(trail, float(g), bool(g > tol), int(tries))
        if any(b < a - 1e-12 for a, b in zip(history, history[1:])):
            raise RuntimeError("likelihood decreased")
        out.append((as_state(rho, dim, dim, clip_tol=1e-6), history))
    return out


def bootstrap_error(
    record: CountsRecord,
    statistic,
    n_boot: int = 50,
    seed: int = 0,
    max_iter: int = 2000,
    tol: float = 0.1,
) -> tuple[float, float]:
    """Mean and standard deviation of a statistic over Poisson-resampled counts.

    ``statistic`` maps a reconstructed state to a float.  Each resample is reconstructed
    to a certified gap of ``tol`` nats per record, as one stack.
    """
    if n_boot < 10:
        raise ValueError("need at least 10 bootstrap resamples")
    rng = np.random.default_rng(seed)
    resamples = [
        CountsRecord(rng.poisson(record.counts), record.shots, record.seed, record.frame_name, record.state_tag)
        for _ in range(n_boot)
    ]
    arr = np.asarray([statistic(rho) for rho, _ in mle_reconstruct_many(resamples, max_iter=max_iter, tol=tol)])
    return float(arr.mean()), float(arr.std(ddof=1))


def counts_to_csv(record: CountsRecord) -> str:
    """Header of basis labels followed by integer count rows."""
    frame = record.frame
    lines = ["setting," + ",".join(frame.labels)]
    for i, label in enumerate(frame.labels):
        lines.append(label + "," + ",".join(str(int(c)) for c in record.counts[i]))
    return "\n".join(lines) + "\n"


def counts_metadata_json(record: CountsRecord) -> str:
    return json.dumps(
        {
            "N": record.shots,
            "seed": record.seed,
            "frame": record.frame_name,
            "state_tag": record.state_tag,
        }
    )


def counts_from_csv(csv_text: str, metadata_json: str) -> CountsRecord:
    meta = json.loads(metadata_json)
    if not isinstance(meta, dict) or not {"N", "seed", "frame"} <= meta.keys():
        raise ValueError("counts metadata must be a JSON object with keys N, seed and frame")
    frame = frame_for(meta["frame"])
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("CSV has no header row")
    header = lines[0].split(",")
    if tuple(header[1:]) != frame.labels:
        raise ValueError("CSV header does not match the frame labels")
    if len(lines) - 1 != len(frame.labels):
        raise ValueError(f"CSV has {len(lines) - 1} count rows; the {meta['frame']!r} frame has {len(frame.labels)}")
    rows = []
    for label, line in zip(frame.labels, lines[1:]):
        cells = line.split(",")
        if cells[0] != label:
            raise ValueError("row label mismatch")
        if len(cells) != len(header):
            raise ValueError(f"count row {label!r} has {len(cells) - 1} cells; the header has {len(header) - 1}")
        rows.append([int(c) for c in cells[1:]])
    return CountsRecord(
        np.asarray(rows, dtype=np.int64), meta["N"], meta["seed"], meta["frame"], meta.get("state_tag", "")
    )
