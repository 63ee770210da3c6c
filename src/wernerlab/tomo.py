"""Coincidence-count simulation and iterative maximum-likelihood reconstruction.

The measurement model mirrors a path-encoded photonic setup: each side projects onto one of
nine fixed path vectors (or six polarization vectors after filtering), and the
recorded coincidences are Poissonian in the product-projector overlaps.

The reconstruction is the iterative R rho R algorithm.  The raw frame is
overcomplete but not a POVM (the projectors do not sum to the identity), so
internally the iteration runs in the frame-normalized picture: with
G = sum_k Pi_k, the operators G^-1/2 Pi_k G^-1/2 form a genuine POVM, the
transformed state is mu = G^1/2 rho G^1/2 (normalized), and the multinomial
log-likelihood of the R mu R update is provably nondecreasing (a diluted
fallback step guards the few degenerate cases).  The estimate is pulled back
through G^-1/2 at the end.  :func:`mle_reconstruct_many` reconstructs records
of one frame as the rows of one lockstep stack, as the
:mod:`~wernerlab.certify` module docstring describes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import certify
from .qmat import DensityMatrix, as_state, dagger, uhlmann_fidelity


@dataclass(frozen=True)
class TomoFrame:
    """Local measurement vectors with their human-readable labels."""

    name: str
    labels: tuple[str, ...]
    vectors: tuple[np.ndarray, ...]

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
    try:
        return FRAMES[name]()
    except KeyError:
        raise ValueError(f"unknown tomography frame {name!r}") from None


def _build_product_projectors(frame: TomoFrame) -> np.ndarray:
    """Stacked projectors |v_i v_j><v_i v_j| with k = i*size + j."""
    v = np.asarray(frame.vectors, dtype=complex)
    p = v[:, :, None] * v.conj()[:, None, :]  # |v_i><v_i|
    n = frame.dim**2
    # (i, j, a, b, c, e) -> p_i[a, c] p_j[b, e], the kron of the pair
    return (p[:, None, :, None, :, None] * p[None, :, None, :, None, :]).reshape(frame.size**2, n, n)


@lru_cache(maxsize=None)
def _product_projectors(frame_name: str) -> np.ndarray:
    """Read-only product projectors of a registered frame, built on first use."""
    projs = _build_product_projectors(frame_for(frame_name))
    projs.flags.writeable = False
    return projs


def frame_rank(frame: TomoFrame) -> int:
    """Rank of the product-projector design matrix on Hermitian operators."""
    projs = _build_product_projectors(frame)
    design = projs.reshape(len(projs), -1)
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
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("counts must be a square table")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("counts must be finite and nonnegative")
        object.__setattr__(self, "counts", arr.astype(np.int64))

    @property
    def frame(self) -> TomoFrame:
        return frame_for(self.frame_name)


def expected_probabilities(rho: DensityMatrix, frame: TomoFrame | None = None) -> np.ndarray:
    """Noise-free overlap table p[i, j] = <v_i v_j| rho |v_i v_j>."""
    frame = frame or frame_for("qutrit9" if rho.dimA == 3 else "qubit6")
    if frame.dim != rho.dimA or frame.dim != rho.dimB:
        raise ValueError("frame dimension does not match the state")
    projs = _product_projectors(frame.name)
    p = np.einsum("kij,ji->k", projs, rho.mat).real
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


class _MleEngine:
    def __init__(self, frame: TomoFrame):
        self.frame = frame
        d2 = frame.dim**2
        projs = _product_projectors(frame.name)
        g = projs.sum(axis=0)
        w, q = np.linalg.eigh(g)
        if w[0] <= 1e-12:
            raise ValueError("tomography frame is rank deficient")
        self.g_isqrt = (q * (1.0 / np.sqrt(w))) @ dagger(q)
        self.g_sqrt = (q * np.sqrt(w)) @ dagger(q)
        self.povm = np.einsum("ab,kbc,cd->kad", self.g_isqrt, projs, self.g_isqrt)
        self._rows = self.povm.reshape(len(projs), d2 * d2)  # row k is E_k flattened
        self.d2 = d2

    def probabilities(self, mu: np.ndarray) -> np.ndarray:
        """tr(E_k mu) for a matrix or each of a stack, one matrix-vector product per matrix."""
        # tr(E_k mu) = sum_ij E_k[i, j] mu[j, i]
        vec = mu.swapaxes(-1, -2).reshape(*mu.shape[:-2], -1, 1)
        return np.maximum((self._rows @ vec)[..., 0].real, 0.0)

    def r_operator(self, freqs: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """R = sum_k (f_k / p_k) E_k for a row of frequencies or each of a stack."""
        weights = freqs / np.maximum(probs, 1e-300)
        return (weights[..., None, :] @ self._rows).reshape(*probs.shape[:-1], self.d2, self.d2)


@lru_cache(maxsize=None)
def _engine_for(frame_name: str) -> _MleEngine:
    """One engine per registered frame: the POVM depends on the frame alone."""
    return _MleEngine(frame_for(frame_name))


def mle_reconstruct(
    record: CountsRecord, max_iter: int = 5000, tol: float = 1e-10
) -> DensityMatrix:
    """Iterative maximum-likelihood state estimate from a counts record."""
    rho, _ = mle_reconstruct_with_history(record, max_iter=max_iter, tol=tol)
    return rho


def mle_reconstruct_with_history(
    record: CountsRecord, max_iter: int = 5000, tol: float = 1e-10
) -> tuple[DensityMatrix, list[float]]:
    """MLE estimate plus the per-iteration log-likelihood trace (bits-free units)."""
    return mle_reconstruct_many([record], max_iter=max_iter, tol=tol)[0]


class _Loglik:
    """Each row's multinomial log-likelihood, summed over its observed settings only.

    A row's sum is numpy's pairwise sum over that row's observed terms alone:
    rows with the same number of observed settings are gathered into one
    (rows, n) block and summed along it, which adds in the same order as the
    row's own 1-D sum.  Zero-filling the unobserved terms instead would
    regroup the additions.
    """

    def __init__(self, freqs: np.ndarray):
        self.freqs = freqs
        observed = freqs > 0
        self.counts = observed.sum(axis=1)
        cols = np.argsort(~observed, axis=1, kind="stable")  # observed settings first, in order
        self.blocks = []
        for n in np.unique(self.counts):
            (rows,) = np.nonzero(self.counts == n)
            self.blocks.append((rows, cols[rows, :n]))

    def keep(self, keep: np.ndarray) -> _Loglik:
        return _Loglik(self.freqs[keep])

    def __call__(self, probs: np.ndarray) -> np.ndarray:
        terms = self.freqs * np.log(np.maximum(probs, 1e-300))
        if len(self.blocks) == 1 and self.counts[0] == terms.shape[1]:
            return terms.sum(axis=1)
        out = np.empty(len(terms))
        for rows, cols in self.blocks:
            out[rows] = terms[rows[:, None], cols].sum(axis=1)
        return out


def mle_reconstruct_many(
    records: list[CountsRecord], max_iter: int = 5000, tol: float = 1e-10
) -> list[tuple[DensityMatrix, list[float]]]:
    """MLE estimates with their log-likelihood traces for counts records of one frame, in lockstep.

    The records are the rows of one R rho R loop.  Each tick tries one step on
    every row still running: the full step R mu R at a row's first try, then
    diluted steps (I + s R) mu (I + s R) with s divided by 4 until the
    likelihood does not fall (or s < 1e-6).  A row leaves when it is stuck
    (its accepted step still loses more than 1e-12), when its gain falls below
    ``tol`` relative to its likelihood, or after ``max_iter`` accepted steps.
    """
    if not records:
        raise ValueError("no counts records to reconstruct")
    names = {rec.frame_name for rec in records}
    if len(names) > 1:
        raise ValueError("records reconstructed together must share one frame")
    engine = _engine_for(names.pop())
    counts = np.array([rec.counts.ravel() for rec in records])
    total = counts.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("all-zero counts cannot be reconstructed")
    freqs = counts.astype(float) / total
    d2 = engine.d2
    loglik = _Loglik(freqs)
    rows = np.arange(len(records))
    mu = np.broadcast_to(np.eye(d2, dtype=complex) / d2, (len(rows), d2, d2)).copy()
    probs = engine.probabilities(mu)
    ll = loglik(probs)
    step = np.ones(len(rows))
    moves = np.zeros(len(rows), dtype=int)
    start_ll, final_mu, final_moves = ll.tolist(), np.empty_like(mu), np.zeros(len(rows), dtype=int)
    accepted = [(rows[:0], ll[:0])]  # (rows, log-likelihoods) of each tick's accepted steps
    eye = np.eye(d2)
    leave = moves >= max_iter
    while True:
        if leave.any():
            final_mu[rows[leave]], final_moves[rows[leave]] = mu[leave], moves[leave]
            keep = ~leave
            rows, mu, probs, ll, step, moves = rows[keep], mu[keep], probs[keep], ll[keep], step[keep], moves[keep]
            loglik, freqs = loglik.keep(keep), freqs[keep]
            if not rows.size:
                break
        r = engine.r_operator(freqs, probs)  # a row still in its line search gets the same R again
        s = step[:, None, None]
        # diluted update (I + s R) mu (I + s R) keeps the likelihood climbing
        op = r if (step == 1.0).all() else np.where(s == 1.0, r, (eye + s * r) / (1 + s))
        cand = op @ mu @ op
        cand /= np.trace(cand, axis1=-2, axis2=-1).real[:, None, None]
        cand = (cand + dagger(cand)) / 2
        cand_probs = engine.probabilities(cand)
        cand_ll = loglik(cand_probs)
        done = (cand_ll >= ll - 1e-14) | (step < 1e-6)
        stuck = cand_ll < ll - 1e-12  # numerically stuck; keep the monotone prefix
        took = done & ~stuck
        gain = cand_ll - ll
        if took.all():
            mu, probs, ll = cand, cand_probs, cand_ll
            accepted.append((rows, cand_ll))
        else:
            mu = np.where(took[:, None, None], cand, mu)
            probs = np.where(took[:, None], cand_probs, probs)
            ll = np.where(took, cand_ll, ll)
            accepted.append((rows[took], cand_ll[took]))
        moves += took
        step = np.where(done, 1.0, step / 4)
        leave = (done & stuck) | (took & (gain < tol * np.maximum(np.abs(cand_ll), 1.0))) | (moves >= max_iter)
    order = np.argsort(np.concatenate([a for a, _ in accepted]), kind="stable")
    trails = np.split(np.concatenate([b for _, b in accepted])[order], np.cumsum(final_moves)[:-1])
    rhos = engine.g_isqrt @ final_mu @ engine.g_isqrt
    dim = engine.frame.dim
    out = []
    for first, trail, rho in zip(start_ll, trails, rhos):
        history = [first, *trail.tolist()]
        if any(b < a - 1e-12 for a, b in zip(history, history[1:])):
            raise RuntimeError("likelihood decreased")
        out.append((as_state(rho, dim, dim, clip_tol=1e-6), history))
    return out


STATISTICS = {
    "ppt_min_eig": lambda rho: certify.ppt_min_eig(rho).value,
    "chsh": lambda rho: certify.chsh_horodecki(rho).value,
    "fef2": certify.fef2_exact,
    "dense_coding": lambda rho: certify.dense_coding_delta(rho).value,
}


def bootstrap_error(
    record: CountsRecord,
    statistic,
    n_boot: int = 50,
    seed: int = 0,
    max_iter: int = 2000,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Mean and standard deviation of a statistic over Poisson-resampled counts.

    ``statistic`` is a certificate name from :data:`STATISTICS` or any callable
    mapping a reconstructed state to a float.
    """
    if n_boot < 10:
        raise ValueError("need at least 10 bootstrap resamples")
    fn = STATISTICS[statistic] if isinstance(statistic, str) else statistic
    rng = np.random.default_rng(seed)
    resamples = [
        CountsRecord(rng.poisson(record.counts), record.shots, record.seed, record.frame_name, record.state_tag)
        for _ in range(n_boot)
    ]
    arr = np.asarray([fn(rho) for rho, _ in mle_reconstruct_many(resamples, max_iter=max_iter, tol=tol)])
    return float(arr.mean()), float(arr.std(ddof=1))


def fidelity_to(target: DensityMatrix):
    """Statistic factory: fidelity of the reconstruction against a fixed target."""
    return lambda rho: uhlmann_fidelity(rho, target)


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
    frame = frame_for(meta["frame"])
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    if tuple(header[1:]) != frame.labels:
        raise ValueError("CSV header does not match the frame labels")
    rows = []
    for label, line in zip(frame.labels, lines[1:]):
        cells = line.split(",")
        if cells[0] != label:
            raise ValueError("row label mismatch")
        rows.append([int(c) for c in cells[1:]])
    return CountsRecord(
        np.asarray(rows, dtype=np.int64), meta["N"], meta["seed"], meta["frame"], meta.get("state_tag", "")
    )
