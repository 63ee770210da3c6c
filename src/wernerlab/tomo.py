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
through G^-1/2 at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import certify
from .qmat import DensityMatrix, as_state, dagger, kron, uhlmann_fidelity


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


def _product_projectors(frame: TomoFrame) -> np.ndarray:
    """Stacked projectors |v_i v_j><v_i v_j| with k = i*size + j."""
    locals_ = [np.outer(v, v.conj()) for v in frame.vectors]
    out = np.empty((frame.size**2, frame.dim**2, frame.dim**2), dtype=complex)
    for i, pi in enumerate(locals_):
        for j, pj in enumerate(locals_):
            out[i * frame.size + j] = kron(pi, pj)
    return out


def frame_rank(frame: TomoFrame) -> int:
    """Rank of the product-projector design matrix on Hermitian operators."""
    projs = _product_projectors(frame)
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
    projs = _product_projectors(frame)
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
        projs = _product_projectors(frame)
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
        # tr(E_k mu) = sum_ij E_k[i, j] mu[j, i]
        return np.maximum((self._rows @ mu.T.ravel()).real, 0.0)

    def r_operator(self, freqs: np.ndarray, probs: np.ndarray) -> np.ndarray:
        weights = freqs / np.maximum(probs, 1e-300)
        return (weights @ self._rows).reshape(self.d2, self.d2)


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
    total = record.counts.sum()
    if total <= 0:
        raise ValueError("all-zero counts cannot be reconstructed")
    engine = _engine_for(record.frame_name)
    freqs = record.counts.astype(float).ravel() / total
    d2 = engine.d2
    mu = np.eye(d2, dtype=complex) / d2
    mask = freqs > 0
    observed = freqs[mask]

    def loglik(probs):
        return float((observed * np.log(np.maximum(probs[mask], 1e-300))).sum())

    probs = engine.probabilities(mu)
    history = [loglik(probs)]
    for _ in range(max_iter):
        r = engine.r_operator(freqs, probs)
        step = 1.0
        while True:
            # diluted update (I + s R) mu (I + s R) keeps the likelihood climbing
            op = r if step == 1.0 else (np.eye(d2) + step * r) / (1 + step)
            cand = op @ mu @ op
            cand /= np.trace(cand).real
            cand = (cand + dagger(cand)) / 2
            cand_probs = engine.probabilities(cand)
            cand_ll = loglik(cand_probs)
            if cand_ll >= history[-1] - 1e-14 or step < 1e-6:
                break
            step /= 4
        if cand_ll < history[-1] - 1e-12:
            break  # numerically stuck; keep the monotone prefix
        gain = cand_ll - history[-1]
        mu, probs = cand, cand_probs
        history.append(cand_ll)
        if gain < tol * max(abs(cand_ll), 1.0):
            break
    if any(b < a - 1e-12 for a, b in zip(history, history[1:])):
        raise RuntimeError("likelihood decreased")
    rho = engine.g_isqrt @ mu @ engine.g_isqrt
    dim = engine.frame.dim
    return as_state(rho, dim, dim, clip_tol=1e-6), history


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
    values = []
    for _ in range(n_boot):
        resampled = rng.poisson(record.counts)
        rec = CountsRecord(resampled, record.shots, record.seed, record.frame_name, record.state_tag)
        rho = mle_reconstruct(rec, max_iter=max_iter, tol=tol)
        values.append(fn(rho))
    arr = np.asarray(values)
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
