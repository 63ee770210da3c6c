"""Self-contained conic solver for the LPs and SDPs used in this package.

Problems are stated in standard equality form

    minimize    c.x
    subject to  A x = b,   x in K,

where the variable splits into FREE, NONNEG and PSD blocks.  A Hermitian
n x n PSD block is vectorized over a real orthonormal basis (n real diagonal
entries followed by sqrt(2)-scaled real/imag parts of each upper off-diagonal
entry, row-major), so the cone projection is a real spectral clip.

The algorithm is ADMM-style operator splitting applied to the homogeneous
self-dual embedding: each iteration solves one cached linear system and
projects onto the cone.  It is matrix-free apart from the inverse of I + A A^T,
formed once from numpy's Cholesky factor (the constraint count stays small
here), fully deterministic, and certifies optimality through the duality gap.

The constraint map is a :class:`KronMap` A = kron(H, I_k) with a small dense H, whose
products are batched matrix products (the steering-robustness programs, built without
scipy), or a scipy CSR matrix, whose products go through scipy's sparse kernel (every
:class:`ConicProgram`: the extension SDPs, the nonlocal-content LP and loaded dumps).
scipy is imported only when a sparse program is built or loaded, or when the eigh
fallback runs (:data:`sp`, :data:`linalg`).

A :class:`Family` holds programs that share blocks, A and c and differ only in b (the
steering see-saw's): it derives the column scale, the scaled A and c, the Gram inverse
and the cone plan once, and its caller keeps it.  :meth:`Family.solve_many` is the one
iteration loop: the iterates of R right-hand sides form the rows of an (R, n + m + 1)
stack, R = 1 included; each product with A, A^T and the Gram inverse, cone projection
and exit test acts on all of them at once, and a row leaves the stack at the check
where it exits.  A dense product is a batch of one matrix product per row, never one
product over the whole stack, whose BLAS kernel (gemv for one row, gemm for more) would
depend on the stack width.  The exit test measures each row's residuals on the unscaled
A.  The projection clips 2 x 2 PSD blocks in closed form, from their eigenvalues m -+ r.  It
keeps a 3 x 3 block whose three Cholesky pivots are positive, zeroes one whose pivots are
all negative, and sends only the indefinite or singular rest to eigh; blocks of other
sides go through one batched eigh per block size.  Every operation acts row by row with
the same arithmetic whatever the stack width, so a program gives the same iterates and
exits, bit for bit, alone or in a batch.  :func:`solve` presolves one program and solves
it as the one row of a fresh family.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class _Lazy:
    """A module imported at its first attribute access."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self._name), attr)


# importing scipy costs about 0.2 s and 30 MB, which the commands that build no sparse program skip
sp = _Lazy("scipy.sparse")
linalg = _Lazy("scipy.linalg")

FREE = "free"
NONNEG = "nonneg"
PSD = "psd"


@dataclass(frozen=True)
class Block:
    """One variable block: kind in {free, nonneg, psd}; n is the PSD matrix side."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in (FREE, NONNEG, PSD):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("block size must be positive")

    @property
    def size(self) -> int:
        return self.n * self.n if self.kind == PSD else self.n


@lru_cache(maxsize=64)
def _vec_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major flat positions of the diagonal, the upper and the mirrored lower entries of an n x n matrix."""
    iu, ju = np.triu_indices(n, 1)
    return np.arange(n) * (n + 1), iu * n + ju, ju * n + iu


def vec_real(h: np.ndarray) -> np.ndarray:
    """Real orthonormal vectorization of a Hermitian matrix (isometric for Frobenius).

    Leading axes of ``h`` are a stack: each trailing n x n matrix is vectorized."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[-1]
    diag, upper, _ = _vec_index(n)
    flat = h.reshape(h.shape[:-2] + (n * n,))
    out = np.empty(flat.shape)
    out[..., :n] = flat[..., diag].real
    off = flat[..., upper]
    out[..., n::2] = np.sqrt(2.0) * off.real
    out[..., n + 1 :: 2] = np.sqrt(2.0) * off.imag
    return out


def mat_real(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vec_real`, over the same leading stack axes."""
    x = np.asarray(x, dtype=float)
    diag, upper, lower = _vec_index(n)
    h = np.zeros(x.shape[:-1] + (n * n,), dtype=complex)
    h[..., diag] = x[..., :n]
    off = (x[..., n::2] + 1j * x[..., n + 1 :: 2]) / np.sqrt(2.0)
    h[..., upper] = off
    h[..., lower] = off.conj()
    return h.reshape(x.shape[:-1] + (n, n))


def vec_real_map(n: int) -> sp.csr_matrix:
    """Sparse unitary U with U @ vec(H) = vec_real(H) for row-major vec(H); U^H inverts it."""
    iu, ju = np.triu_indices(n, 1)
    pair, upper, lower = n + 2 * np.arange(len(iu)), iu * n + ju, ju * n + iu
    rows = np.concatenate([np.arange(n), pair, pair, pair + 1, pair + 1])
    cols = np.concatenate([np.arange(n) * (n + 1), upper, lower, upper, lower])
    r = np.full(len(iu), np.sqrt(0.5))
    data = np.concatenate([np.ones(n), r, r, -1j * r, 1j * r])
    return sp.csr_matrix((data, (rows, cols)), shape=(n * n, n * n))


@dataclass
class ConicProgram:
    """min c.x s.t. A x = b with x partitioned into cone blocks."""

    blocks: tuple[Block, ...]
    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.A = sp.csr_matrix(self.A)
        n = sum(bl.size for bl in self.blocks)
        if self.c.shape != (n,):
            raise ValueError(f"objective length {self.c.shape} does not match blocks ({n})")
        if self.A.shape != (len(self.b), n):
            raise ValueError("constraint matrix shape mismatch")
        for arr in (self.c, self.b, self.A.data):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError("NaN or Inf in program data")

    @property
    def n(self) -> int:
        return sum(bl.size for bl in self.blocks)

    @property
    def m(self) -> int:
        return len(self.b)


@dataclass
class ConicSolution:
    x: np.ndarray
    y: np.ndarray
    primal_obj: float
    dual_obj: float
    status: str
    gap: float
    iterations: int = 0


def presolve(prog: ConicProgram) -> ConicProgram:
    """Drop exactly-zero and exactly-duplicated constraint rows.

    A zero row stores no entries and has |b| < 1e-14; a duplicate stores the same column
    indices and values, in the same order, with the same b as a row kept before it."""
    a = prog.A.tocsr()
    m = a.shape[0]
    counts = np.diff(a.indptr)
    live = np.flatnonzero((counts > 0) | (np.abs(prog.b) >= 1e-14))
    # one row of exact bit patterns per constraint: length, b, then padded indices and values;
    # adding 0.0 folds -0.0 into 0.0, which compare equal as floats
    width = int(counts.max(initial=0))
    keys = np.zeros((m, 2 + 2 * width), dtype=np.int64)
    keys[:, 0] = counts
    keys[:, 1] = (prog.b + 0.0).view(np.int64)
    rows = np.repeat(np.arange(m), counts)
    slot = 2 + np.arange(a.nnz) - np.repeat(a.indptr[:-1], counts)
    keys[rows, slot] = a.indices
    keys[rows, slot + width] = (np.asarray(a.data, dtype=float) + 0.0).view(np.int64)
    _, first = np.unique(keys[live].view(np.dtype((np.void, keys.itemsize * keys.shape[1]))), return_index=True)
    keep = live[np.sort(first)]
    if len(keep) == m:
        return prog
    return ConicProgram(prog.blocks, prog.c, a[keep], prog.b[keep])


def _project_psd2(x: np.ndarray) -> np.ndarray:
    """Projection of 2 x 2 Hermitian blocks onto the PSD cone, in their vec_real coordinates
    (a, d, sqrt(2) Re b, sqrt(2) Im b) along the last axis.

    The eigenvalues are m -+ r with m = (a + d)/2 and r = sqrt(((a - d)/2)^2 + |b|^2): a
    PSD block is kept, a negative semidefinite one goes to 0, and otherwise the positive
    part is (m + r)/(2r) (H - (m - r) I)."""
    a, d, re, im = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    m = 0.5 * (a + d)
    h = 0.5 * (a - d)
    r = np.sqrt(h * h + 0.5 * (re * re + im * im))
    lo, hi = m - r, m + r
    straddle = (lo < 0.0) & (hi > 0.0)  # implies r > 0
    scale = np.divide(hi, 2.0 * r, out=(lo >= 0.0).astype(float), where=straddle)
    out = x * scale[..., None]
    out[..., :2] -= (scale * np.where(straddle, lo, 0.0))[..., None]
    return out


def _pivots3(x: np.ndarray) -> np.ndarray:
    """The three LDL^H (Cholesky) pivots of 3 x 3 Hermitian blocks, stacked on a new first
    axis, from their vec_real coordinates (a, d, f, then sqrt(2) Re and Im of b = h01,
    c = h02 and e = h12) along the last axis.

    The pivots are a, d - |b|^2/a and f - |c|^2/a - |l|^2/p2 with l = e - conj(b) c / a; those
    of -H are exactly their negations, since rounding is symmetric in sign.  A zero pivot
    makes the later ones inf or nan, which compare false both ways."""
    a, d, f = x[..., 0], x[..., 1], x[..., 2]
    b, c, e = (np.sqrt(0.5) * (x[..., j] + 1j * x[..., j + 1]) for j in (3, 5, 7))
    with np.errstate(divide="ignore", invalid="ignore"):
        p2 = d - (b.real**2 + b.imag**2) / a
        l = e - b.conj() * c / a
        p3 = f - (c.real**2 + c.imag**2) / a - (l.real**2 + l.imag**2) / p2
    return np.stack([a, p2, p3])


def _project_psd_eigh(x: np.ndarray, n: int) -> np.ndarray:
    """Projection of a (blocks, n*n) stack of vec_real coordinates onto the PSD cone by eigh."""
    h = mat_real(x, n)
    try:
        w, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError:
        # LAPACK's default driver can fail to converge on a finite iterate; MRRR is independent
        pairs = [linalg.eigh(hb, driver="evr") for hb in h]
        w, q = np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])
    w = np.clip(w, 0.0, None)
    return vec_real((q * w[:, None, :]) @ q.conj().transpose(0, 2, 1))


class _ConeProjector:
    """Batched projection of the block-structured variable onto its cone.

    Every NONNEG entry clips through one index (a slice when the entries are contiguous),
    and each same-size PSD group is gathered and scattered through one (blocks, n*n) index
    array.  Leading axes of the input are a stack of variables.  Side-2 blocks project in
    closed form (:func:`_project_psd2`).  Side-3 blocks are first sorted by the signs of
    their Cholesky pivots (:func:`_pivots3`): a block with three positive pivots is kept
    as it is and one with three negative pivots goes to 0, and only the rest take eigh.  A
    Cholesky that completes in floating point puts the block within O(n eps |H|) of a PSD
    matrix (Demmel 1989; Higham, Accuracy and Stability, sec. 10.1), the accuracy of the
    eigh route.  Near a solution most side-3 blocks of the steering programs are definite.
    Any other side takes one eigh over every block of every row.  A closed form for the
    side-3 eigenproblem (trigonometric eigenvalues, cross-product eigenvectors) was about
    5e-9 off on the rank-1 and nearly degenerate blocks common near a solution, and barely
    faster than eigh."""

    def __init__(self, blocks: tuple[Block, ...]):
        groups: dict[tuple[str, int], list[int]] = {}
        pos = 0
        for bl in blocks:
            groups.setdefault((bl.kind, bl.n), []).append(pos)
            pos += bl.size
        nonneg, self.psd = [], []
        for (kind, n), offsets in groups.items():
            idx = np.asarray(offsets)[:, None] + np.arange(n * n if kind == PSD else n)
            if kind == PSD:
                self.psd.append((n, idx))
            elif kind == NONNEG:
                nonneg.append(idx.ravel())
        self.nonneg = np.concatenate(nonneg) if nonneg else None
        if self.nonneg is not None and np.array_equal(self.nonneg, np.arange(self.nonneg[0], self.nonneg[-1] + 1)):
            self.nonneg = slice(int(self.nonneg[0]), int(self.nonneg[-1]) + 1)

    def project(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The projection of x, written into ``out`` (which may be x itself) or a copy of x."""
        if out is None:
            out = x.copy()
        if self.nonneg is not None:
            out[..., self.nonneg] = np.maximum(x[..., self.nonneg], 0.0)
        for n, idx in self.psd:
            blocks = x[..., idx]
            if n == 2:
                out[..., idx] = _project_psd2(blocks)
            elif n == 3:
                pivots = _pivots3(blocks)
                positive, negative = np.all(pivots > 0.0, axis=0), np.all(pivots < 0.0, axis=0)
                blocks[negative] = 0.0
                mixed = ~(positive | negative)
                if mixed.any():
                    blocks[mixed] = _project_psd_eigh(blocks[mixed], 3)
                out[..., idx] = blocks
            else:
                out[..., idx] = _project_psd_eigh(blocks.reshape(-1, n * n), n).reshape(blocks.shape)
        return out


def _equilibrate(col_max: np.ndarray, blocks: tuple[Block, ...]) -> np.ndarray:
    """Column scaling to unit column max; PSD blocks get one uniform column scale so
    the cone is preserved.  Rows keep their scale: scaling them would distort programs
    whose constraint map is already an isometry, such as the symmetry-reduced extensions."""
    col_max = col_max.copy()
    pos = 0
    for bl in blocks:
        if bl.kind == PSD:
            col_max[pos : pos + bl.size] = col_max[pos : pos + bl.size].max()
        pos += bl.size
    return 1.0 / np.where(col_max > 0, col_max, 1.0)


class KronMap:
    """The constraint map A = kron(H, I_k): with x read as c blocks of k entries and A x as
    r blocks, block i of A x is sum_j H[i, j] x_j.

    Its products act on the rows of an (R, c k) or (R, r k) stack as one (c, k) or (r, k)
    matrix product per row, against H or a contiguous copy of H^T."""

    def __init__(self, h: np.ndarray, k: int):
        self.h = np.ascontiguousarray(h, dtype=float)
        self.ht = np.ascontiguousarray(self.h.T)
        self.k = k
        self.shape = (self.h.shape[0] * k, self.h.shape[1] * k)
        for arr in (self.h, self.ht):
            arr.flags.writeable = False

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A x for each row x of the stack."""
        r, c = self.h.shape
        return np.matmul(self.h, x.reshape(len(x), c, self.k)).reshape(len(x), r * self.k)

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """A^T y for each row y of the stack."""
        r, c = self.h.shape
        return np.matmul(self.ht, y.reshape(len(y), r, self.k)).reshape(len(y), c * self.k)

    def col_max(self) -> np.ndarray:
        return np.repeat(np.abs(self.h).max(axis=0), self.k)

    def scaled(self, e: np.ndarray) -> KronMap:
        """A diag(e), for a column scale e that is constant on each block of k columns."""
        return KronMap(self.h * e[:: self.k], self.k)

    def gram(self) -> tuple[np.ndarray, int]:
        """(G, k) with A A^T = kron(G, I_k)."""
        return self.h @ self.ht, self.k


class _CSRMap:
    """A constraint map held as a CSR matrix and its transpose; products use scipy's kernel."""

    def __init__(self, a):
        self.a = sp.csr_matrix(a, copy=True)
        self.at = self.a.T.tocsr()
        self.shape = self.a.shape

    def dot(self, x: np.ndarray) -> np.ndarray:
        return (self.a @ x.T).T

    def tdot(self, y: np.ndarray) -> np.ndarray:
        return (self.at @ y.T).T

    def col_max(self) -> np.ndarray:
        return abs(self.a).max(axis=0).toarray().ravel()

    def scaled(self, e: np.ndarray) -> _CSRMap:
        return _CSRMap(self.a @ sp.diags(e))

    def gram(self) -> tuple[np.ndarray, int]:
        return (self.a @ self.at).toarray(), 1


class Family:
    """Programs that share blocks, A and c and differ only in b, prepared once: the column
    scale, the scaled A and c, the inverse of I + A A^T and the cone plan.

    A is a :class:`KronMap` or a scipy sparse matrix.  Its linear algebra acts on stacks,
    one row per program; the vectors that depend on b come from :meth:`b_vectors` and stay
    with the caller.  A family does not presolve."""

    def __init__(self, blocks: tuple[Block, ...], c: np.ndarray, A):
        self.a = A if isinstance(A, KronMap) else _CSRMap(A)  # unscaled, for the exit test
        self.e_col = _equilibrate(self.a.col_max(), blocks)
        self.A = self.a.scaled(self.e_col)
        c_s = self.e_col * c
        self.gamma = 1.0 / max(np.linalg.norm(c_s), 1e-6)
        self.c = c_s * self.gamma
        gram, k = self.A.gram()
        # G^-1 = L^-T L^-1 from the Cholesky factor L of G = I + A A^T (A A^T is kron(gram, I_k))
        l_inv = np.linalg.inv(np.linalg.cholesky(gram + np.eye(len(gram))))
        self.g_inv = KronMap(l_inv.T @ l_inv, k)
        self.proj = _ConeProjector(blocks)
        self.c0 = np.array(c, dtype=float)
        self.cnorm = 1.0 + np.linalg.norm(c)

    def _solve_m(self, r: np.ndarray, out: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """M^-1 r for sign 1 and M^-T r for sign -1, where M = [[I, -A^T], [A, I]], for each
        row r = (rx, ry) of the stack, written into ``out``: ry -+ A rx goes through the
        inverse of I + A A^T."""
        n = len(self.c)
        py = self.g_inv.dot(r[:, n:] - sign * self.A.dot(r[:, :n]))
        np.add(r[:, :n], sign * self.A.tdot(py), out=out[:, :n])
        out[:, n:] = py
        return out

    def b_vectors(self, b: np.ndarray) -> tuple[np.ndarray, ...]:
        """For scaled right-hand sides b, one per row: g = (c, -b), M^-1 g, M^-T g and 1 + g.M^-1 g."""
        g = np.concatenate([np.broadcast_to(self.c, (len(b), len(self.c))), -b], axis=1)
        mg = self._solve_m(g, np.empty_like(g))
        return g, mg, self._solve_m(g, np.empty_like(g), -1.0), 1.0 + np.vecdot(g, mg)

    def kkt(self, h, g, mg, mtg, denom) -> np.ndarray:
        """Solve (I + Q) u = h for the skew embedding matrix Q = [[M - I, g], [-g^T, 0]], for
        each row of h and of the :meth:`b_vectors` of its program."""
        rhs = h[:, :-1] - h[:, -1:] * g
        out = np.empty_like(h)
        p = self._solve_m(rhs, out[:, :-1])
        p -= mg * (np.vecdot(mtg, rhs) / denom)[:, None]
        out[:, -1] = h[:, -1] + np.vecdot(g, p)
        return out

    def solve_many(self, b: np.ndarray, tol: float = 1e-7, max_iter: int = 200000) -> list[ConicSolution]:
        """The solution of the family's program for each row of an (R, m) stack of right-hand
        sides, every step, the exit test included, acting on the whole stack as the module
        docstring describes.  Raises ValueError unless b is a finite (R, m) array, ``tol`` is
        finite and positive and ``max_iter`` is at least 1."""
        b = np.asarray(b, dtype=float)
        n, m = len(self.c), self.A.shape[0]
        if b.ndim != 2 or b.shape[1] != m or not np.all(np.isfinite(b)):
            raise ValueError(f"b must be a finite (R, {m}) array, got shape {b.shape}")
        if not (np.isfinite(tol) and tol > 0):
            raise ValueError("tol must be finite and positive")
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        norm = np.sqrt(np.vecdot(b, b))
        beta, bnorm = 1.0 / np.maximum(norm, 1e-6), 1.0 + norm
        g, mg, mtg, denom = self.b_vectors(b * beta[:, None])
        live = list(range(len(b)))  # the program of each row
        results: list[ConicSolution | None] = [None] * len(b)
        best: list[tuple | None] = [None] * len(b)

        u = np.zeros((len(b), n + m + 1))
        u[:, -1] = 1.0
        v = u.copy()

        it = 0
        for it in range(1, max_iter + 1):
            ut = self.kkt(u + v, g, mg, mtg, denom)
            r = OVER_RELAX * ut + (1.0 - OVER_RELAX) * u
            u_new = r - v
            x = u_new[:, :n]
            self.proj.project(x, out=x)
            u_new[:, -1] = np.maximum(u_new[:, -1], 0.0)
            v = v - r + u_new
            u = u_new

            if it % CHECK_EVERY != 0 and it != max_iter:
                continue
            crit, rows = _check(self, b, beta, bnorm, u, v)
            for k, crit_k, (x, y, pobj, dobj, gap, status) in zip(live, crit, rows):
                if status is None and (best[k] is None or crit_k < best[k][0]):
                    best[k] = (crit_k, x, y, pobj, dobj, gap)
                if status or (status is None and crit_k <= tol):
                    results[k] = ConicSolution(x, y, pobj, dobj, status or "OPTIMAL", gap, it)
            keep = [i for i, k in enumerate(live) if results[k] is None]
            if not keep:
                return results
            if len(keep) < len(live):
                u, v, b, beta, bnorm, g, mg, mtg, denom = (arr[keep] for arr in (u, v, b, beta, bnorm, g, mg, mtg, denom))
                live = [live[i] for i in keep]

        for k in live:
            _, x, y, pobj, dobj, gap = best[k] or (None, np.zeros(n), np.zeros(m), np.nan, np.nan, np.inf)
            results[k] = ConicSolution(x, y, pobj, dobj, "MAX_ITER", gap, it)
        return results


OVER_RELAX = 1.5  # relaxation of the splitting step
CHECK_EVERY = 25  # iterations between exit tests


def solve(prog: ConicProgram, tol: float = 1e-7, max_iter: int = 200000) -> ConicSolution:
    """Run the operator-splitting iteration until the KKT residuals certify optimality:
    the presolved program as the one row of a fresh :class:`Family`.  Deterministic."""
    prog = presolve(prog)
    return Family(prog.blocks, prog.c, prog.A).solve_many(prog.b[None], tol=tol, max_iter=max_iter)[0]


def _norms(r: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of r, from one contiguous dot per row: np.linalg.norm's bits."""
    r = np.ascontiguousarray(r)
    return np.sqrt(np.vecdot(r, r))


def _check(family, b, beta, bnorm, u, v):
    """The exit test on every row of the iterate stack (u, v), whose programs have the
    original right-hand sides b.  Returns crit and, per row, (x, y, primal and dual
    objective, reported gap, status).  A row with tau > 1e-9 maps back to the original
    problem, with crit = max(pres, dres, gap) and status None.  A row whose tau collapsed
    holds its INFEASIBLE or UNBOUNDED certificate, or status "" if it proves neither."""
    n, gamma, c = len(family.c), family.gamma, family.c0
    tau = u[:, -1:]
    ux, uy, uz = family.e_col * u[:, :n], u[:, n:-1], v[:, :n] / family.e_col  # x, y and z times tau (and beta or gamma)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # collapsed rows are overwritten
        x = ux / tau / beta[:, None]
        y = uy / tau / gamma
        pobj, dobj = np.vecdot(x, c), np.vecdot(y, b)
        pres = _norms(family.a.dot(x) - b) / bnorm
        dres = _norms(family.a.tdot(y) + uz / tau / gamma - c) / family.cnorm
        crit = np.maximum(np.maximum(pres, dres), np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj)))
        gap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj))
        status = np.full(len(u), None)
        cut = np.flatnonzero(~(tau[:, 0] > 1e-9))
        if len(cut):  # tau collapsed: look for infeasibility and unboundedness certificates
            ux, uy, uz = ux[cut], uy[cut], uz[cut]
            by, cx = np.vecdot(uy, b[cut]), np.vecdot(ux, c)
            ry, rx = _norms(family.a.tdot(uy) + uz), _norms(family.a.dot(ux))
            infeasible = (by > 1e-12) & (by / np.maximum(ry, 1e-300) > 1e6)
            unbounded = ~infeasible & (cx < -1e-12) & (-cx / np.maximum(rx, 1e-300) > 1e6)
            x[cut] = np.where(unbounded[:, None], ux / -cx[:, None], 0.0)
            y[cut] = np.where(infeasible[:, None], uy / by[:, None], 0.0)
            pobj[cut] = dobj[cut] = np.where(infeasible, np.inf, -np.inf)
            gap[cut] = np.inf
            status[cut] = np.where(infeasible, "INFEASIBLE", np.where(unbounded, "UNBOUNDED", ""))
    return crit, list(zip(x, y, pobj.tolist(), dobj.tolist(), gap.tolist(), status))


def dump_program(prog: ConicProgram) -> str:
    """Line-oriented text dump (block table header, then one triplet per line)."""
    lines = ["CONICPROG 1", f"BLOCKS {len(prog.blocks)}"]
    lines += [f"{bl.kind} {bl.n}" for bl in prog.blocks]
    cnz = np.nonzero(prog.c)[0]
    lines.append(f"OBJ {len(cnz)}")
    lines += [f"{i} {float(prog.c[i])!r}" for i in cnz]
    coo = prog.A.tocoo()
    coo.sum_duplicates()  # one triplet per entry, as load_program requires
    lines.append(f"A {prog.m} {prog.n} {coo.nnz}")
    order = np.lexsort((coo.col, coo.row))
    lines += [f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}" for k in order]
    bnz = np.nonzero(prog.b)[0]
    lines.append(f"RHS {len(bnz)}")
    lines += [f"{i} {float(prog.b[i])!r}" for i in bnz]
    lines.append("END")
    return "\n".join(lines) + "\n"


def load_program(text: str) -> ConicProgram:
    """Parse a :func:`dump_program` dump.  Raises ValueError on a malformed or truncated dump,
    on an entry whose index lies outside the program or repeats an earlier one, and on any line
    after END."""
    lines = iter([ln.split() for ln in text.splitlines() if ln.strip()])

    def fields(tag: str | None, count: int) -> list[str]:
        ln = next(lines, None)
        if ln is None:
            raise ValueError("truncated dump")
        if len(ln) != count or (tag is not None and ln[0] != tag):
            raise ValueError(f"malformed line {' '.join(ln)!r}, expected {tag or 'an entry'}")
        return ln

    def index(field: str, size: int) -> int:
        i = int(field)
        if not 0 <= i < size:
            raise ValueError(f"index {i} outside [0, {size})")
        return i

    def once(tag: str, keys: list) -> list:
        seen = set()
        for key in keys:
            if key in seen:
                raise ValueError(f"repeated {tag} index {key}")
            seen.add(key)
        return keys

    def vector(tag: str, size: int) -> np.ndarray:
        entries = [fields(None, 2) for _ in range(int(fields(tag, 2)[1]))]
        out = np.zeros(size)
        out[once(tag, [index(i, size) for i, _ in entries])] = [float(val) for _, val in entries]
        return out

    if next(lines, [""])[0] != "CONICPROG":
        raise ValueError("not a conic program dump")
    nblocks = int(fields("BLOCKS", 2)[1])
    blocks = tuple(Block(kind, int(side)) for kind, side in (fields(None, 2) for _ in range(nblocks)))
    n = sum(bl.size for bl in blocks)
    c = vector("OBJ", n)
    _, m, n_check, nnz = fields("A", 4)
    m = int(m)
    if int(n_check) != n:
        raise ValueError("variable count mismatch in dump")
    triplets = [fields(None, 3) for _ in range(int(nnz))]
    rows = [index(i, m) for i, _, _ in triplets]
    cols = [index(j, n) for _, j, _ in triplets]
    once("A", list(zip(rows, cols)))
    a = sp.csr_matrix(([float(val) for _, _, val in triplets], (rows, cols)), shape=(m, n))
    b = vector("RHS", m)
    fields("END", 1)
    trailing = next(lines, None)
    if trailing is not None:
        raise ValueError(f"line {' '.join(trailing)!r} after END")
    return ConicProgram(blocks, c, a, b)
