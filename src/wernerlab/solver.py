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
projects onto the cone.  It is matrix-free apart from one Cholesky
factorization of I + A A^T (the constraint count stays small here), fully
deterministic, and certifies optimality through the duality gap.

The set-up that depends on the presolved (blocks, A, c) alone -- column
scale, scaled A and A^T, that factorization and the cone plan -- is memoised
in a small LRU keyed on the exact bytes of those three, so programs that
differ only in b (the steering see-saw) factor once.  A solve carries no
other state: a memoised set-up gives the same iterates, bit for bit, as a
fresh one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

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

    def blocks_of(self, prog: ConicProgram) -> list[np.ndarray]:
        """Split x into per-block values; PSD blocks come back as complex matrices."""
        out, pos = [], 0
        for bl in prog.blocks:
            seg = self.x[pos : pos + bl.size]
            out.append(mat_real(seg, bl.n) if bl.kind == PSD else seg.copy())
            pos += bl.size
        return out


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


class _ConeProjector:
    """Batched projection of the block-structured variable onto its cone.

    Every NONNEG entry clips through one index array, and each same-size PSD group is
    gathered and scattered through one (blocks, n*n) index array."""

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

    def project(self, x: np.ndarray) -> np.ndarray:
        out = x.copy()
        if self.nonneg is not None:
            out[self.nonneg] = np.maximum(x[self.nonneg], 0.0)
        for n, idx in self.psd:
            h = mat_real(x[idx], n)
            try:
                w, q = np.linalg.eigh(h)
            except np.linalg.LinAlgError:
                # LAPACK's default driver can fail to converge on a finite iterate; MRRR is independent
                pairs = [scipy.linalg.eigh(hb, driver="evr") for hb in h]
                w, q = np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])
            w = np.clip(w, 0.0, None)
            out[idx] = vec_real((q * w[:, None, :]) @ q.conj().transpose(0, 2, 1))
        return out


def _equilibrate(a: sp.csr_matrix, blocks: tuple[Block, ...]) -> np.ndarray:
    """Column scaling to unit column max; PSD blocks get one uniform column scale so
    the cone is preserved.  Rows keep their scale: scaling them would distort programs
    whose constraint map is already an isometry, such as the symmetry-reduced extensions."""
    col_max = abs(a).max(axis=0).toarray().ravel()
    pos = 0
    for bl in blocks:
        if bl.kind == PSD:
            col_max[pos : pos + bl.size] = col_max[pos : pos + bl.size].max()
        pos += bl.size
    return 1.0 / np.where(col_max > 0, col_max, 1.0)


class _Embedding:
    """Cached linear algebra for the self-dual embedding iteration.

    The factorisation of I + A A^T depends on A alone; :meth:`with_b` shares it with
    another right-hand side."""

    def __init__(self, prog: ConicProgram):
        self.A = prog.A.tocsr()
        self.AT = self.A.T.tocsr()
        self.c = prog.c
        self.n = prog.n
        gram = (self.A @ self.AT).toarray() + np.eye(prog.m)
        self.chol, _ = scipy.linalg.cho_factor(gram, lower=True)
        self._potrs = scipy.linalg.get_lapack_funcs("potrs", (self.chol,))
        self._bind(prog.b)

    def with_b(self, b: np.ndarray) -> _Embedding:
        """A copy that shares A, A^T and the factor, bound to right-hand side b."""
        emb = copy.copy(self)
        emb._bind(b)
        return emb

    def _bind(self, b: np.ndarray) -> None:
        self.b = b
        self.g = np.concatenate([self.c, -b])
        self.mg = self._solve_m(self.c, -b)
        self.mtg = self._solve_mt(self.c, -b)
        self.denom = 1.0 + float(self.g @ self.mg)

    def _gram_solve(self, r: np.ndarray) -> np.ndarray:
        """(I + A A^T)^-1 r from the cached factor, overwriting the fresh array r."""
        x, info = self._potrs(self.chol, r, lower=True, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
        return x

    def _solve_m(self, rx, ry):
        py = self._gram_solve(ry - self.A @ rx)
        return np.concatenate([rx + self.AT @ py, py])

    def _solve_mt(self, rx, ry):
        py = self._gram_solve(ry + self.A @ rx)
        return np.concatenate([rx - self.AT @ py, py])

    def solve(self, h: np.ndarray) -> np.ndarray:
        """Solve (I + Q) u = h for the skew embedding matrix Q."""
        n, ht = self.n, h[-1]
        rhs = h[:-1] - ht * self.g
        out = np.empty_like(h)
        py = self._gram_solve(rhs[n:] - self.A @ rhs[:n])
        np.add(rhs[:n], self.AT @ py, out=out[:n])
        out[n:-1] = py
        p = out[:-1]
        p -= self.mg * (float(self.mtg @ rhs) / self.denom)
        out[-1] = ht + float(self.g @ p)
        return out

    def apply_q(self, u: np.ndarray) -> np.ndarray:
        n = len(self.c)
        x, y, tau = u[:n], u[n:-1], u[-1]
        return np.concatenate(
            [-(self.AT @ y) + tau * self.c, self.A @ x - tau * self.b, [-float(self.c @ x) + float(self.b @ y)]]
        )


class _Setup:
    """Everything :func:`solve` derives from a presolved (blocks, A, c) alone: the column
    scale, the scaled objective, the embedding's factorisation and the cone plan."""

    def __init__(self, prog: ConicProgram):
        self.e_col = _equilibrate(prog.A, prog.blocks)
        a_s = (prog.A @ sp.diags(self.e_col)).tocsr()
        c_s = self.e_col * prog.c
        self.gamma = 1.0 / max(np.linalg.norm(c_s), 1e-6)
        c_s *= self.gamma
        self.emb = _Embedding(ConicProgram(prog.blocks, c_s, a_s, np.zeros(prog.m)))  # each solve binds its b
        self.proj = _ConeProjector(prog.blocks)
        self.at = prog.A.T.tocsr()
        self.cnorm = 1.0 + np.linalg.norm(prog.c)


SETUP_CACHE_SIZE = 4
_SETUPS: dict[tuple, _Setup] = {}  # least recently used first


def _setup_for(prog: ConicProgram) -> _Setup:
    """The memoised :class:`_Setup` of ``prog``, keyed on the exact bytes of its blocks, A and c."""
    a = prog.A
    key = (prog.blocks, a.shape, prog.c.tobytes())
    key += tuple((arr.dtype.str, arr.tobytes()) for arr in (a.indptr, a.indices, a.data))
    setup = _SETUPS.pop(key, None) or _Setup(prog)
    _SETUPS[key] = setup
    if len(_SETUPS) > SETUP_CACHE_SIZE:
        del _SETUPS[next(iter(_SETUPS))]
    return setup


def solve(
    prog: ConicProgram,
    tol: float = 1e-7,
    max_iter: int = 200000,
    over_relax: float = 1.5,
    check_every: int = 25,
) -> ConicSolution:
    """Run the operator-splitting iteration until the KKT residuals certify optimality.

    Deterministic for fixed inputs: a memoised set-up gives the same iterates as a fresh one.
    """
    prog = presolve(prog)
    n, m = prog.n, prog.m
    setup = _setup_for(prog)
    e_col, gamma, proj, at = setup.e_col, setup.gamma, setup.proj, setup.at
    beta = 1.0 / max(np.linalg.norm(prog.b), 1e-6)
    emb = setup.emb.with_b(prog.b * beta)
    bnorm = 1.0 + np.linalg.norm(prog.b)
    cnorm = setup.cnorm

    u = np.zeros(n + m + 1)
    v = np.zeros(n + m + 1)
    u[-1] = 1.0
    v[-1] = 1.0

    best = None
    it = 0
    for it in range(1, max_iter + 1):
        ut = emb.solve(u + v)
        r = over_relax * ut + (1.0 - over_relax) * u
        u_new = r - v
        u_new[:n] = proj.project(u_new[:n])
        u_new[-1] = max(u_new[-1], 0.0)
        v = v - r + u_new
        u = u_new

        if it % check_every != 0 and it != max_iter:
            continue
        tau = u[-1]
        if tau > 1e-9:
            # map the scaled iterate back to the original problem
            x = e_col * u[:n] / tau / beta
            y = u[n:-1] / tau / gamma
            z = v[:n] / e_col / tau / gamma
            pres = np.linalg.norm(prog.A @ x - prog.b) / bnorm
            dres = np.linalg.norm(at @ y + z - prog.c) / cnorm
            pobj = float(prog.c @ x)
            dobj = float(prog.b @ y)
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            crit = max(pres, dres, gap)
            if best is None or crit < best[0]:
                best = (crit, x.copy(), y.copy(), pobj, dobj)
            if crit <= tol:
                return ConicSolution(
                    x, y, pobj, dobj, "OPTIMAL", abs(pobj - dobj) / (1.0 + abs(pobj)), it
                )
        else:
            # tau collapsed: look for infeasibility / unboundedness certificates
            uy = u[n:-1]
            ux = e_col * u[:n]
            by = float(prog.b @ uy)
            if by > 1e-12:
                resid = np.linalg.norm(at @ uy + v[:n] / e_col)
                if by / max(resid, 1e-300) > 1e6:
                    return ConicSolution(
                        np.zeros(n), uy / by, np.inf, np.inf, "INFEASIBLE", np.inf, it
                    )
            cx = float(prog.c @ ux)
            if cx < -1e-12:
                resid = np.linalg.norm(prog.A @ ux)
                if (-cx) / max(resid, 1e-300) > 1e6:
                    return ConicSolution(
                        ux / (-cx), np.zeros(m), -np.inf, -np.inf, "UNBOUNDED", np.inf, it
                    )

    if best is not None:
        _, x, y, pobj, dobj = best
        return ConicSolution(x, y, pobj, dobj, "MAX_ITER", abs(pobj - dobj) / (1.0 + abs(pobj)), it)
    return ConicSolution(np.zeros(n), np.zeros(m), np.nan, np.nan, "MAX_ITER", np.inf, it)


def dump_program(prog: ConicProgram) -> str:
    """Line-oriented text dump (block table header, then one triplet per line)."""
    lines = ["CONICPROG 1", f"BLOCKS {len(prog.blocks)}"]
    lines += [f"{bl.kind} {bl.n}" for bl in prog.blocks]
    cnz = np.nonzero(prog.c)[0]
    lines.append(f"OBJ {len(cnz)}")
    lines += [f"{i} {float(prog.c[i])!r}" for i in cnz]
    coo = prog.A.tocoo()
    lines.append(f"A {prog.m} {prog.n} {coo.nnz}")
    order = np.lexsort((coo.col, coo.row))
    lines += [f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}" for k in order]
    bnz = np.nonzero(prog.b)[0]
    lines.append(f"RHS {len(bnz)}")
    lines += [f"{i} {float(prog.b[i])!r}" for i in bnz]
    lines.append("END")
    return "\n".join(lines) + "\n"


def load_program(text: str) -> ConicProgram:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split()[0] != "CONICPROG":
        raise ValueError("not a conic program dump")
    pos = 1
    nblocks = int(lines[pos].split()[1])
    pos += 1
    blocks = []
    for _ in range(nblocks):
        kind, nstr = lines[pos].split()
        blocks.append(Block(kind, int(nstr)))
        pos += 1
    n = sum(bl.size for bl in blocks)
    nnz_c = int(lines[pos].split()[1])
    pos += 1
    c = np.zeros(n)
    for _ in range(nnz_c):
        i, val = lines[pos].split()
        c[int(i)] = float(val)
        pos += 1
    _, mstr, nstr, nnz_str = lines[pos].split()
    m, n_check, nnz = int(mstr), int(nstr), int(nnz_str)
    if n_check != n:
        raise ValueError("variable count mismatch in dump")
    pos += 1
    rows, cols, vals = [], [], []
    for _ in range(nnz):
        i, j, val = lines[pos].split()
        rows.append(int(i))
        cols.append(int(j))
        vals.append(float(val))
        pos += 1
    nnz_b = int(lines[pos].split()[1])
    pos += 1
    b = np.zeros(m)
    for _ in range(nnz_b):
        i, val = lines[pos].split()
        b[int(i)] = float(val)
        pos += 1
    if lines[pos] != "END":
        raise ValueError("missing END marker")
    a = sp.csr_matrix((vals, (rows, cols)), shape=(m, n))
    return ConicProgram(tuple(blocks), c, a, b)


def lp_vertex_enumeration_check(prog: ConicProgram) -> float:
    """Exact small-LP optimum by enumerating basic feasible points.

    Independent oracle for cross-checking :func:`solve` on LPs with at most
    12 variables (after splitting free variables).  Assumes the optimum is
    attained at a vertex (bounded LP).
    """
    if any(bl.kind == PSD for bl in prog.blocks):
        raise ValueError("vertex enumeration only applies to LPs")
    # split free variables x = x+ - x- so the feasible set is pointed
    cols, c_std = [], []
    pos = 0
    a_dense = prog.A.toarray()
    for bl in prog.blocks:
        for j in range(pos, pos + bl.size):
            cols.append(a_dense[:, j])
            c_std.append(prog.c[j])
            if bl.kind == FREE:
                cols.append(-a_dense[:, j])
                c_std.append(-prog.c[j])
        pos += bl.size
    a_std = np.column_stack(cols)
    c_std = np.asarray(c_std)
    n_std = a_std.shape[1]
    if n_std > 12:
        raise ValueError(f"{n_std} variables exceed the 12-variable enumeration limit")
    rank = np.linalg.matrix_rank(a_std, tol=1e-10)
    bnorm = 1.0 + np.linalg.norm(prog.b)
    best = None
    for basis in combinations(range(n_std), rank):
        sub = a_std[:, basis]
        sol, *_ = np.linalg.lstsq(sub, prog.b, rcond=None)
        if np.linalg.norm(sub @ sol - prog.b) > 1e-9 * bnorm:
            continue
        if np.min(sol, initial=0.0) < -1e-9:
            continue
        x = np.zeros(n_std)
        x[list(basis)] = sol
        val = float(c_std @ x)
        if best is None or val < best:
            best = val
    if best is None:
        raise ValueError("no basic feasible point found (infeasible or degenerate input)")
    return best
