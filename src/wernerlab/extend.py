"""Symmetric extension, symmetric quasi-extension and bosonic symmetric
extension SDPs, with critical-weight extraction.

A state rho_AB is (k,1)- or (1,k)-extendible when a (k+1)-partite operator
exists whose every single-copy marginal recovers rho_AB.  Each flavor is cast
as: minimize t subject to  tr_(all copies but i) X = rho + (t-1) I/D, with X
positive (SE), a decomposable-witness combination P + sum_p Q_p^(T_p) (SQE),
or supported on the permutation-symmetric subspace of the copies (SE-B).
t* <= 1 certifies that the extension exists.

SE and SE-B search only extensions invariant under permutations of the k
copies, which loses nothing: averaging an extension over the permutations
keeps every marginal.  Such an X is block diagonal in the S_k isotypic
decomposition (Gatermann & Parrilo 2004), X = sum_lambda I_(d_lambda) (x)
M_lambda, with irreps built from Young's orthogonal form.  Each partition
lambda of k with at most d rows gets one PSD block M_lambda, and one copy's
marginal constraint stands for all k: for (d, k) = (3, 4) the 243-side block
becomes blocks of 45, 45, 18 and 9 under 81 instead of 324 constraints.  SE-B
is the trivial-irrep block alone.  SQE keeps the full program, with partial
traces and partial transposes acting on the real vectorization through index
arithmetic (coefficient +-1 sparse maps), never through permutation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np
import scipy.sparse as sp

from .qmat import DensityMatrix
from .solver import Block, ConicProgram, solve, vec_real, vec_real_map

MAX_EXTENSION_DIM = 243

SE = "SE"
SQE = "SQE"
SE_B = "SE_B"


def _strides(dims: list[int]) -> np.ndarray:
    s = np.ones(len(dims), dtype=np.int64)
    for p in range(len(dims) - 2, -1, -1):
        s[p] = s[p + 1] * dims[p + 1]
    return s


def _digit_embeddings(dims: list[int], positions: list[int]) -> np.ndarray:
    """All index contributions obtainable from the chosen positions, in
    lexicographic order of their digits."""
    strides = _strides(dims)
    out = np.zeros(1, dtype=np.int64)
    for p in positions:
        out = (out[:, None] + strides[p] * np.arange(dims[p], dtype=np.int64)[None, :]).ravel()
    return out


def _pair_cols(n: int) -> np.ndarray:
    """Lookup r,c -> real-vec component index of the (Re, Im) upper pair."""
    table = np.zeros((n, n), dtype=np.int64)
    iu, ju = np.triu_indices(n, 1)
    table[iu, ju] = n + 2 * np.arange(len(iu), dtype=np.int64)
    return table


def real_trace_map(dims: list[int], keep: list[int]) -> sp.csr_matrix:
    """Sparse map sending vec_real(H) to vec_real(partial trace of H onto ``keep``).

    All coefficients are +1: the shared traced digits never change which of the
    two indices is larger, so components map to components.
    """
    keep = sorted(keep)
    traced = [p for p in range(len(dims)) if p not in keep]
    n = int(np.prod(dims))
    m = int(np.prod([dims[p] for p in keep]))
    emb_k = _digit_embeddings(dims, keep)
    emb_t = _digit_embeddings(dims, traced)
    pair_in = _pair_cols(n)
    pair_out = _pair_cols(m)

    rows, cols = [], []
    # output diagonal components
    for big_r, out_r in zip(emb_k, range(m)):
        rows.extend([out_r] * len(emb_t))
        cols.extend((big_r + emb_t).tolist())
    # output off-diagonal pairs (r < c in the big space iff R < C)
    out_iu, out_ju = np.triu_indices(m, 1)
    for big_r, big_c, out_u in zip(emb_k[out_iu], emb_k[out_ju], pair_out[out_iu, out_ju]):
        in_u = pair_in[big_r + emb_t, big_c + emb_t]
        rows.extend([out_u] * len(emb_t) + [out_u + 1] * len(emb_t))
        cols.extend(in_u.tolist() + (in_u + 1).tolist())
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(m * m, n * n))


def real_pt_map(dims: list[int], subset: list[int]) -> sp.csr_matrix:
    """Signed permutation on vec_real implementing the partial transpose of ``subset``."""
    n = int(np.prod(dims))
    strides = _strides(dims)
    idx = np.arange(n, dtype=np.int64)
    # split every index into its subset part and the rest
    sub_part = np.zeros(n, dtype=np.int64)
    for p in subset:
        digit = (idx // strides[p]) % dims[p]
        sub_part += digit * strides[p]
    rest = idx - sub_part
    pair = _pair_cols(n)

    rows = list(range(n))  # diagonal fixed
    cols = list(range(n))
    data = [1.0] * n
    iu, ju = np.triu_indices(n, 1)
    a = rest[iu] + sub_part[ju]
    b = rest[ju] + sub_part[iu]
    out_u = pair[iu, ju]
    swapped = a > b
    lo = np.where(swapped, b, a)
    hi = np.where(swapped, a, b)
    in_u = pair[lo, hi]
    rows.extend(out_u.tolist() + (out_u + 1).tolist())
    cols.extend(in_u.tolist() + (in_u + 1).tolist())
    data.extend([1.0] * len(out_u) + np.where(swapped, -1.0, 1.0).tolist())
    return sp.csr_matrix((data, (rows, cols)), shape=(n * n, n * n))


def symmetric_subspace_isometry(d: int, k: int) -> np.ndarray:
    """Isometry from the C(d+k-1, k)-dimensional symmetric subspace into (C^d)^k."""
    if d**k > MAX_EXTENSION_DIM:
        raise ValueError("extension space too large")
    basis = list(combinations_with_replacement(range(d), k))
    w = np.zeros((d**k, len(basis)), dtype=complex)
    strides = _strides([d] * k)
    for col, multiset in enumerate(basis):
        perms = set(permutations(multiset))
        amp = 1.0 / np.sqrt(len(perms))
        for p in perms:
            w[int(np.dot(p, strides)), col] = amp
    return w


def _partitions(k: int, max_rows: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of k into at most ``max_rows`` parts no larger than ``cap``, largest first part first."""
    if k == 0:
        return [()]
    if max_rows == 0:
        return []
    cap = k if cap is None else cap
    return [
        (first,) + tail
        for first in range(min(k, cap), 0, -1)
        for tail in _partitions(k - first, max_rows - 1, first)
    ]


def _standard_tableaux(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Standard Young tableaux of ``shape``, each given as the rows holding 1, 2, ..., k."""
    tableaux = [()]
    for _ in range(sum(shape)):
        tableaux = [
            t + (r,)
            for t in tableaux
            for r in range(len(shape))
            if t.count(r) < shape[r] and (r == 0 or t.count(r - 1) > t.count(r))
        ]
    return tableaux


def young_orthogonal_form(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Real orthogonal matrices of the adjacent transpositions (i+1, i+2), i = 0..k-2, in the
    S_k irrep ``shape``, over its standard tableaux (Young's orthogonal form)."""
    tableaux = _standard_tableaux(shape)
    index = {t: n for n, t in enumerate(tableaux)}

    def content(t, x):  # column minus row of the box holding x+1
        return t[:x].count(t[x]) - t[x]

    gens = []
    for i in range(sum(shape) - 1):
        g = np.zeros((len(tableaux), len(tableaux)))
        for n, t in enumerate(tableaux):
            axial = content(t, i + 1) - content(t, i)  # +1: same row, -1: same column
            g[n, n] = 1.0 / axial
            if abs(axial) > 1:
                swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2 :]
                g[index[swapped], n] = np.sqrt(1.0 - 1.0 / axial**2)
        gens.append(g)
    return gens


def _s_k_words(k: int) -> list[tuple[int, int]]:
    """Every element of S_k once, breadth-first from the identity: entry n = (p, i) says
    element n is the adjacent transposition (i+1, i+2) times element p."""
    arrangements = [tuple(range(k))]
    seen = {arrangements[0]}
    steps = [(-1, -1)]
    n = 0
    while n < len(arrangements):
        a = arrangements[n]
        for i in range(k - 1):
            nxt = a[:i] + (a[i + 1], a[i]) + a[i + 2 :]
            if nxt not in seen:
                seen.add(nxt)
                arrangements.append(nxt)
                steps.append((n, i))
        n += 1
    return steps


def s_k_isometries(d: int, k: int) -> dict[tuple[int, ...], np.ndarray]:
    """Isotypic isometries of the copy permutations P_pi on (C^d)^k.

    Maps each partition lambda of k with at most d rows to an array V of shape
    (d_lambda, d^k, m_lambda) with P_pi V[i] = sum_j rho_lambda(pi)[j, i] V[j],
    where V[i]^H V'[j] is delta delta I across all irreps.  V[0] spans the range
    of the matrix unit E_11 = (d_lambda/k!) sum_pi rho(pi)_11 P_pi and V[i] =
    E_i1 V[0]; the trivial irrep uses the symmetric-subspace isometry.
    """
    n = d**k
    steps = _s_k_words(k)
    swaps = [np.arange(n).reshape((d,) * k).swapaxes(i, i + 1).ravel() for i in range(k - 1)]
    perms = [np.arange(n)]  # P(g) e_x = e_{perms[g][x]}
    for parent, i in steps[1:]:
        perms.append(swaps[i][perms[parent]])
    out = {}
    for shape in _partitions(k, d):
        if len(shape) == 1:
            out[shape] = symmetric_subspace_isometry(d, k)[None]
            continue
        gens = young_orthogonal_form(shape)
        reps = [np.eye(len(gens[0]))]
        for parent, i in steps[1:]:
            reps.append(gens[i] @ reps[parent])
        units = np.zeros((len(reps[0]), n, n))  # E_i1
        for rep, perm in zip(reps, perms):
            units[:, perm, np.arange(n)] += rep[:, :1]
        units *= len(reps[0]) / len(reps)
        w, vecs = np.linalg.eigh(units[0])
        out[shape] = units @ vecs[:, w > 0.5]
    return out


@dataclass(frozen=True)
class ExtensionQuery:
    """Which extension to search for: k copies of one side, in one of three flavors."""

    rho: DensityMatrix
    k: int
    side: str = "B"
    flavor: str = SE
    partitions: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("extension needs k >= 2 copies")
        if self.side not in ("A", "B"):
            raise ValueError("side must be 'A' or 'B'")
        if self.flavor not in (SE, SQE, SE_B):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        d_ext = self.rho.dimA if self.side == "A" else self.rho.dimB
        d_other = self.rho.dimB if self.side == "A" else self.rho.dimA
        if self.flavor in (SE, SE_B) and d_ext**self.k * d_other > MAX_EXTENSION_DIM:
            raise ValueError(f"extension dimension exceeds {MAX_EXTENSION_DIM}")
        if self.flavor == SQE:
            if self.k > 4:
                raise ValueError("quasi-extension supported for k <= 4")
            if self.k == 4 and self.partitions is None and d_ext**self.k * d_other > MAX_EXTENSION_DIM:
                raise ValueError(f"extension dimension exceeds {MAX_EXTENSION_DIM}")

    @property
    def dims(self) -> list[int]:
        if self.side == "A":
            return [self.rho.dimA] * self.k + [self.rho.dimB]
        return [self.rho.dimA] + [self.rho.dimB] * self.k

    @property
    def copy_positions(self) -> list[int]:
        return list(range(self.k)) if self.side == "A" else list(range(1, self.k + 1))

    @property
    def other_position(self) -> int:
        return self.k if self.side == "A" else 0


@dataclass
class ExtensionResult:
    """``extension_exists`` is None unless the solve ended OPTIMAL: an unconverged t* is no verdict."""

    t_star: float
    status: str
    extension_exists: bool | None
    gap: float
    iterations: int = 0


def _default_partitions(q: ExtensionQuery) -> list[tuple[int, ...]]:
    n_parties = q.k + 1
    if q.k <= 3:
        # one subset per bipartition: all nonempty subsets avoiding party 0
        out = []
        for mask in range(1, 2**n_parties):
            if mask & 1:
                continue
            subset = tuple(p for p in range(n_parties) if mask >> p & 1)
            if subset:
                out.append(subset)
        return out
    # k = 4: a fixed four-element bipartition subset keeps the search tractable
    copies = q.copy_positions
    other = q.other_position
    return [
        (copies[0],),
        (other,),
        (copies[0], copies[1]),
        (copies[0], other),
    ]


def _marginal_rhs(q: ExtensionQuery) -> tuple[np.ndarray, np.ndarray]:
    """Per-copy right-hand side vec(rho - I/D) and the -t column vec(I/D)."""
    dd = q.rho.dim
    eye_term = vec_real(np.eye(dd) / dd)
    rhs = vec_real(q.rho.mat) - eye_term
    return rhs, eye_term


def _copy_trace_maps(q: ExtensionQuery) -> list[sp.csr_matrix]:
    dims = q.dims
    maps = []
    for pos in q.copy_positions:
        keep = sorted([pos, q.other_position])
        maps.append(real_trace_map(dims, keep))
    return maps


def _build_sqe_program(q: ExtensionQuery) -> ConicProgram:
    n_ext = int(np.prod(q.dims))
    parts = q.partitions if q.partitions is not None else tuple(_default_partitions(q))
    rhs, eye_term = _marginal_rhs(q)
    trace_maps = _copy_trace_maps(q)
    pt_maps = [real_pt_map(q.dims, list(p)) for p in parts]
    a_rows = []
    for tm in trace_maps:
        cols = [tm] + [(tm @ ptm).tocsr() for ptm in pt_maps]
        cols.append(sp.csr_matrix(-eye_term[:, None]))
        a_rows.append(sp.hstack(cols))
    a = sp.vstack(a_rows).tocsr()
    b = np.tile(rhs, q.k)
    nvar = n_ext * n_ext
    blocks = tuple([Block("psd", n_ext)] * (1 + len(parts)) + [Block("nonneg", 1)])
    c = np.zeros(nvar * (1 + len(parts)) + 1)
    c[-1] = 1.0
    return ConicProgram(blocks, c, a, b)


def _block_marginal_map(t: np.ndarray, d_other: int, side: str) -> sp.csr_matrix:
    """Sparse map from vec_real(M) to vec_real(Y) for
    Y[(j,a),(j',a')] = sum_{q,q'} t[j,q,j',q'] M[(q,a),(q',a')],
    with the other party's index a first on side B and last on side A."""
    d, m = t.shape[:2]
    a, j, q, a2, j2, q2 = np.indices((d_other, d, m, d_other, d, m)).reshape(6, -1)

    def pair(copy, other, n_copy):
        return other * n_copy + copy if side == "B" else copy * d_other + other

    rows = pair(j, a, d) * (d_other * d) + pair(j2, a2, d)
    cols = pair(q, a, m) * (d_other * m) + pair(q2, a2, m)
    lin = sp.csr_matrix((t[j, q, j2, q2], (rows, cols)), shape=((d_other * d) ** 2, (d_other * m) ** 2))
    # the composition maps real vectors to real vectors, so its imaginary part is rounding
    out = (vec_real_map(d_other * d) @ lin @ vec_real_map(d_other * m).conj().T).real
    out.eliminate_zeros()
    return out


def _build_symmetric_program(q: ExtensionQuery, isometries: list[np.ndarray]) -> ConicProgram:
    """Extension over copy-permutation-invariant X = sum_lambda sum_i V_i M_lambda V_i^H / sqrt(d_lambda),
    one PSD block M_lambda per isometry stack V in ``isometries``.

    Every copy of an invariant X has the same marginal, so one copy's constraint
    stands for all k; the 1/sqrt(d_lambda) makes M_lambda -> X an isometry.
    """
    d = q.dims[q.copy_positions[0]]
    d_other = q.dims[q.other_position]
    maps, sides = [], []
    for v in isometries:
        dim, _, mult = v.shape
        v = v.reshape(dim, d, -1, mult)  # copy 1 first, the other k-1 copies next
        t = np.einsum("ijrq,isrp->jqsp", v, v.conj()) / np.sqrt(dim)
        maps.append(_block_marginal_map(t, d_other, q.side))
        sides.append(mult * d_other)
    rhs, eye_term = _marginal_rhs(q)
    a = sp.hstack(maps + [sp.csr_matrix(-eye_term[:, None])]).tocsr()
    blocks = tuple(Block("psd", s) for s in sides) + (Block("nonneg", 1),)
    c = np.zeros(sum(s * s for s in sides) + 1)
    c[-1] = 1.0
    return ConicProgram(blocks, c, a, rhs)


def build_program(q: ExtensionQuery) -> ConicProgram:
    if q.flavor == SQE:
        return _build_sqe_program(q)
    d = q.dims[q.copy_positions[0]]
    if q.flavor == SE_B:
        return _build_symmetric_program(q, [symmetric_subspace_isometry(d, q.k)[None]])
    return _build_symmetric_program(q, list(s_k_isometries(d, q.k).values()))


def _run(q: ExtensionQuery, tol: float, max_iter: int) -> ExtensionResult:
    if int(np.prod(q.dims)) >= MAX_EXTENSION_DIM:
        max_iter *= 4  # the 243-dimensional instances converge more slowly
    sol = solve(build_program(q), tol=tol, max_iter=max_iter)
    t_star = float(sol.primal_obj)
    return ExtensionResult(
        t_star=t_star,
        status=sol.status,
        extension_exists=bool(t_star <= 1.0 + 1e-6) if sol.status == "OPTIMAL" else None,
        gap=sol.gap,
        iterations=sol.iterations,
    )


def symmetric_extension(q: ExtensionQuery, tol: float = 1e-7, max_iter: int = 200000) -> ExtensionResult:
    """Optimal t* of the symmetric-extension SDP; t* <= 1 means rho is k-extendible."""
    if q.flavor != SE:
        raise ValueError("query flavor must be SE")
    return _run(q, tol, max_iter)


def quasi_extension(q: ExtensionQuery, tol: float = 1e-7, max_iter: int = 200000) -> ExtensionResult:
    """Relaxation allowing a decomposable-witness extension; t*_SQE <= t*_SE."""
    if q.flavor != SQE:
        raise ValueError("query flavor must be SQE")
    return _run(q, tol, max_iter)


def bosonic_extension(q: ExtensionQuery, tol: float = 1e-7, max_iter: int = 200000) -> ExtensionResult:
    """Tightened extension supported on the symmetric subspace of the copies."""
    if q.flavor != SE_B:
        raise ValueError("query flavor must be SE_B")
    return _run(q, tol, max_iter)


def run_query(q: ExtensionQuery, tol: float = 1e-7, max_iter: int = 200000) -> ExtensionResult:
    return _run(q, tol, max_iter)


def critical_weight(t_star_at_v0: float, d: int) -> float:
    """Werner threshold weight v_t = (n+/D)(t*-1)/t* from the v=0 optimum."""
    if t_star_at_v0 <= 1.0:
        return 0.0
    n_plus = d * (d + 1) / 2
    return float(n_plus / (d * d) * (t_star_at_v0 - 1.0) / t_star_at_v0)


def extension_threshold(
    d: int,
    k: int,
    flavor: str = SE,
    side: str = "B",
    v_tol: float = 1e-3,
    sdp_tol: float = 1e-7,
) -> float:
    """Bisection over v for the smallest Werner weight admitting an extension.

    Raises RuntimeError when a solve does not end OPTIMAL, rather than bisecting on it.
    """
    from .states import werner

    def exists(v: float) -> bool:
        res = _run(ExtensionQuery(werner(d, v), k, side, flavor), sdp_tol, 200000)
        if res.extension_exists is None:
            raise RuntimeError(f"{flavor} solve at v={v} ended {res.status}; no extendibility verdict")
        return res.extension_exists

    lo, hi = 0.0, d * (d + 1) / 2 / (d * d)  # weight of the maximally mixed point
    if exists(lo):
        return 0.0
    while hi - lo > v_tol:
        mid = (lo + hi) / 2
        if exists(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2
