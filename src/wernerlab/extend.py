"""Symmetric extension (SE), symmetric quasi-extension (SQE) and bosonic
symmetric extension (SE-B) SDPs, with critical-weight extraction.

A state rho_AB is (k,1)- or (1,k)-extendible when a (k+1)-partite operator
exists whose every single-copy marginal recovers rho_AB.  :func:`run_query`
solves one :class:`ExtensionQuery`: minimize t subject to
tr_(all copies but i) X = rho + (t-1) I/D, with X positive (SE), a
decomposable-witness combination P + sum_p Q_p^(T_p) (SQE), or supported on
the permutation-symmetric subspace of the copies (SE-B).  t* <= 1 certifies
that the extension exists.

A query copies party B; copies of A are those of B in the party-swapped state,
which loses nothing: relabelling the parties maps rho's extensions onto the
swapped state's with their marginals, positivity and copy permutations, and
Q^(T_S) = (Q^T)^(T_(not S)) with Q^T positive.

SE and SE-B search only extensions invariant under permutations of the k
copies, which loses nothing: averaging an extension over the permutations
keeps every marginal.  Such an X is block diagonal in the S_k isotypic
decomposition (Gatermann & Parrilo 2004), with irreps from Young's orthogonal
form: one PSD block per partition of k with at most d rows, and one copy's
marginal constraint for all k.  SE-B is the trivial-irrep block alone.

SQE keeps the full program, one PSD block for P and one per transposed subset
S, and one marginal constraint per copy.  All three flavors build their trace
rows with one sparse marginal map, SQE's for copy i that of the identity
isometry with copy i moved first, and go through one assembler that adds the
t column, the right-hand side and the blocks: SE and SE-B give it one row of
maps, SQE one per copy.  SQE traces first and transposes after, on
the two-party marginal: transposing a traced party leaves its trace unchanged,
so tr_others(Q^(T_S)) = (tr_others Q)^(T_(S & kept)), and only the four
two-party transposes are ever built.

A Werner input (dimA = dimB and rho equal to its U(x)U twirl alpha I + beta F
to 1e-12 entrywise, :func:`~wernerlab.states.twirl_class`) needs no program, whatever the flavor
(Eggeling & Werner 2001; Doherty, Parrilo & Spedalieri 2004; Johnson & Viola
2013).  Let D = d^2, s = tr(rho F) and J = sum_i F_{0i}, the swaps of party 0
with each copy.  Every flavor's dual reads: maximize sum_i <Y_i, rho - I/D>
subject to 1 + sum_i tr(Y_i)/D >= 0 and W^(T_S) <= 0 for W = sum_i Y_i (x) I
and each subset S its program transposes, S empty included (SE and SE-B have
only that one, SE-B with W on the copies' symmetric subspace).

(a) As rho and I are U(x)U-invariant, twirling by U^(x)(k+1) keeps a dual
    point feasible with its value; it leaves the dual point
    Y_i = y1 I + y2 F_{0i}, with W = k y1 I + y2 J.  Its best value,
    (s - 1/d)/(mu/k - 1/d), bounds t* from below, with mu the lowest
    eigenvalue of J and of every J^(T_S) when s < 1/d, the highest when
    s >= 1/d.  A primal point of the same value makes it t*.  For SE and SE-B:
    on the Schur-Weyl projector P_{lambda nu}, lambda |- k+1 with at most d
    rows and nu |- k inside it (nu = (k) for SE-B), J is the content of the
    box lambda/nu, so mu lies in [-min(d-1, k), k] for SE and [-1, k] for
    SE-B, and the extreme projector, scaled to trace t*, is that point.
(b) For S avoiding party 0 (otherwise transpose fully, which keeps the
    spectrum), J^(T_S) = sum_{i not in S} F_{0i} + d sum_{i in S} Phi_{0i},
    Phi the maximally entangled projector.  Since d Phi >= 0,
    lambda_min(J^(T_S)) >= -min(d-1, k), which is SE's mu, and SE's primal
    point is also SQE's (P = X), so t*_SQE = t*_SE for s < 1/d at every k <= 4.
(c) lambda_max(J^(T_S)) <= (k - |S|) + d (1 + (|S| - 1)/d) = k + d - 1,
    because the isometries of the Phi_{0i} overlap with norm 1/d.  The bound
    is attained at S = all copies, or its full transpose (0,), by
    sum_i |Phi>_{0i} |0...0>, and the partial transpose of the
    copy-symmetrised projector onto that top eigenspace is a primal point with
    the same value.  So mu lies in [-min(d-1, k), k + d - 1] for SQE, and t* is
    exact at s >= 1/d too, as :func:`_default_partitions` holds all copies or
    (0,) at every k.

:func:`werner_t_star` returns this exact rational with no solve and no
dimension cap.  Other inputs, isotropic ones included, solve the SDP, which
:func:`build_program` refuses when prod(dims) > ``MAX_EXTENSION_DIM``; SQE
needs k <= 4 on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .qmat import DensityMatrix, partial_transpose_dims
from .solver import Block, ConicProgram, check_tol, solve, sp, vec_real, vec_real_map
from .states import WERNER, twirl_class

MAX_EXTENSION_DIM = 243

SE = "SE"
SQE = "SQE"
SE_B = "SE_B"


def symmetric_subspace_isometry(d: int, k: int) -> np.ndarray:
    """Isometry from the C(d+k-1, k)-dimensional symmetric subspace into (C^d)^k.

    Column c is the normalized sum of the basis states whose sorted digits are the c-th
    multiset of levels in lexicographic order."""
    if d**k > MAX_EXTENSION_DIM:
        raise ValueError("extension space too large")
    digits = np.indices((d,) * k).reshape(k, d**k).T  # row p holds the base-d digits of p
    _, col, count = np.unique(np.sort(digits, axis=1), axis=0, return_inverse=True, return_counts=True)
    w = np.zeros((d**k, len(count)), dtype=complex)
    w[np.arange(d**k), col] = 1.0 / np.sqrt(count[col])
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
    """Which extension to search for: k copies of party B, in one of three flavors."""

    rho: DensityMatrix
    k: int
    flavor: str = SE

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("extension needs k >= 2 copies")
        if self.flavor not in (SE, SQE, SE_B):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == SQE and self.k > 4:
            raise ValueError("quasi-extension supported for k <= 4")

    @property
    def dims(self) -> list[int]:
        return [self.rho.dimA] + [self.rho.dimB] * self.k


@dataclass
class ExtensionResult:
    """``extension_exists`` is None unless the solve ended OPTIMAL: an unconverged t* is no verdict."""

    t_star: float
    status: str
    extension_exists: bool | None
    gap: float
    iterations: int = 0


def _default_partitions(k: int) -> list[tuple[int, ...]]:
    if k <= 3:
        # one subset per bipartition: all nonempty subsets avoiding party 0, by even mask
        return [tuple(p for p in range(k + 1) if m >> p & 1) for m in range(2, 2 ** (k + 1), 2)]
    # k = 4: a fixed four-element bipartition subset keeps the search tractable
    return [(1,), (0,), (1, 2), (1, 0)]


def _real_form(lin: sp.spmatrix, n_out: int, n_in: int) -> sp.csr_matrix:
    """The map vec_real(H) -> vec_real(L(H)) of a linear map L given on row-major vec(H)."""
    # L maps Hermitian matrices to Hermitian matrices, so the imaginary part is rounding
    out = (vec_real_map(n_out) @ lin @ vec_real_map(n_in).conj().T).real
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _block_marginal_map(t: np.ndarray, d_other: int) -> sp.csr_matrix:
    """Sparse map from vec_real(M) to vec_real(Y) for
    Y[(a,j),(a',j')] = sum_{q,q'} t[j,q,j',q'] M[(a,q),(a',q')], the other party's index a first."""
    d, m = t.shape[:2]
    j, q, j2, q2 = np.nonzero(t)
    a, a2 = (x.reshape(-1, 1) for x in np.indices((d_other, d_other)))
    rows = (a * d + j) * (d_other * d) + a2 * d + j2
    cols = (a * m + q) * (d_other * m) + a2 * m + q2
    data = np.broadcast_to(t[j, q, j2, q2], rows.shape)
    lin = sp.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=((d_other * d) ** 2, (d_other * m) ** 2))
    return _real_form(lin, d_other * d, d_other * m)


def _marginal_map(q: ExtensionQuery, v: np.ndarray) -> sp.csr_matrix:
    """Map from vec_real(M) to vec_real of the first copy's and the other party's marginal of
    X = sum_i V_i M V_i^H / sqrt(d_lambda), for an isometry stack V of shape (d_lambda, d^k, m).
    The 1/sqrt(d_lambda) makes M -> X an isometry."""
    dim, _, mult = v.shape
    v = v.reshape(dim, q.rho.dimB, -1, mult)  # copy 1 first, the other k-1 copies next
    t = np.einsum("ijrq,isrp->jqsp", v, v.conj()) / np.sqrt(dim)
    return _block_marginal_map(t, q.rho.dimA)


def _copy_trace_map(q: ExtensionQuery, i: int) -> sp.csr_matrix:
    """Map from vec_real(X) to vec_real of the marginal of copy i and the other party."""
    d = q.rho.dimB
    first = np.moveaxis(np.arange(d**q.k).reshape((d,) * q.k), i, 0).ravel()
    return _marginal_map(q, np.eye(d**q.k)[first][None])


def _real_partial_transpose(dims: list[int], subsystems: list[int]) -> sp.csr_matrix:
    """Map from vec_real(H) to vec_real of H with ``subsystems`` transposed; its own inverse."""
    n = prod(dims)
    perm = partial_transpose_dims(np.arange(n * n).reshape(n, n), dims, subsystems).ravel()
    return _real_form(sp.csr_matrix((np.ones(n * n), (np.arange(n * n), perm)), shape=(n * n, n * n)), n, n)


def _assemble(q: ExtensionQuery, rows: list[list[sp.spmatrix]], sides: list[int]) -> ConicProgram:
    """min t subject to sum_j rows[r][j] vec_real(M_j) - t vec_real(I/D) = vec_real(rho - I/D) for
    each row r, with one PSD block M_j of side ``sides[j]`` per column map and a trailing t >= 0."""
    dd = q.rho.dim
    eye_term = vec_real(np.eye(dd) / dd)
    t_col = sp.csr_matrix(-eye_term[:, None])
    a = sp.vstack([sp.hstack(maps + [t_col]) for maps in rows]).tocsr()
    blocks = tuple(Block("psd", s) for s in sides) + (Block("nonneg", 1),)
    c = np.zeros(sum(s * s for s in sides) + 1)
    c[-1] = 1.0
    return ConicProgram(blocks, c, a, np.tile(vec_real(q.rho.mat) - eye_term, len(rows)))


def build_program(q: ExtensionQuery) -> ConicProgram:
    """The query's SDP (see the module docstring): for SE and SE-B one copy's marginal row over the
    isotypic isometry stacks, SE-B's being the symmetric subspace alone; for SQE one row per copy over
    P and the Q_S, each transpose acting after the trace, on the two kept parties."""
    n = prod(q.dims)
    if n > MAX_EXTENSION_DIM:
        raise ValueError(f"extension dimension {n} exceeds {MAX_EXTENSION_DIM}")
    d_other, d = q.rho.dimA, q.rho.dimB
    if q.flavor != SQE:
        stacks = s_k_isometries(d, q.k).values() if q.flavor == SE else [symmetric_subspace_isometry(d, q.k)[None]]
        sides = [v.shape[2] * d_other for v in stacks]
        return _assemble(q, [[_marginal_map(q, v) for v in stacks]], sides)
    parts = _default_partitions(q.k)
    transposes = {}  # two-party transposes, built as the subsets call for them
    rows = []
    for i in range(q.k):
        tm = _copy_trace_map(q, i)
        rows.append([tm])
        for subset in parts:
            on_kept = tuple(n for n, p in enumerate((0, i + 1)) if p in subset)  # copy i+1 kept with party 0
            if on_kept not in transposes:
                transposes[on_kept] = _real_partial_transpose([d_other, d], list(on_kept))
            rows[-1].append(transposes[on_kept] @ tm)
    return _assemble(q, rows, [prod(q.dims)] * (1 + len(parts)))


def werner_t_star(d: int, k: int, flavor: str, swap: Fraction) -> Fraction:
    """Exact optimum t* = (s - 1/d)/(mu/k - 1/d) of ``flavor`` on a Werner input with
    s = tr(rho F) = ``swap``, where mu, the extreme eigenvalue of J = sum_i F_{0i} and of every
    J^(T_S) on the side of s, is the low end of the flavor's range when s < 1/d and the high end
    otherwise: [-min(d-1, k), k] for SE, [-1, k] for SE-B and [-min(d-1, k), k+d-1] for SQE over
    subsets that hold all copies or (0,) (see the module docstring).  s = 1/d gives t* = 0."""
    excess = swap - Fraction(1, d)
    low, high = {SE: (-min(d - 1, k), k), SE_B: (-1, k), SQE: (-min(d - 1, k), k + d - 1)}[flavor]
    return excess / (Fraction(high if excess >= 0 else low, k) - Fraction(1, d))


def run_query(q: ExtensionQuery, tol: float = 1e-7, max_iter: int = 200000) -> ExtensionResult:
    """Optimal t* of the query: :func:`werner_t_star` with no program and no solve (status
    OPTIMAL, gap 0, 0 iterations) on an input that :func:`~wernerlab.states.twirl_class` reads as
    Werner, whatever the flavor, and otherwise, isotropic inputs included, the optimum of its
    SDP.  t* <= 1 means the extension exists, and t*_SQE <= t*_SE <= t*_SE_B.
    Raises ValueError unless ``tol`` is finite and positive, as a solve does, whichever way t*
    is found."""
    check_tol(tol)
    twirl = twirl_class(q.rho)
    if twirl is not None and twirl[0] == WERNER:
        t_star = float(werner_t_star(q.rho.dimA, q.k, q.flavor, Fraction(twirl[1])))
        status, gap, iterations = "OPTIMAL", 0.0, 0
    else:
        sol = solve(build_program(q), tol=tol, max_iter=max_iter)
        t_star, status, gap, iterations = float(sol.primal_obj), sol.status, sol.gap, sol.iterations
    exists = bool(t_star <= 1.0 + 1e-6) if status == "OPTIMAL" else None
    return ExtensionResult(t_star, status, exists, gap, iterations)


def critical_weight(t_star_at_v0: float | Fraction, d: int) -> float | Fraction:
    """Werner threshold weight v_t = (n+/D)(t*-1)/t* from the v=0 optimum, with n+/D = (d+1)/(2d);
    a Fraction t* gives an exact Fraction."""
    v_t = Fraction(d + 1, 2 * d) * (t_star_at_v0 - 1) / t_star_at_v0 if t_star_at_v0 > 1 else Fraction(0)
    return v_t if isinstance(t_star_at_v0, Fraction) else float(v_t)
