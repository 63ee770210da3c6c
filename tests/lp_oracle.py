"""Exact small-LP optimum by vertex enumeration: an independent oracle for the conic solver;
the Schur-Weyl columns of Werner SE and SE-B, enumerated with hook-length and content sums;
and the two-row Werner extension LP over them, which :func:`wernerlab.extend.werner_t_star`
solves in closed form."""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import numpy as np
import scipy.sparse as sp

from wernerlab.extend import _partitions
from wernerlab.solver import FREE, PSD, Block, ConicProgram


def _tableau_count(shape: tuple[int, ...]) -> int:
    """Number f^shape of standard Young tableaux, by the hook-length formula."""
    hooks = prod(
        shape[r] - c + sum(1 for below in shape[r + 1 :] if below > c)
        for r in range(len(shape))
        for c in range(shape[r])
    )
    return factorial(sum(shape)) // hooks


def _corners(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """(shape minus one removable box, content of that box), one entry per removable box."""
    out = []
    for r, length in enumerate(shape):
        if r + 1 == len(shape) or shape[r + 1] < length:
            smaller = shape[:r] + (length - 1,) + shape[r + 1 :]
            out.append((tuple(x for x in smaller if x), length - 1 - r))
    return out


def werner_lp_columns(d: int, k: int, bosonic: bool = False) -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """(lambda, mu, r) for each lambda |- k+1 with at most d rows and mu |- k inside it
    (mu = (k) only when ``bosonic``), where r = tr(P_{lambda mu} F)/tr P_{lambda mu} and F swaps
    copy k with party k+1.

    In Young's orthogonal form F has diagonal 1/(c(k+1) - c(k)) on each tableau, c being the
    content of the box that holds the number; averaging it over the f^mu tableaux with k+1
    in the box lambda/mu gives r = sum_nu f^nu / (c(lambda/mu) - c(mu/nu)) / f^mu over the
    nu one corner smaller than mu.  The GL(d) dimension of lambda cancels; r is exact.
    """
    cols = []
    for lam in _partitions(k + 1, d):
        for mu, c_new in _corners(lam):
            if bosonic and len(mu) > 1:
                continue
            swap = sum(Fraction(_tableau_count(nu), c_new - c_old) for nu, c_old in _corners(mu))
            cols.append((lam, mu, swap / _tableau_count(mu)))
    return cols


def werner_lp(d: int, k: int, bosonic: bool, swap: float) -> ConicProgram:
    """LP over the weights w of the Schur-Weyl projectors, plus t: sum w - t = 0 (trace) and
    sum r w - t/d = swap - 1/d, minimizing t, for SE (SE-B when ``bosonic``) on a Werner
    input with tr(rho F) = ``swap``."""
    r = [float(col[2]) for col in werner_lp_columns(d, k, bosonic)]
    a = sp.csr_matrix(np.array([[1.0] * len(r) + [-1.0], r + [-1.0 / d]]))
    c = np.zeros(len(r) + 1)
    c[-1] = 1.0
    return ConicProgram((Block("nonneg", len(r) + 1),), c, a, np.array([0.0, float(swap) - 1.0 / d]))


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
