"""Exact small-LP optimum by vertex enumeration: an independent oracle for the conic solver,
and the two-row Werner extension LP that :func:`wernerlab.extend.werner_t_star` solves in
closed form."""

from itertools import combinations

import numpy as np
import scipy.sparse as sp

from wernerlab.extend import werner_lp_columns
from wernerlab.solver import FREE, PSD, Block, ConicProgram


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
