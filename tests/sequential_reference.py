"""The multi-start heuristics and the MLE as they ran before the lockstep rewrites: one at a time.

Each search function keeps the earlier per-restart loop of its namesake in
``wernerlab.certify`` or ``wernerlab.steer`` and returns every restart's final
value in restart order, so tests can check the lockstep versions restart by
restart.  ``mle_by_record`` and ``bootstrap_by_record`` run the accelerated
projected-gradient MLE of ``wernerlab.tomo`` one record at a time, with its
kernels (overlaps, gradient, projection, and both dual points of the gap)
written for one matrix.  ``fef_ascent_to_step_floor`` is
``wernerlab.certify._fef_ascent`` without its no-gain exit.
``trace_out`` and ``contract`` (the reference for ``wernerlab.steer._contract``)
and ``haar_unitary`` (the reference for ``wernerlab.states.haar_restarts``) are
the one-call-at-a-time primitives the stacked kernels replaced, and
``symmetric_isometry_by_multisets`` is the loop-built reference for
``wernerlab.extend.symmetric_subspace_isometry``.
``solve_by_row`` runs the solver's step on one program and exit-tests it with
``check_by_row``, the earlier per-row exit test of ``wernerlab.solver`` and the
reference for the stacked one.
``sr_program_csr`` builds the steering-robustness program with scipy's sparse
``kron``, as CSR; it is the reference for the structured map of
``wernerlab.steer._sr_program``.
``blocks_of``, ``bell_value``, ``random_state``, ``singlet``, ``fidelity_to``,
``fef_embedding_check`` and ``extension_threshold`` are helpers that only tests
call.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from wernerlab import certify, extend, qmat, solver
from wernerlab.certify import _magic_basis, fef2_exact
from wernerlab.extend import SE, ExtensionQuery, critical_weight
from wernerlab.qmat import DensityMatrix, as_state, dagger, partial_transpose, uhlmann_fidelity
from wernerlab.solver import PSD, Block, ConicProgram, ConicSolution, mat_real, presolve, vec_real
from wernerlab.states import haar_unitaries, max_entangled_ket, werner
from wernerlab.steer import (
    Correlation,
    MeasurementSet,
    _response_table,
    _update_measurements,
    correlation_from,
    random_grouped_projective,
)
from wernerlab.tomo import (
    EPS,
    GAP_EVERY,
    START_MIX,
    STEP_GROW,
    STEP_SHRINK,
    CountsRecord,
    LikelihoodTrace,
    _engine_for,
)


def trace_out(mat: np.ndarray, dims: list[int], traced: list[int]) -> np.ndarray:
    """Trace out the subsystems listed in ``traced`` from a multipartite operator."""
    n = len(dims)
    if any(t < 0 or t >= n for t in traced):
        raise ValueError("traced subsystem index out of range")
    t = np.asarray(mat, dtype=complex).reshape(list(dims) + list(dims))
    nrem = n
    # trace highest index first so lower row positions stay put
    for pos in sorted(traced, reverse=True):
        t = np.trace(t, axis1=pos, axis2=pos + nrem)
        nrem -= 1
    d = int(np.prod([dims[i] for i in range(n) if i not in traced])) if nrem else 1
    return t.reshape(d, d)


def contract(rho: DensityMatrix, op: np.ndarray, side: str) -> np.ndarray:
    """Hermitian part of tr_side[(op on side) rho]: the operator left on the other side."""
    on_a = side == "A"
    dims = [rho.dimA, rho.dimB]
    big = np.kron(op, np.eye(dims[1])) if on_a else np.kron(np.eye(dims[0]), op)
    red = trace_out(big @ rho.mat, dims, [0 if on_a else 1])
    return (red + dagger(red)) / 2


def symmetric_isometry_by_multisets(d: int, k: int) -> np.ndarray:
    """The symmetric-subspace isometry built one multiset column and one permutation at a time."""
    basis = list(combinations_with_replacement(range(d), k))
    w = np.zeros((d**k, len(basis)), dtype=complex)
    strides = d ** np.arange(k - 1, -1, -1)
    for col, multiset in enumerate(basis):
        perms = set(permutations(multiset))
        amp = 1.0 / np.sqrt(len(perms))
        for p in perms:
            w[int(np.dot(p, strides)), col] = amp
    return w


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: ``haar_unitaries`` of one (2, d, d) draw from ``rng``."""
    return haar_unitaries(rng.standard_normal((2, d, d)))


def assert_rows_bitwise_alone(run, starts):
    """Each row of a stacked run equals, bit for bit, the same start run as a stack of one."""
    stacked = run(*starts)
    for r in range(len(starts[0])):
        alone = run(*(s[r : r + 1] for s in starts))
        for got, want in zip(stacked, alone):
            assert np.asarray(got[r]).tobytes() == np.asarray(want[0]).tobytes()


def _schmidt_frame(psi_block):
    return dagger(np.linalg.svd(psi_block, full_matrices=False)[2])[:, :2]


def one_distillable_by_restarts(rho, restarts, seed):
    """Per-restart values of the alternating eigen-step search over Schmidt-rank-2 vectors."""
    d_a, d_b = rho.dimA, rho.dimB
    x = partial_transpose(rho)
    values = []
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        va = haar_unitary(d_a, rng)[:, :2]
        vb = haar_unitary(d_b, rng)[:, :2]
        val_prev = np.inf
        for _ in range(100):
            big = np.kron(np.eye(d_a), vb)
            comp = dagger(big) @ x @ big
            w, q = np.linalg.eigh((comp + dagger(comp)) / 2)
            va = _schmidt_frame(q[:, 0].reshape(d_a, 2).T)
            big = np.kron(va, np.eye(d_b))
            comp = dagger(big) @ x @ big
            w, q = np.linalg.eigh((comp + dagger(comp)) / 2)
            vb = _schmidt_frame(q[:, 0].reshape(2, d_b))
            val = float(w[0])
            if val_prev - val < 1e-12:
                break
            val_prev = val
        values.append(val)
    return values


def _fef_objective(rho_mat, u, d):
    psi = u.T.reshape(-1) / np.sqrt(d)
    w = rho_mat @ psi
    return float(np.real(np.vdot(psi, w))), w.reshape(d, d).T / np.sqrt(d)


def fef_by_restarts(rho, restarts, seed):
    """Per-restart values of the Riemannian ascent; restart 0 starts at the identity."""
    d = rho.dimA
    values = []
    for r in range(restarts):
        u = np.eye(d, dtype=complex) if r == 0 else haar_unitary(d, np.random.default_rng(seed ^ r))
        f, grad = _fef_objective(rho.mat, u, d)
        step = 1.0
        for _ in range(300):
            omega = grad @ dagger(u) - u @ dagger(grad)
            if np.linalg.norm(omega) < 1e-12:
                break
            improved = False
            while step > 1e-12:
                u_try = scipy.linalg.expm(step * omega) @ u
                f_try, grad_try = _fef_objective(rho.mat, u_try, d)
                if f_try > f + 1e-15:
                    u, f, grad = u_try, f_try, grad_try
                    improved = True
                    step *= 1.3
                    break
                step /= 2
            if not improved:
                break
        values.append(f)
    return values


def fef_ascent_to_step_floor(rho_mat, u):
    """``wernerlab.certify._fef_ascent`` without its no-gain exit: a row that has stopped moving
    halves its step until it falls to 1e-12, as the ascent did before that exit."""
    d = u.shape[-1]
    u = u.copy()
    rho_mat = np.broadcast_to(rho_mat, (len(u),) + rho_mat.shape[-2:])
    f, grad = certify._fef_objective(rho_mat, u, d)
    step = np.ones(len(u))
    moves = np.zeros(len(u), dtype=int)
    omega, eig_w, eig_q = np.empty_like(u), np.empty(u.shape[:2]), np.empty_like(u)
    fresh = np.ones(len(u), dtype=bool)
    live = np.arange(len(u))
    while live.size:
        turn = live[fresh[live]]
        g, v = grad[turn], u[turn]
        omega[turn] = g @ dagger(v) - v @ dagger(g)
        eig_w[turn], eig_q[turn] = np.linalg.eigh(1j * omega[turn])
        fresh[turn] = False
        stop = ~(step > 1e-12)
        stop[turn] |= (moves[turn] == 300) | (np.linalg.norm(omega[turn], axis=(-2, -1)) < 1e-12)
        live = live[~stop[live]]
        if not live.size:
            break
        u_try = certify._skew_expm(eig_w[live], eig_q[live], step[live]) @ u[live]
        f_try, grad_try = certify._fef_objective(rho_mat[live], u_try, d)
        up = f_try > f[live] + 1e-15
        moved = live[up]
        u[moved], f[moved], grad[moved] = u_try[up], f_try[up], grad_try[up]
        step[moved] *= 1.3
        moves[moved] += 1
        fresh[moved] = True
        step[live[~up]] /= 2
    return f, u


def _bell_response(rho, coefficients, other_meas, side):
    table = coefficients if side == "A" else coefficients.transpose(1, 0, 3, 2)
    ops = np.einsum("xyab,ybij->xaij", table, other_meas.effects)
    return np.array([[contract(rho, op, "B" if side == "A" else "A") for op in setting] for setting in ops])


def _best_povm_update(meas, response):
    if meas.n_outcomes == 2:
        settings = []
        for g0, g1 in response:
            w, q = np.linalg.eigh(g0 - g1)
            pos = (q * (w > 0)) @ dagger(q)
            settings.append((pos, np.eye(g0.shape[0], dtype=complex) - pos))
        return MeasurementSet(tuple(settings))
    return MeasurementSet(_update_measurements(meas.effects, response))


def seesaw_bell_by_restarts(rho, coefficients, restarts, seed):
    """Per-restart values of the two-sided Bell see-saw."""
    n_sa, n_sb, n_oa, n_ob = coefficients.shape
    values = []
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        meas_a = random_grouped_projective(rho.dimA, n_sa, n_oa, rng)
        meas_b = random_grouped_projective(rho.dimB, n_sb, n_ob, rng)
        value = bell_value(correlation_from(rho, meas_a, meas_b), coefficients)
        for _ in range(500):
            round_start = value
            meas_a_new = _best_povm_update(meas_a, _bell_response(rho, coefficients, meas_b, "A"))
            val_a = bell_value(correlation_from(rho, meas_a_new, meas_b), coefficients)
            if val_a >= value - 1e-12:
                meas_a, value = meas_a_new, max(val_a, value)
            meas_b_new = _best_povm_update(meas_b, _bell_response(rho, coefficients, meas_a, "B"))
            val_b = bell_value(correlation_from(rho, meas_a, meas_b_new), coefficients)
            if val_b >= value - 1e-12:
                meas_b, value = meas_b_new, max(val_b, value)
            if value - round_start < 1e-9:
                break
        values.append(value)
    return values


def _overlaps(engine, m):
    # Re tr(E_k m) = sum_ij Re E_k[i, j] Re m[j, i] - Im E_k[i, j] Im m[j, i]
    return engine._trace_rows @ np.ascontiguousarray(m).view(np.float64).ravel()


def _r_operator(engine, freqs, probs):
    weights = freqs / np.maximum(probs, 1e-300)
    return (weights @ engine._rows).view(complex).reshape(engine.d2, engine.d2)


def _gap(engine, freqs, probs, mu):
    """The smaller of the two dual bounds, y = f / p and y = f / p - z, with their margins."""
    k, n, d2 = len(engine.norms), engine.d2 * engine.d2, engine.d2
    safe = np.maximum(probs, 1e-300)
    weights = freqs / safe
    trace = np.trace(mu).real
    r = _r_operator(engine, freqs, probs)
    top = np.linalg.eigvalsh(r)[-1]
    rounding = (weights * engine.norms * (k + n * engine.norms / safe)).sum() + d2 * top
    first = np.log(trace * (top + 4 * EPS * rounding))
    # the second point: P onto mu's support, Q = I - P, z the coefficients of R - P - QRQ
    w, v = np.linalg.eigh(mu)
    support = (v * (w > d2 * EPS)) @ dagger(v)
    rest = np.eye(d2) - support
    z = engine._inverse_rows @ (r - support - rest @ r @ rest).view(np.float64).ravel()
    y, rel, terms = np.zeros(k), np.zeros(k), np.zeros(k)
    for j in range(k):
        if freqs[j] == 0:
            y[j] = max(-z[j], 0.0)
            continue
        rel[j] = z[j] * probs[j] / freqs[j]
        if rel[j] >= 1:
            return first  # y_j would not be positive: the second point is skipped
        y[j] = weights[j] * (1 - rel[j])
        terms[j] = -freqs[j] * np.log1p(-rel[j])
    top_y = np.linalg.eigvalsh((y @ engine._rows).view(complex).reshape(d2, d2))[-1]
    rounding_y = (y * engine.norms).sum() * (k + 3) + d2 * top_y
    rounding_f = (freqs * n * engine.norms / safe + k * np.abs(terms)).sum()
    second = terms.sum() + np.log(trace * (top_y + 4 * EPS * rounding_y)) + 4 * EPS * rounding_f
    return min(first, second)


def _nearest_state(h):
    w, q = np.linalg.eigh(h)
    down = w[::-1]
    tau = ((np.cumsum(down) - 1.0) / np.arange(1, len(w) + 1)).max()
    lam = np.maximum(w - tau, 0.0)
    return (q * lam) @ dagger(q)


def mle_by_record(record, max_iter=5000, tol=0.1):
    """MLE estimate and log-likelihood trace, with its certified gap and tries, of one counts record."""
    total = record.counts.sum()
    if total <= 0:
        raise ValueError("all-zero counts cannot be reconstructed")
    engine = _engine_for(record.frame_name)
    freqs = record.counts.astype(float).ravel() / total
    unobserved = freqs == 0

    def loglik(probs):
        return float((freqs * np.log(np.maximum(probs, 1e-300))).sum())

    d2 = engine.d2
    guess = _nearest_state((freqs @ engine._inverse_rows).view(complex).reshape(d2, d2))
    mu = (1 - START_MIX) * guess + START_MIX * np.eye(d2) / d2
    p_mu = np.maximum(_overlaps(engine, mu), 0.0)
    nu, p_nu = mu, p_mu
    theta, step, tries = 1.0, 1.0, 0
    gap, stalled = total * _gap(engine, freqs, p_mu, mu), False
    history = [loglik(p_mu)]
    while gap > tol and tries < max_iter and not stalled:
        tries += 1
        cand = _nearest_state(nu + step * _r_operator(engine, freqs, p_nu))
        cand_p = np.maximum(_overlaps(engine, cand), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = _overlaps(engine, cand - nu) / p_nu
            y = _overlaps(engine, cand - mu) / p_mu
            sx = np.trace(cand - nu).real / np.trace(nu).real
            sy = np.trace(cand - mu).real / np.trace(mu).real
            excess = np.where(unobserved, 0.0, freqs * (np.log1p(x) - x)).sum() - (np.log1p(sx) - sx)
            rise = np.where(unobserved, 0.0, freqs * np.log1p(y)).sum() - np.log1p(sy)
        d = (cand - nu).ravel()
        if not 2 * step * excess + np.vecdot(d, d).real >= 0:
            step *= STEP_SHRINK  # no sufficient ascent: backtrack
        elif rise < 0 and theta < 2:
            step *= STEP_SHRINK  # nu is mu: no momentum to restart
        elif rise < 0:
            nu, p_nu, theta = mu, p_mu, 1.0  # restart the momentum
        else:
            theta_next = (1 + np.sqrt(1 + 4 * theta * theta)) / 2
            beta = (theta - 1) / theta_next
            ahead, ahead_p = cand + beta * (cand - mu), cand_p + beta * (cand_p - p_mu)
            mu, p_mu = cand, cand_p
            history.append(loglik(cand_p))
            if np.all((ahead_p > 0) | unobserved):
                nu, p_nu, theta = ahead, ahead_p, theta_next
            else:
                nu, p_nu, theta = mu, p_mu, 1.0
            step *= STEP_GROW
        if tries % GAP_EVERY == 0 or tries == max_iter:
            gap = total * _gap(engine, freqs, p_mu, mu)
            grad, m = _r_operator(engine, freqs, p_mu).ravel(), mu.ravel()
            stalled = theta < 2 and step * np.sqrt(np.vecdot(grad, grad).real) <= EPS * np.sqrt(np.vecdot(m, m).real)
    if any(b < a - 1e-12 for a, b in zip(history, history[1:])):
        raise RuntimeError("likelihood decreased")
    rho = engine.g_isqrt @ mu @ engine.g_isqrt
    dim = engine.frame.dim
    return as_state(rho, dim, dim, clip_tol=1e-6), LikelihoodTrace(history, float(gap), bool(gap > tol), tries)


def bootstrap_by_record(record, statistic, n_boot=50, seed=0, max_iter=2000, tol=0.1):
    """Mean and standard deviation of a statistic, one resample drawn and reconstructed at a time."""
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n_boot):
        resampled = rng.poisson(record.counts)
        rec = CountsRecord(resampled, record.shots, record.seed, record.frame_name, record.state_tag)
        rho, _ = mle_by_record(rec, max_iter=max_iter, tol=tol)
        values.append(statistic(rho))
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std(ddof=1))


def check_by_row(prog, family, beta, bnorm, u, v, it, tol, best):
    """One program's exit test on its iterate (u, v): a solution if it exits, and its best iterate so far."""
    n, m = prog.n, prog.m
    e_col, gamma, at = family.e_col, family.gamma, prog.A.T.tocsr()
    tau = u[-1]
    if tau > 1e-9:
        # map the scaled iterate back to the original problem
        x = e_col * u[:n] / tau / beta
        y = u[n:-1] / tau / gamma
        z = v[:n] / e_col / tau / gamma
        pres = np.linalg.norm(prog.A @ x - prog.b) / bnorm
        dres = np.linalg.norm(at @ y + z - prog.c) / family.cnorm
        pobj = float(prog.c @ x)
        dobj = float(prog.b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        crit = max(pres, dres, gap)
        if best is None or crit < best[0]:
            best = (crit, x.copy(), y.copy(), pobj, dobj)
        if crit <= tol:
            return ConicSolution(x, y, pobj, dobj, "OPTIMAL", abs(pobj - dobj) / (1.0 + abs(pobj)), it), best
        return None, best
    # tau collapsed: look for infeasibility / unboundedness certificates
    uy = u[n:-1]
    ux = e_col * u[:n]
    by = float(prog.b @ uy)
    if by > 1e-12:
        resid = np.linalg.norm(at @ uy + v[:n] / e_col)
        if by / max(resid, 1e-300) > 1e6:
            return ConicSolution(np.zeros(n), uy / by, np.inf, np.inf, "INFEASIBLE", np.inf, it), best
    cx = float(prog.c @ ux)
    if cx < -1e-12:
        resid = np.linalg.norm(prog.A @ ux)
        if (-cx) / max(resid, 1e-300) > 1e6:
            return ConicSolution(ux / (-cx), np.zeros(m), -np.inf, -np.inf, "UNBOUNDED", np.inf, it), best
    return None, best


def solve_by_row(prog, tol=1e-7, max_iter=200000):
    """``solver.solve`` with the per-row exit test: the solver's own step on a stack of one
    row, checked every ``CHECK_EVERY`` iterations by ``check_by_row``."""
    prog = presolve(prog)
    n, m = prog.n, prog.m
    family = solver.Family(prog.blocks, prog.c, prog.A)
    b = prog.b[None]
    norm = np.sqrt(np.vecdot(b, b))
    beta, bnorm = 1.0 / np.maximum(norm, 1e-6), 1.0 + norm
    vectors = family.b_vectors(b * beta[:, None])
    u = np.zeros((1, n + m + 1))
    u[:, -1] = 1.0
    v = u.copy()
    best = None
    for it in range(1, max_iter + 1):
        ut = family.kkt(u + v, *vectors)
        r = solver.OVER_RELAX * ut + (1.0 - solver.OVER_RELAX) * u
        u_new = r - v
        x = u_new[:, :n]
        family.proj.project(x, out=x)
        u_new[:, -1] = np.maximum(u_new[:, -1], 0.0)
        v = v - r + u_new
        u = u_new
        if it % solver.CHECK_EVERY == 0 or it == max_iter:
            sol, best = check_by_row(prog, family, beta[0], bnorm[0], u[0], v[0], it, tol, best)
            if sol is not None:
                return sol
    if best is None:
        return ConicSolution(np.zeros(n), np.zeros(m), np.nan, np.nan, "MAX_ITER", np.inf, it)
    _, x, y, pobj, dobj = best
    return ConicSolution(x, y, pobj, dobj, "MAX_ITER", abs(pobj - dobj) / (1.0 + abs(pobj)), it)


def blocks_of(sol: ConicSolution, prog: ConicProgram) -> list[np.ndarray]:
    """Split x into per-block values; PSD blocks come back as complex matrices."""
    out, pos = [], 0
    for bl in prog.blocks:
        seg = sol.x[pos : pos + bl.size]
        out.append(mat_real(seg, bl.n) if bl.kind == PSD else seg.copy())
        pos += bl.size
    return out


def bell_value(corr: Correlation, coefficients: np.ndarray) -> float:
    return float(np.sum(corr.p * coefficients))


def random_state(d_a, d_b, seed):
    """The state m / tr m on C^d_a (x) C^d_b, m = g g^dag for a seeded complex Gaussian matrix g."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_a * d_b, d_a * d_b)) + 1j * rng.standard_normal((d_a * d_b, d_a * d_b))
    m = g @ g.conj().T
    return DensityMatrix(d_a, d_b, m / np.trace(m))


def singlet():
    """The two-qubit singlet (|01> - |10>) / sqrt(2)."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return DensityMatrix(2, 2, np.outer(psi, psi.conj()))


def fidelity_to(target: DensityMatrix):
    """Statistic factory: fidelity of the reconstruction against a fixed target."""
    return lambda rho: uhlmann_fidelity(rho, target)


def _fef2_optimal_unitary(rho: DensityMatrix) -> np.ndarray:
    """Unitary U_2 whose maximally entangled vector attains fef2_exact."""
    e = _magic_basis()
    magic = dagger(e) @ rho.mat @ e
    w, q = np.linalg.eigh(magic.real)
    psi = e @ q[:, -1].astype(complex)
    u2 = np.sqrt(2.0) * psi.reshape(2, 2).T
    return u2


def fef_embedding_check(rho: DensityMatrix, d: int) -> bool:
    """Constructive check that F_2 > 1/2 forces F_d > 1/d after embedding.

    Embeds a two-qubit state into C^d (x) C^d padded with zeros, extends the
    optimal qubit unitary by the identity, and verifies the attained overlap
    (2/d) F_2 beats 1/d.
    """
    if rho.dimA != 2 or rho.dimB != 2:
        raise ValueError("embedding check starts from a two-qubit state")
    f2 = fef2_exact(rho)
    if f2 <= 0.5:
        raise ValueError("precondition F_2 > 1/2 violated")
    u2 = _fef2_optimal_unitary(rho)
    u_d = np.eye(d, dtype=complex)
    u_d[:2, :2] = u2
    # embed rho on the first two levels of each side
    big = np.zeros((d * d, d * d), dtype=complex)
    levels = [0, 1, d, d + 1]  # i*d + j for i, j in {0, 1}
    big[np.ix_(levels, levels)] = rho.mat
    psi_d = np.kron(np.eye(d), u_d) @ max_entangled_ket(d)
    attained = float(np.real(np.vdot(psi_d, big @ psi_d)))
    if attained < (2.0 / d) * f2 - 1e-10:
        raise RuntimeError("embedded unitary attains less than (2/d) F_2")
    return attained > 1.0 / d


def side_b(rho: DensityMatrix, side: str) -> DensityMatrix:
    """``rho`` with party ``side`` as B, the party an extension query copies."""
    return qmat.swap_parties(rho) if side == "A" else rho


def extension_threshold(d: int, k: int, flavor: str = SE, side: str = "B", sdp_tol: float = 1e-7) -> float:
    """Smallest Werner weight admitting an extension, from one query at v = 0.

    werner(d, v) runs along the segment from werner(d, 0) to I/D, and each extension set is a
    convex cone containing I/D, so the threshold is :func:`critical_weight` of t* at v = 0.
    Raises RuntimeError when that query does not end OPTIMAL.
    """
    res = extend.run_query(ExtensionQuery(side_b(werner(d, 0.0), side), k, flavor), tol=sdp_tol)
    if res.status != "OPTIMAL":
        raise RuntimeError(f"{flavor} solve at v=0 ended {res.status}; no threshold")
    return critical_weight(res.t_star, d)


def sr_program_csr(n_s: int, n_o: int, d: int):
    """Blocks, c and A of the steering-robustness SDP with A = [kron(H, I_{d^2}), -I] a CSR matrix."""
    h = _response_table(n_s, n_o)
    n_lam, k = h.shape[1], d * d
    n_slack = n_s * n_o * k  # one PSD slack per (x, a)
    a_mat = sp.csr_matrix(sp.hstack([sp.kron(h, sp.eye(k)), -sp.eye(n_slack)]))
    c = np.concatenate([np.tile(vec_real(np.eye(d)), n_lam), np.zeros(n_slack)])
    return tuple([Block("psd", d)] * (n_lam + n_s * n_o)), c, a_mat
