"""Scalar certificates on a given state.

Each check returns a :class:`Certificate` carrying the raw value, the decision
threshold and a verdict.  Verdict semantics, per certificate:

* ``ppt``            FAIL = separability refuted (entangled); else INCONCLUSIVE.
* ``one_distillable``  PASS = 1-distillability certified; else INCONCLUSIVE
  (a heuristic search that finds nothing proves nothing).
* ``gurvits_ball``   PASS = separability certified; else INCONCLUSIVE.
* ``fef``            PASS = useful for teleportation (F_d > 1/d); else INCONCLUSIVE.
* ``chsh``           PASS = CHSH violation (exact for two qubits); FAIL = none possible.
* ``dense_coding``   PASS = dense-codable (delta > 0); FAIL = not (delta is exact).

A witness holds the arrays the search found: ``one_distillable``'s Schmidt-rank-2
``psi``, ``fef``'s ``unitary``, and ``chsh``'s ``singular_values`` with the
``alice_plane`` and ``bob_plane`` rows that span the optimal measurement planes.

Closed forms.  On a Werner input (:func:`~wernerlab.states.twirl_class`) the
fully-entangled fraction and the 1-distillability value need no search:
:func:`fef_closed_form` and :func:`one_distillable_closed_form` hold the proofs and
return None on any other input.  Their witnesses attain the value: the
``unitary`` is I or a sum of 2x2 blocks [[0, 1], [-1, 0]] (plus a 1 when d is odd),
and ``psi`` is (|00> + |11>)/sqrt(2) or |01>.  The searches stay the reference.

Lockstep.  The package's multi-start searches -- ``one_distillable`` and
``fef`` here, the Bell and steering see-saws of :mod:`~wernerlab.steer` -- and
its MLE (:func:`~wernerlab.tomo.mle_reconstruct_many`) run their rows in
lockstep: the rows (seeded restarts, or counts records) form one stack, each
step makes one stacked call per kernel for the rows still running, and a row
leaves when its own stopping test fires.  Every kernel acts row by row with
the same arithmetic whatever the stack width, so a row gives the same result,
bit for bit, as it gives run on its own.  A grid search (``one_distillable_many``,
``fef_many``, ``steer.seesaw_bell_many``) takes states of one bipartition, one seed
per state: :func:`~wernerlab.states.grid_rows`, the one place restart seeds are drawn,
checks the grid, makes every (state, restart) pair a row that carries its own state,
and draws restart r of a state seeded s from ``s ^ r``.
:func:`~wernerlab.states.grid_best` picks each state's best restart, so each
state gets the certificate it gets alone.  The single-state forms and the
steering see-saw (``steer.sr_state_lower_bound``) are the stack of one.  The
SDPs inside the steering see-saw stack the same way in
:meth:`~wernerlab.solver.Family.solve_many`; see :mod:`~wernerlab.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .filterops import filtered_weight
from .qmat import DensityMatrix, dagger, partial_trace, partial_transpose
from .solver import check_tol
from .states import WERNER, grid_best, grid_rows, twirl_class

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Certificate:
    name: str
    value: float
    threshold: float
    verdict: str
    witness: dict[str, np.ndarray] | None = None
    seed: int | None = None
    restarts: int | None = None


def ppt_min_eig(rho: DensityMatrix) -> Certificate:
    """Minimum eigenvalue of the partial transpose; negative certifies entanglement."""
    value = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
    verdict = FAIL if value < -1e-9 else INCONCLUSIVE
    return Certificate("ppt", value, 0.0, verdict)


def _distill_descent(x: np.ndarray, va: np.ndarray, vb: np.ndarray):
    """Alternating eigen-steps from each frame pair of two (R, d, 2) stacks, in lockstep.

    ``x`` is the partial transpose of each row's state, an (R, D, D) stack, or one that every
    row shares.  A half-step fixes one party's frame; the bottom eigenvector of the operator
    compressed by kron(frame, I) lives on C^2 (x) C^d, and its top two right singular vectors
    are the other party's new frame.  A's half-step is B's on :func:`~wernerlab.qmat.swapped`
    ``x``.  Returns each row's final value, A frame and psi on C^2 (x) C^dB; a row stops when
    its value improves by less than 1e-12 or after 100 rounds.
    """
    (n, d_a, _), d_b = va.shape, vb.shape[1]
    va, vb = va.copy(), vb.copy()
    x = np.broadcast_to(x, (n,) + x.shape[-2:]).reshape(n, d_a, d_b, d_a, d_b)
    val = np.full(n, np.inf)
    psi = np.empty((n, 2 * d_b), dtype=complex)
    live = np.arange(n)
    for _ in range(100):
        for op, fixed, free in ((qmat.swapped(x), vb, va), (x, va, vb)):
            d = free.shape[1]
            big = qmat.kron(fixed[live], np.eye(d))
            comp = dagger(big) @ op[live].reshape(-1, big.shape[1], big.shape[1]) @ big
            w, q = np.linalg.eigh((comp + dagger(comp)) / 2)
            free[live] = dagger(np.linalg.svd(q[..., 0].reshape(-1, 2, d), full_matrices=False)[2])
        psi[live] = q[..., 0]
        improving = ~(val[live] - w[:, 0] < 1e-12)
        val[live] = w[:, 0]
        live = live[improving]
        if not live.size:
            break
    return val, va, psi


def one_distillable_many(rhos: list[DensityMatrix], seeds: list[int], restarts: int = 64) -> list[Certificate]:
    """:func:`one_distillable` for a grid of states, state i seeded by ``seeds[i]``: one lockstep
    stack, as the module docstring describes.  Raises ValueError as :func:`~wernerlab.states.grid_rows` does,
    and when a local dimension is below 2, where no Schmidt-rank-2 vector exists.
    """
    (d_a, d_b), x, (ua, ub) = grid_rows(rhos, seeds, restarts, partial_transpose, [(1, 0), (1, 1)])
    if min(d_a, d_b) < 2:
        raise ValueError(f"a Schmidt-rank-2 vector needs local dimensions of at least 2, got ({d_a}, {d_b})")
    val, va, psi = _distill_descent(x, ua[:, 0, :, :2], ub[:, 0, :, :2])
    certs = []
    for seed, best in zip(seeds, grid_best(val, restarts, np.argmin)):
        best_val = float(val[best])
        best_psi = (qmat.kron(va[best], np.eye(d_b)) @ psi[best]).ravel()
        verdict = PASS if best_val < -1e-6 else INCONCLUSIVE
        certs.append(Certificate("one_distillable", best_val, 0.0, verdict, {"psi": best_psi}, seed, restarts))
    return certs


def one_distillable(rho: DensityMatrix, restarts: int = 64, seed: int = 0) -> Certificate:
    """Best (lowest) <psi| rho^T_A |psi> over Schmidt-rank-2 vectors psi.

    Alternating eigen-steps: with one side's two-dimensional frame fixed, the
    optimal psi is the bottom eigenvector of the compressed operator, which
    also yields the updated frame for the other side.  The stack of one of
    :func:`one_distillable_many`; the module docstring describes the lockstep.
    """
    return one_distillable_many([rho], [seed], restarts=restarts)[0]


def _werner_weights(rho: DensityMatrix) -> tuple[int, float, float] | None:
    """(d, alpha, beta) with rho = alpha I + beta F when :func:`~wernerlab.states.twirl_class` reads
    rho as Werner, from s = tr(rho F): alpha = (d - s)/(d(d^2 - 1)), beta = (sd - 1)/(d(d^2 - 1)).
    None on any other input."""
    twirl = twirl_class(rho)
    if twirl is None or twirl[0] != WERNER:
        return None
    d, s = rho.dimA, twirl[1]
    den = d * (d * d - 1)
    return d, (d - s) / den, (s * d - 1) / den


def one_distillable_closed_form(rho: DensityMatrix) -> Certificate | None:
    """The exact minimum of <psi| rho^T_A |psi> over Schmidt-rank-2 unit vectors psi on a Werner
    input rho = alpha I + beta F (:func:`_werner_weights`), else None (DiVincenzo, Shor, Smolin,
    Terhal & Thapliyal, PRA 61, 062312 (2000)).  For an input within 1e-12 of its twirl, the
    twirl's value.

    The value is alpha + min(0, 2 beta).  Proof: F^T_A = d P+, with P+ = |Phi+><Phi+|, so
    rho^T_A = alpha I + beta d P+.  A unit psi with coefficient matrix C of Schmidt rank at most 2
    has <Phi+|psi> = tr C / sqrt(d), and |tr C| <= sigma_1 + sigma_2 <= sqrt(2) by the triangle
    inequality and Cauchy-Schwarz on its two singular values, so <P+> lies in [0, 2/d].  The
    witness ``psi`` attains the minimum: (|00> + |11>)/sqrt(2), with <P+> = 2/d, when beta < 0,
    and |01>, with <P+> = 0, otherwise.  The value crosses 0 at v = (d + 1)/(4d - 2) on
    ``states.werner(d, v)``, 0.4 at d = 3.  The verdict is the search's (:func:`one_distillable`)."""
    weights = _werner_weights(rho)
    if weights is None:
        return None
    d, alpha, beta = weights
    psi = np.zeros(d * d, dtype=complex)
    if beta < 0:
        psi[0] = psi[d + 1] = 1 / np.sqrt(2)
    else:
        psi[1] = 1.0
    value = float(alpha + min(0.0, 2 * beta))
    verdict = PASS if value < -1e-6 else INCONCLUSIVE
    return Certificate("one_distillable", value, 0.0, verdict, {"psi": psi})


def gurvits_ball(rho: DensityMatrix) -> Certificate:
    """Separability ball around the maximally mixed state (Frobenius distance test)."""
    if rho.dimA != rho.dimB:
        raise ValueError("ball criterion stated for equal local dimensions")
    d = rho.dimA
    if d < 2:
        raise ValueError("ball criterion needs local dimensions of at least 2")
    value = float(np.linalg.norm(rho.mat - np.eye(d * d) / (d * d)) ** 2)
    radius = 1.0 / (d * d * (d * d - 1))
    verdict = PASS if value <= radius else INCONCLUSIVE
    return Certificate("gurvits_ball", value, radius, verdict)


def _fef_objective(rho_mat: np.ndarray, u: np.ndarray, d: int):
    """f = <psi|rho|psi> with psi = (I x U)|Phi+>, and d f / d conj(U), for each U of an (R, d, d)
    stack and the state of its row in ``rho_mat``."""
    psi = u.swapaxes(-1, -2).reshape(len(u), -1) / np.sqrt(d)
    w = rho_mat @ psi[..., None]
    f = np.real(psi[:, None, :].conj() @ w)[:, 0, 0]
    grad = w.reshape(-1, d, d).swapaxes(-1, -2) / np.sqrt(d)
    return f, grad


def _skew_expm(w: np.ndarray, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(s omega) = Q diag(e^{-i s w}) Q^dag for each anti-Hermitian omega of a stack, with (w, Q) = eigh(i omega)."""
    return (q * np.exp(-1j * s[:, None] * w)[:, None, :]) @ dagger(q)


def _fef_ascent(rho_mat: np.ndarray, u: np.ndarray):
    """Riemannian ascent from each start of an (R, d, d) stack of unitaries, in lockstep.

    ``rho_mat`` is the state of each row, an (R, d^2, d^2) stack, or one that every row
    shares.  Every tick tries one line-search step on every row still running; a row
    stops when its gradient vanishes, after 300 accepted steps, when its step falls to
    1e-12, or once no try can gain: along exp(s Omega) U, f has slope ||Omega||_F^2 at
    s = 0 and |f''| <= 4 ||Omega||_F^2, so f rises by at most s ||Omega||_F^2 (1 + 2 s),
    and once that is at most 1e-15 at the current step, no try at it or at the smaller
    steps that follow can pass the 1e-15 ascent test except through rounding.  A row
    diagonalises its direction once, when the direction changes, and exponentiates each
    line-search try from that.  Returns each row's final f and U.
    """
    d = u.shape[-1]
    u = u.copy()
    rho_mat = np.broadcast_to(rho_mat, (len(u),) + rho_mat.shape[-2:])
    f, grad = _fef_objective(rho_mat, u, d)
    step = np.ones(len(u))
    moves = np.zeros(len(u), dtype=int)
    omega, eig_w, eig_q = np.empty_like(u), np.empty(u.shape[:2]), np.empty_like(u)
    slope = np.empty(len(u))  # ||omega||_F^2, the slope of f along exp(s omega) U at s = 0
    fresh = np.ones(len(u), dtype=bool)  # rows that moved and need a new direction
    live = np.arange(len(u))
    while live.size:
        turn = live[fresh[live]]
        g, v = grad[turn], u[turn]
        omega[turn] = g @ dagger(v) - v @ dagger(g)  # anti-Hermitian ascent direction
        eig_w[turn], eig_q[turn] = np.linalg.eigh(1j * omega[turn])
        norm = np.linalg.norm(omega[turn], axis=(-2, -1))
        slope[turn] = norm * norm
        fresh[turn] = False
        # no try at this step or a smaller one can gain more than 1e-15: f rises by at most s slope (1 + 2 s)
        stop = ~(step > 1e-12) | (step * slope * (1 + 2 * step) <= 1e-15)
        stop[turn] |= (moves[turn] == 300) | (norm < 1e-12)
        live = live[~stop[live]]
        if not live.size:
            break
        u_try = _skew_expm(eig_w[live], eig_q[live], step[live]) @ u[live]
        f_try, grad_try = _fef_objective(rho_mat[live], u_try, d)
        up = f_try > f[live] + 1e-15
        moved = live[up]
        u[moved], f[moved], grad[moved] = u_try[up], f_try[up], grad_try[up]
        step[moved] *= 1.3
        moves[moved] += 1
        fresh[moved] = True
        step[live[~up]] /= 2
    return f, u


def fef_many(rhos: list[DensityMatrix], seeds: list[int], restarts: int = 32) -> list[Certificate]:
    """:func:`fef` for a grid of states, state i seeded by ``seeds[i]``: one lockstep stack, as
    the module docstring describes.  Raises ValueError as :func:`~wernerlab.states.grid_rows` does,
    and on a bipartition that is not square.
    """
    (d, d_b), mats, (starts,) = grid_rows(rhos, seeds, restarts, lambda rho: rho.mat, [(1, 0)])
    if d != d_b:
        raise ValueError("fully-entangled fraction needs a square bipartition")
    starts[::restarts, 0] = np.eye(d)  # restart 0 of each state starts from the identity
    f, u = _fef_ascent(mats, starts[:, 0])
    certs = []
    for seed, best in zip(seeds, grid_best(f, restarts, np.argmax)):
        best_f = float(f[best])
        verdict = PASS if best_f > 1.0 / d + 1e-9 else INCONCLUSIVE
        certs.append(Certificate("fef", best_f, 1.0 / d, verdict, {"unitary": u[best]}, seed, restarts))
    return certs


def fef(rho: DensityMatrix, restarts: int = 32, seed: int = 0) -> Certificate:
    """Fully-entangled fraction via multi-start Riemannian ascent over the unitary group.

    A heuristic lower bound on max_U <Phi+|(I x U^dag) rho (I x U)|Phi+>; the
    identity start guarantees value >= <Phi+|rho|Phi+>; restart r > 0 starts
    from a Haar unitary drawn from ``seed ^ r``.  The step's exponential
    exp(s Omega) comes from one ``eigh`` of i Omega per direction.  The stack of
    one of :func:`fef_many`; the module docstring describes the lockstep.
    """
    return fef_many([rho], [seed], restarts=restarts)[0]


def fef_closed_form(rho: DensityMatrix) -> Certificate | None:
    """The exact fully-entangled fraction max_U <Phi_U|rho|Phi_U>, Phi_U = (I x U)|Phi+>, of a
    Werner input rho = alpha I + beta F (:func:`_werner_weights`), else None (Horodecki &
    Horodecki, PRA 59, 4206 (1999)).  For an input within 1e-12 of its twirl, the twirl's value.

    The value is alpha + beta f, with f the maximum of <Phi_U|F|Phi_U> = 1 - 2 <Pi->, Pi- the
    antisymmetric projector, when beta >= 0 and its minimum otherwise.  The maximum is 1, at
    U = I, as Phi+ is symmetric.  For the minimum: Phi_U has coefficient matrix M = U^T/sqrt(d)
    and <Pi-> = ||(M - M^T)/2||_F^2.  That antisymmetric part has operator norm at most
    ||M|| = 1/sqrt(d) and even rank, so <Pi-> <= 1 when d is even and <= (d - 1)/d when d is
    odd: f is -1 for even d and -(d - 2)/d for odd d.  The witness ``unitary`` attains it: the
    direct sum of 2x2 blocks [[0, 1], [-1, 0]], plus a 1 when d is odd, makes M antisymmetric
    on every block.  The verdict is the search's (:func:`fef`)."""
    weights = _werner_weights(rho)
    if weights is None:
        return None
    d, alpha, beta = weights
    u = np.eye(d, dtype=complex)
    f = 1.0
    if beta < 0:
        for i in range(0, d - 1, 2):
            u[i : i + 2, i : i + 2] = [[0, 1], [-1, 0]]
        f = -1.0 if d % 2 == 0 else -(d - 2) / d
    value = float(alpha + beta * f)
    verdict = PASS if value > 1.0 / d + 1e-9 else INCONCLUSIVE
    return Certificate("fef", value, 1.0 / d, verdict, {"unitary": u})


def _magic_basis() -> np.ndarray:
    """Columns are the magic-basis vectors; maximally entangled states have real coords."""
    s = 1 / np.sqrt(2)
    e1 = s * np.array([1, 0, 0, 1], dtype=complex)
    e2 = 1j * s * np.array([1, 0, 0, -1], dtype=complex)
    e3 = 1j * s * np.array([0, 1, 1, 0], dtype=complex)
    e4 = s * np.array([0, 1, -1, 0], dtype=complex)
    return np.column_stack([e1, e2, e3, e4])


def fef2_exact(rho: DensityMatrix | np.ndarray) -> float:
    """Exact two-qubit fully-entangled fraction: top eigenvalue of Re(rho) in the magic basis."""
    m = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("fef2_exact needs a two-qubit state")
    e = _magic_basis()
    magic = dagger(e) @ m @ e
    return float(np.linalg.eigvalsh(magic.real)[-1])


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 two-qubit correlation matrix T_mn = tr[rho sigma_m (x) sigma_n]."""
    if rho.dimA != 2 or rho.dimB != 2:
        raise ValueError("correlation matrix defined for two-qubit states")
    paulis = np.array(qmat.PAULIS)[:, None]  # three settings of one effect each
    return qmat.correlations(qmat.tensor(rho), paulis, paulis)[:, :, 0, 0]


def chsh_horodecki(rho: DensityMatrix) -> Certificate:
    """Maximal CHSH value 2 sqrt(t1^2 + t2^2) from the correlation-matrix criterion."""
    t = correlation_matrix(rho)
    u, s, vdag = np.linalg.svd(t)
    value = float(2.0 * np.sqrt(s[0] ** 2 + s[1] ** 2))
    verdict = PASS if value > 2.0 + 1e-9 else FAIL
    witness = {"singular_values": s, "alice_plane": u[:, :2].T, "bob_plane": vdag[:2]}
    return Certificate("chsh", value, 2.0, verdict, witness)


def dense_coding_delta(rho: DensityMatrix) -> Certificate:
    """Dense-coding advantage delta = S(rho_B) - S(rho_AB) in bits."""
    s_b = qmat.von_neumann_entropy(partial_trace(rho))
    s_ab = qmat.von_neumann_entropy(rho)
    value = s_b - s_ab
    verdict = PASS if value > 1e-9 else FAIL
    return Certificate("dense_coding", value, 0.0, verdict)


def _xlog2(x: float) -> float:
    return 0.0 if x <= 0.0 else x * np.log2(x)


def werner_delta(d: int, v: float) -> float:
    """Closed-form delta of the d-dimensional Werner state with weight v."""
    return float(
        np.log2(d) + _xlog2(v) + v * np.log2(2.0 / (d * (d + 1))) + _xlog2(1 - v)
        + (1 - v) * np.log2(2.0 / (d * (d - 1)))
    )


def filtered_delta(d: int, v: float) -> float:
    """Closed-form delta of the qubit-filtered Werner state: the two-qubit Werner state at v'."""
    return werner_delta(2, filtered_weight(d, v))


def dc_threshold(d: int, tol: float = 1e-5) -> float:
    """Root of filtered_delta(d, .) on [0, 0.5] by bisection.

    The bracket holds for every d >= 2: filtered delta is 1 at v = 0, and at v = 0.5 the
    filtered weight is at least 1/2, above the two-qubit root near 0.189.  Raises ValueError
    on a d that is not an integer or is below 2 (in :func:`~wernerlab.filterops.filtered_weight`),
    whatever ``tol`` is, then on a ``tol`` that is not finite and positive.  A ``tol`` below
    the float spacing stops at adjacent floats.
    """
    filtered_weight(d, 0.0)  # checks d even where no bisection step runs
    check_tol(tol)
    lo, hi = 0.0, 0.5
    while hi - lo > tol and lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        if filtered_delta(d, mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
