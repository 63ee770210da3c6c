"""Assemblages, steering robustness, Bell correlations and nonlocal content.

The steering-robustness SDP minimizes the total weight of a local-hidden-state
covering: min sum_lambda tr(sigma_lambda) - 1 subject to
sum_lambda D(a|x,lambda) sigma_lambda >= rho_{a|x} for every (a, x), with
deterministic response functions D(a|x,lambda) = [lambda_x == a].  A is measured and
steers B; B steering is A steering of :func:`~wernerlab.qmat.swap_parties` of the state.

State-level lower bounds come from a see-saw: solve the SDP for the current
measurements, read off the dual operators F_{a|x}, then improve the
measurements against the linearized objective sum tr(M_{a|x} G_{a|x}) - 1,
which is a valid SR lower bound for any POVM choice since the dual point stays
feasible.  Measurement updates are pairwise eigenvector rotations, so each
accepted step never lowers the bound, and the bound a restart keeps is the
value of the measurements it keeps.  The seeded restarts of this see-saw and
of the Bell see-saw (:func:`seesaw_bell`) are drawn in :func:`~wernerlab.states.grid_rows`,
the one place restart seeds are drawn, and run in lockstep on the grid-search scaffold
the :mod:`~wernerlab.certify` module docstring describes.  The SDP's blocks,
A and c depend on the scenario alone, so each call holds one
:class:`~wernerlab.solver.Family` of them, and each round stacks the right-hand
sides of every restart still improving into one
:meth:`~wernerlab.solver.Family.solve_many` call.

Two kinds of input need no SDP (:func:`sr_closed_form`, which holds the
proof): a Werner state that is n-extendible has SR 0 with n settings, and a
two-qubit isotropic state has a closed-form SR with two or three mutually
unbiased bases.  The steering-robustness SDP stays the reference for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import qmat
from .extend import SE, werner_t_star
from .qmat import DensityMatrix, dagger
from .solver import Block, ConicProgram, Family, KronMap, mat_real, solve, sp, vec_real
from .states import WERNER, check_restarts, grid_best, grid_rows, haar_unitaries, twirl_class

MAX_LAMBDA = 4096


def _min_eigenvalues(ops: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each operator of a (..., d, d) stack, in one call."""
    return np.linalg.eigvalsh((ops + dagger(ops)) / 2)[..., 0]


def _check_effects(effects: np.ndarray) -> None:
    """Raise ValueError unless each setting of an (..., x, a, d, d) stack of effects is a POVM:
    PSD effects within 1e-9 that sum to the identity within 1e-9.

    One stacked eigenvalue call covers the whole stack; the first failing setting, in
    row-major order, decides which check reports."""
    psd = np.all(_min_eigenvalues(effects) >= -1e-9, axis=-1).ravel()
    off = np.max(np.abs(effects.sum(axis=-3) - np.eye(effects.shape[-1])), axis=(-2, -1)).ravel() > 1e-9
    bad = np.flatnonzero(~psd | off)
    if bad.size:
        if not psd[bad[0]]:
            raise ValueError("effect is not PSD within 1e-9")
        raise ValueError("effects of one setting must sum to the identity")


@dataclass(frozen=True)
class MeasurementSet:
    """POVMs M_{a|x}: ``effects[x, a]`` of an (x, a, d, d) complex array are d x d PSD
    operators summing to the identity over a.  Nested sequences are stacked into one."""

    effects: np.ndarray

    def __post_init__(self):
        try:
            effects = np.asarray(self.effects, dtype=complex)
        except ValueError:  # ragged
            effects = np.empty(0)
        if effects.ndim != 4 or effects.shape[-1] != effects.shape[-2]:
            raise ValueError("all effects must share one dimension")
        _check_effects(effects)
        object.__setattr__(self, "effects", effects)

    @property
    def n_settings(self) -> int:
        return self.effects.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[1]

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]


def _effects_from_unitaries(u: np.ndarray, n_outcomes: int) -> np.ndarray:
    """(..., x, a, d, d) effects from an (..., x, d, d) stack of unitaries: the rank-1 projectors
    onto the columns of each, grouped round-robin into ``n_outcomes`` effects."""
    d = u.shape[-1]
    effects = np.zeros(u.shape[:-2] + (n_outcomes, d, d), dtype=complex)
    for level in range(d):
        col = u[..., :, level]
        effects[..., level % n_outcomes, :, :] += col[..., :, None] * col[..., None, :].conj()
    return effects


def projective_from_unitaries(unitaries: list[np.ndarray]) -> MeasurementSet:
    """Rank-1 projective measurements onto the rotated computational bases."""
    u = np.asarray(unitaries)
    return MeasurementSet(_effects_from_unitaries(u, u.shape[-1]))


def random_projective(d: int, n_settings: int, rng: np.random.Generator) -> MeasurementSet:
    return random_grouped_projective(d, n_settings, d, rng)


def random_grouped_projective(
    d: int, n_settings: int, n_outcomes: int, rng: np.random.Generator
) -> MeasurementSet:
    """Projective measurements with fewer outcomes than levels: rank-1 pieces
    of a Haar-rotated basis grouped round-robin into ``n_outcomes`` effects."""
    u = haar_unitaries(rng.standard_normal((n_settings, 2, d, d)))
    return MeasurementSet(_effects_from_unitaries(u, n_outcomes))


def mub_qubit_measurements(n_settings: int = 2) -> MeasurementSet:
    """Qubit Z, X (and Y) bases."""
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    y = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
    return projective_from_unitaries([z, x, y][:n_settings])


@dataclass(frozen=True)
class Assemblage:
    """Sub-normalized conditional states ``sigma[x, a]`` left on the unmeasured party, an
    (x, a, d, d) complex array.  Nested sequences are stacked into one."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=complex)
        marginals = sigma.sum(axis=1)
        # the first failing setting, in order, decides which check reports
        signals = np.max(np.abs(marginals - marginals[0]), axis=(-2, -1)) > 1e-8
        not_psd = ~np.all(_min_eigenvalues(sigma) >= -1e-9, axis=-1)
        bad = np.flatnonzero(signals | not_psd)
        if bad.size:
            if signals[bad[0]]:
                raise ValueError("assemblage signals: setting marginals differ")
            raise ValueError("conditional state is not PSD within 1e-9")
        if abs(np.trace(marginals[0]).real - 1.0) > 1e-9:
            raise ValueError("assemblage is not normalized")
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_settings(self) -> int:
        return self.sigma.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.sigma.shape[1]

    @property
    def dim(self) -> int:
        return self.sigma.shape[-1]


def _contract(r: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Hermitian part of tr_A[(op on A) rho] for each op of a (..., x, a, d, d) stack:
    the operators left on B.  ``r`` is rho as a :func:`~wernerlab.qmat.tensor`, or a stack of them
    with one state per leading index of ``ops``; B is contracted as A of
    :func:`~wernerlab.qmat.swapped` ``r``."""
    red = np.einsum("...xaiI,...Ijil->...xajl", ops, r)
    return (red + dagger(red)) / 2


def assemblage_from(rho: DensityMatrix, meas: MeasurementSet) -> Assemblage:
    """Conditional states of B when A is measured; B steers A in ``qmat.swap_parties(rho)``."""
    if meas.dim != rho.dimA:
        raise ValueError("measurement dimension does not match side A")
    return Assemblage(_contract(qmat.tensor(rho), meas.effects))


@lru_cache(maxsize=32)
def deterministic_strategies(n_settings: int, n_outcomes: int) -> tuple[tuple[int, ...], ...]:
    """All response functions lambda = (lambda_1..lambda_ns), lexicographic."""
    return tuple(product(range(n_outcomes), repeat=n_settings))


def _response_table(n_settings: int, n_outcomes: int) -> np.ndarray:
    """H[(x, a), lambda] = [lambda_x == a] over :func:`deterministic_strategies`, rows x-major."""
    lambdas = np.array(deterministic_strategies(n_settings, n_outcomes)).T
    return (lambdas[:, None, :] == np.arange(n_outcomes)[:, None]).reshape(n_settings * n_outcomes, -1).astype(float)


@dataclass
class SRResult:
    """``duals[x, a]`` is F_{a|x}, an (x, a, d, d) complex array; nested sequences are stacked."""

    value: float
    gap: float
    status: str
    duals: np.ndarray

    def __post_init__(self):
        self.duals = np.asarray(self.duals, dtype=complex)


def _check_lambda_budget(n_s: int, n_o: int) -> None:
    if n_o**n_s > MAX_LAMBDA:
        raise ValueError(f"lambda space {n_o}^{n_s} exceeds {MAX_LAMBDA}")


@lru_cache(maxsize=16)
def _sr_program(n_s: int, n_o: int, d: int) -> tuple[tuple[Block, ...], np.ndarray, KronMap]:
    """Blocks, c and A of the steering-robustness SDP, which depend on the scenario alone.

    The variable is the n_lambda blocks sigma_lambda, then one slack per (x, a), each the
    vec_real of a d x d matrix, and A = kron([H, -I], I_{d^2}) for the response table H.
    Cached, so its arrays are read-only; each solve supplies only b."""
    _check_lambda_budget(n_s, n_o)
    h = _response_table(n_s, n_o)
    n_lam, n_rows = h.shape[1], n_s * n_o  # one PSD slack per (x, a)
    a_map = KronMap(np.hstack([h, -np.eye(n_rows)]), d * d)
    c = np.concatenate([np.tile(vec_real(np.eye(d)), n_lam), np.zeros(n_rows * d * d)])
    c.flags.writeable = False
    return tuple([Block("psd", d)] * (n_lam + n_rows)), c, a_map


def _sr_duals(y: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The dual operators F_{a|x}, as an (..., x, a, d, d) stack, from an (..., m) stack of SR solutions' y."""
    n_s, n_o, d = shape
    return mat_real(y.reshape(y.shape[:-1] + (n_s, n_o, d * d)), d)


def sr_solve(assemblage: Assemblage, tol: float = 1e-7, max_iter: int = 200000) -> SRResult:
    """Steering robustness SDP with its dual steering functional."""
    sigma = assemblage.sigma
    family = Family(*_sr_program(*sigma.shape[:3]))
    (sol,) = family.solve_many(vec_real(sigma).reshape(1, -1), tol=tol, max_iter=max_iter)
    return SRResult(float(sol.primal_obj) - 1.0, sol.gap, sol.status, _sr_duals(sol.y, sigma.shape[:3]))


def steering_robustness(assemblage: Assemblage, tol: float = 1e-7) -> float:
    """SR of an assemblage; zero means a local-hidden-state model exists.

    Raises RuntimeError when the SDP did not end OPTIMAL: an unconverged iterate is no value."""
    res = sr_solve(assemblage, tol=tol)
    if res.status != "OPTIMAL":
        raise RuntimeError(f"steering-robustness SDP ended {res.status}, not OPTIMAL")
    return res.value


def _pairwise_basis_update(vectors: np.ndarray, response: np.ndarray, sweeps: int = 3) -> np.ndarray:
    """Improve orthonormal outcome bases against sum_a <m_a|G_a|m_a>.

    ``vectors`` is a (..., d, a) stack of bases (one column per outcome) and ``response``
    the matching (..., a, d, d) stack of G_a.  Each (a, a') pair is rotated to the
    eigenbasis of the restriction of G_a - G_a' onto their span: an exact
    two-dimensional ascent step.
    """
    m = vectors.copy()
    n_o = m.shape[-1]
    for _ in range(sweeps):
        for a in range(n_o):
            for ap in range(a + 1, n_o):
                span = m[..., [a, ap]]
                diff = dagger(span) @ (response[..., a, :, :] - response[..., ap, :, :]) @ span
                _, q = np.linalg.eigh((diff + dagger(diff)) / 2)
                # top eigenvector carries outcome a
                m[..., [a, ap]] = span @ q[..., ::-1]
    return m


def _update_measurements(effects: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Per-setting eigenvector updates of a (..., x, a, d, d) stack of rank-1 projective
    effects, keeping a setting only when it improves."""
    def value(eff):
        return np.real(np.trace(eff @ response, axis1=-2, axis2=-1)).sum(axis=-1)

    # current effects are rank-1 projectors onto an orthonormal basis
    basis = np.linalg.eigh(effects)[1][..., -1].swapaxes(-1, -2)
    updated = _pairwise_basis_update(basis, response)
    cand = updated.swapaxes(-1, -2)[..., :, None] * updated.swapaxes(-1, -2).conj()[..., None, :]
    keep = value(cand) >= value(effects) - 1e-12
    return np.where(keep[..., None, None, None], cand, effects)


@dataclass
class SRLowerBound:
    """``per_restart`` has one value per restart whose first SDP solve ended OPTIMAL."""

    best: float
    per_restart: list[float]
    best_measurements: MeasurementSet | None = None
    best_gap: float = 0.0


def _check_n_settings(n_settings: int) -> None:
    if n_settings < 1:
        raise ValueError(f"n_settings must be at least 1, got {n_settings}")


def check_seesaw_args(rho: DensityMatrix, n_settings: int, restarts: int, sdp_tol: float, max_rounds: int) -> None:
    """Raise ValueError, in this order, when ``n_settings`` is below 1, ``max_rounds`` below 0,
    the lambda space dimA^n_settings larger than ``MAX_LAMBDA``, ``restarts`` below 1 or
    ``sdp_tol`` not finite and positive: each argument check of :func:`sr_state_lower_bound`."""
    _check_n_settings(n_settings)
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be at least 0, got {max_rounds}")
    _check_lambda_budget(n_settings, rho.dimA)
    check_restarts(restarts)
    if not (np.isfinite(sdp_tol) and sdp_tol > 0):
        raise ValueError("tol must be finite and positive")


def sr_closed_form(rho: DensityMatrix, n_settings: int) -> float | None:
    """The steering robustness of rho with ``n_settings`` measurements of A where a closed form
    gives it, else None: on the two classes of :func:`~wernerlab.states.twirl_class` below, and
    for an input within 1e-12 of its twirl, the twirl's value.  Each case has a primal point
    sigma_lambda and a dual point F_{a|x} (the SDP's dual: F_{a|x} >= 0 and
    sum_x F_{lambda_x|x} <= I for every lambda, of value sum tr(F_{a|x} sigma_{a|x}) - 1) of equal value.

    * Werner, with t*_SE(d, n, s) <= 1 (:func:`~wernerlab.extend.werner_t_star`): 0, for every
      choice of n measurements.  rho then has an n-copy symmetric extension X on A, since rho
      commutes with the swap and B's copies serve as A's.  The primal point
      sigma_lambda = tr_{A_1..A_n}[(M_{lambda_1|1} (x) ... (x) M_{lambda_n|n} (x) I) X] is PSD and
      sums over lambda_x = a to sigma_{a|x}, with total trace 1 (Terhal, Doherty & Schwab 2003);
      the dual point F_{a|x} = I/n has value 0.
    * Two-qubit isotropic, f = <Phi+|rho|Phi+>, with n = 2 or 3: (sqrt(n) w - 1)^+/(sqrt(n) + 1),
      w = (4f - 1)/3, the exact SR of n mutually unbiased bases (:func:`mub_qubit_measurements`),
      and so a lower bound on the state's.  They leave sigma_{a|x} = (I + (-1)^a w n_x.sigma)/4,
      with orthonormal Bloch vectors n_x (Z, X and -Y: tr_A[(M (x) I) Phi+] = M^T/2), and
      m_lambda = sum_x (-1)^lambda_x n_x / sqrt(n) is a unit vector.  When sqrt(n) w >= 1, take
      beta = sqrt(n)(1 + w)/(sqrt(n) + 1):
      - primal: sigma_lambda = (beta/2^n)(I + m_lambda.sigma)/2 sums over lambda_x = a to
        (beta/4)(I + (-1)^a n_x.sigma/sqrt(n)) >= sigma_{a|x}, with total trace beta;
      - dual: F_{a|x} = (I + (-1)^a n_x.sigma)/(n + sqrt(n)) gives
        sum_x F_{lambda_x|x} = (n I + sqrt(n) m_lambda.sigma)/(n + sqrt(n)) <= I, of value beta - 1.
      When sqrt(n) w < 1, sigma_lambda = 2^-n (I + sqrt(n) w m_lambda.sigma)/2 sums to
      sigma_{a|x} exactly, and F_{a|x} = I/n has value 0.  Any n orthonormal Bloch directions give
      the same value, as rho is U (x) conj(U) invariant.

    Other inputs, and other n, return None; n below 1 raises ValueError, whatever the input."""
    _check_n_settings(n_settings)
    twirl = twirl_class(rho)
    if twirl is None:
        return None
    kind, overlap = twirl
    if kind == WERNER:
        return 0.0 if werner_t_star(rho.dimA, n_settings, SE, Fraction(overlap)) <= 1 else None
    if rho.dimA != 2 or n_settings not in (2, 3):
        return None
    root, w = np.sqrt(n_settings), (4 * overlap - 1) / 3
    return float(max(root * w - 1, 0.0) / (root + 1))


def sr_state_lower_bound(
    rho: DensityMatrix,
    n_settings: int,
    restarts: int = 200,
    seed: int = 0,
    sdp_tol: float = 1e-7,
    max_rounds: int = 200,
) -> SRLowerBound:
    """Best steering-robustness lower bound over seeded see-saw restarts.

    Each of the ``n_settings`` measurements of A is projective, with one outcome per level
    (measure B as A of ``qmat.swap_parties(rho)``).  Restart r draws them from ``seed ^ r``;
    the module docstring describes the lockstep.  Only SDP solves that ended OPTIMAL count,
    and a round counts only when it improves the value by more than 1e-7: a restart keeps
    the value, the measurements and the solution of its last accepted round together.
    Raises ValueError as :func:`check_seesaw_args` does, before any draw or solve.
    """
    check_seesaw_args(rho, n_settings, restarts, sdp_tol, max_rounds)
    shape = (n_settings, rho.dimA, rho.dimB)
    family = Family(*_sr_program(*shape))
    _, state, (u,) = grid_rows([rho], [seed], restarts, qmat.tensor, [(n_settings, 0)])

    def solve_round(rows, effects):
        """Value (-inf unless the solve ended OPTIMAL), y and gap of each row's SDP."""
        b = vec_real(_contract(state[rows], effects)).reshape(len(rows), -1)
        sols = family.solve_many(b, tol=sdp_tol)
        value = [float(sol.primal_obj) - 1.0 if sol.status == "OPTIMAL" else -np.inf for sol in sols]
        return np.array(value), np.stack([sol.y for sol in sols]), np.array([sol.gap for sol in sols])

    effects = _effects_from_unitaries(u, rho.dimA)
    _check_effects(effects)
    value, y, gap = solve_round(np.arange(restarts), effects)
    kept = value > -np.inf  # the restarts whose first solve ended OPTIMAL; `live` ones still improve
    live = np.flatnonzero(kept)
    for _ in range(max_rounds):
        if not live.size:
            break
        # G_{a|x} = tr_B[(F_{a|x} on B) rho]: the dual value is sum tr(M_{a|x} G_{a|x}) - 1
        response = _contract(qmat.swapped(state[live]), _sr_duals(y[live], shape))
        new_effects = _update_measurements(effects[live], response)
        new_value, new_y, new_gap = solve_round(live, new_effects)
        accept = new_value > value[live] + 1e-7
        live = live[accept]
        effects[live], value[live], y[live], gap[live] = (arr[accept] for arr in (new_effects, new_value, new_y, new_gap))
    (row,) = grid_best(value, restarts, np.argmax)
    if value[row] <= 0.0:
        return SRLowerBound(0.0, value[kept].tolist())
    return SRLowerBound(float(value[row]), value[kept].tolist(), MeasurementSet(effects[row]), float(gap[row]))


@dataclass(frozen=True)
class Correlation:
    """Joint conditional distribution p[x, y, a, b] for a fixed scenario."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 4:
            raise ValueError("correlation table must have shape (x, y, a, b)")
        if np.min(arr) < -1e-9:
            raise ValueError("negative probabilities")
        sums = arr.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-8:
            raise ValueError("per-setting distributions must be normalized")
        for q, direction in ((arr, "B to A"), (arr.transpose(1, 0, 3, 2), "A to B")):
            marg = q.sum(axis=3)  # the first party's marginal, (x, y, a) of q
            if np.max(np.abs(marg - marg[:, :1, :])) > 1e-8:
                raise ValueError(f"signaling from {direction} detected")
        object.__setattr__(self, "p", arr)

    @property
    def scenario(self) -> tuple[int, int, int, int]:
        return self.p.shape


def _correlations(r: np.ndarray, effects_a: np.ndarray, effects_b: np.ndarray) -> np.ndarray:
    """P(a,b|x,y) = tr[rho M_{a|x} (x) M_{b|y}] for matching (..., x, a, d, d) stacks of both sides'
    effects; ``r`` is rho as a :func:`~wernerlab.qmat.tensor`, or a stack of them matching the
    leading axes."""
    # tr[rho (M_a (x) M_b)] = sum rho[(i,j),(k,l)] M_a[k,i] M_b[l,j]
    return np.einsum("...ijkl,...xaki,...yblj->...xyab", r, effects_a, effects_b).real


def correlation_from(rho: DensityMatrix, meas_a: MeasurementSet, meas_b: MeasurementSet) -> Correlation:
    """P(a,b|x,y) = tr[rho M_{a|x} (x) M_{b|y}]."""
    if meas_a.dim != rho.dimA or meas_b.dim != rho.dimB:
        raise ValueError("measurement dimensions do not match the state")
    return Correlation(_correlations(qmat.tensor(rho), meas_a.effects, meas_b.effects))


def nonlocal_content(corr: Correlation, tol: float = 1e-9) -> float:
    """Minimal weight v with P = (1-v) P_local + v P_nonsignaling.

    LP over the local polytope's product deterministic vertices with the
    nonsignaling part kept as constrained free mass.  Raises RuntimeError when the LP did
    not end OPTIMAL.
    """
    sol = solve(nonlocal_content_program(corr), tol=tol)
    if sol.status != "OPTIMAL":
        raise RuntimeError(f"nonlocal-content LP ended {sol.status}, not OPTIMAL")
    return float(np.clip(sol.primal_obj, 0.0, 1.0))


def nonlocal_content_program(corr: Correlation) -> ConicProgram:
    """The nonlocal-content LP in standard conic form (variables q, R, v)."""
    n_sa, n_sb, n_oa, n_ob = corr.scenario
    n_q, n_r = n_oa**n_sa * n_ob**n_sb, corr.p.size
    if n_q > 10**6:
        raise ValueError("scenario too large for vertex enumeration")
    # P(a,b|x,y) = sum_{lambda,mu} [lambda_x = a][mu_y = b] q_{lambda,mu} + R(a,b|x,y), rows (x, y, a, b)
    xyab_rows = np.arange(n_r).reshape(n_sa, n_oa, n_sb, n_ob).transpose(0, 2, 1, 3).ravel()
    local = sp.kron(_response_table(n_sa, n_oa), _response_table(n_sb, n_ob), format="csr")[xyab_rows]
    # the nonlocal mass R signals neither way: each marginal equals the one at setting 0
    step_a = np.eye(n_sa)[1:] - np.eye(n_sa)[0]
    step_b = np.eye(n_sb)[1:] - np.eye(n_sb)[0]
    ns_a = np.einsum("xX,aA,kY,b->xakXYAb", np.eye(n_sa), np.eye(n_oa), step_b, np.ones(n_ob))
    ns_b = np.einsum("yY,bB,kX,a->ybkXYaB", np.eye(n_sb), np.eye(n_ob), step_a, np.ones(n_oa))
    ns_a, ns_b = sp.csr_matrix(ns_a.reshape(-1, n_r)), sp.csr_matrix(ns_b.reshape(-1, n_r))
    a_mat = sp.bmat(
        [
            [local, sp.eye(n_r), None],
            [sp.csr_matrix(np.ones((1, n_q))), None, sp.eye(1)],  # total weight: sum q + v = 1
            [None, ns_a, None],
            [None, ns_b, None],
        ]
    )
    b = np.concatenate([corr.p.ravel(), [1.0], np.zeros(ns_a.shape[0] + ns_b.shape[0])])
    c = np.zeros(n_q + n_r + 1)
    c[-1] = 1.0
    return ConicProgram((Block("nonneg", len(c)),), c, a_mat, b)


def chsh_coefficients() -> np.ndarray:
    """CHSH as a (x, y, a, b) coefficient table: sum of +-<A_x B_y> with the last sign flipped."""
    return np.multiply.outer(np.array([[1.0, 1.0], [1.0, -1.0]]), 2.0 * np.eye(2) - 1.0)


def _bell_response(r: np.ndarray, table: np.ndarray, effects_b: np.ndarray) -> np.ndarray:
    """G_{a|x} of A with sum_ax tr(M_{a|x} G_{a|x}) the Bell value of the (x, y, a, b) table
    against B's (..., y, b, d, d) effects, as a matching (..., x, a, d, d) stack; ``r`` is rho
    as a :func:`~wernerlab.qmat.tensor`, or a stack of them matching the leading axes.  B's is A's of
    :func:`~wernerlab.qmat.swapped` ``r`` and the table transposed (1, 0, 3, 2)."""
    ops = np.einsum("xyab,...ybij->...xaij", table, effects_b)  # on B
    return _contract(qmat.swapped(r), ops)


def _exact_two_outcome_update(response: np.ndarray) -> np.ndarray:
    """Optimal POVM per setting for two outcomes: positive part of G_0 - G_1 and its complement."""
    w, q = np.linalg.eigh(response[..., 0, :, :] - response[..., 1, :, :])
    pos = (q * (w > 0)[..., None, :]) @ dagger(q)
    return np.stack([pos, np.eye(pos.shape[-1], dtype=complex) - pos], axis=-3)


def _best_povm_update(effects: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Improved (..., x, a, d, d) effects against the response, checked as POVMs in one call."""
    new = _exact_two_outcome_update(response) if effects.shape[-3] == 2 else _update_measurements(effects, response)
    _check_effects(new)
    return new


def _seesaw_bell_rows(
    r: np.ndarray, coefficients: np.ndarray, effects_a: np.ndarray, effects_b: np.ndarray
) -> np.ndarray:
    """Final Bell value of the see-saw from each start of two (R, x, a, d, d) effect stacks, in lockstep.

    ``r`` is the state of every row, an (R, dA, dB, dA, dB) stack of
    :func:`~wernerlab.qmat.tensor`s, or one tensor that all rows share.  Each half-step
    updates one side of every row still improving in one stacked call per kernel; B's
    half-step is A's on the :func:`~wernerlab.qmat.swapped` tensor and transposed table.  A
    row stops when a round gains less than 1e-9, or after 500 rounds."""
    r = np.broadcast_to(r, (len(effects_a),) + r.shape[-4:])

    def values(r_rows, table, mine, other):
        return np.sum(_correlations(r_rows, mine, other) * table, axis=(-4, -3, -2, -1))

    effects_a, effects_b = effects_a.copy(), effects_b.copy()
    halves = (
        (r, coefficients, effects_a, effects_b),
        (qmat.swapped(r), coefficients.transpose(1, 0, 3, 2), effects_b, effects_a),
    )
    live = np.arange(len(effects_a))
    value = values(r[live], coefficients, effects_a, effects_b)
    for _ in range(500):
        start = cur = value[live]
        for state, table, mine, other in halves:
            t_live = state[live]
            new = _best_povm_update(mine[live], _bell_response(t_live, table, other[live]))
            new_value = values(t_live, table, new, other[live])
            keep = new_value >= cur - 1e-12
            mine[live[keep]] = new[keep]
            cur = np.where(keep, np.maximum(new_value, cur), cur)
        value[live] = cur
        live = live[~(cur - start < 1e-9)]
        if not live.size:
            break
    return value


def seesaw_bell_many(
    rhos: list[DensityMatrix],
    coefficients: np.ndarray,
    seeds: list[int],
    restarts: int = 20,
) -> list[float]:
    """:func:`seesaw_bell` for a grid of states, state i seeded by ``seeds[i]``: one lockstep stack,
    as the :mod:`~wernerlab.certify` module docstring describes.  Raises ValueError as
    :func:`~wernerlab.states.grid_rows` does, and on a scenario the see-saw does not support.
    """
    n_sa, n_sb, n_oa, n_ob = coefficients.shape
    if n_oa ** n_sa * n_ob ** n_sb > 10**6:
        raise ValueError("scenario too large")
    (d_a, d_b), r, (ua, ub) = grid_rows(rhos, seeds, restarts, qmat.tensor, [(n_sa, 0), (n_sb, 1)])
    effects = []
    for side, n_o, dim, u in (("A", n_oa, d_a, ua), ("B", n_ob, d_b, ub)):
        if n_o not in (2, dim):  # the pairwise update needs rank-1 effects
            raise ValueError(f"side {side} has {n_o} outcomes in dimension {dim}; the see-saw needs 2 or {dim}")
        effects.append(_effects_from_unitaries(u, n_o))
        _check_effects(effects[-1])
    value = _seesaw_bell_rows(r, coefficients, *effects)
    return [float(v) for v in value[grid_best(value, restarts, np.argmax)]]


def seesaw_bell(
    rho: DensityMatrix,
    coefficients: np.ndarray,
    restarts: int = 20,
    seed: int = 0,
) -> float:
    """Lower bound on the maximal Bell value of rho for the given functional.

    The shape of ``coefficients``, (settings A, settings B, outcomes A, outcomes B), fixes
    the scenario; each side needs 2 outcomes or as many as its dimension.  Alternates exact
    (two-outcome) or pairwise-eigenvector measurement updates between the sides; each
    accepted half-step never decreases the value.  Restart r draws both sides' measurements
    from ``seed ^ r`` in :func:`~wernerlab.states.grid_rows`.  The stack of one of :func:`seesaw_bell_many`.
    """
    return seesaw_bell_many([rho], coefficients, [seed], restarts=restarts)[0]
