"""Assemblages, steering robustness, Bell correlations and nonlocal content.

The steering-robustness SDP minimizes the total weight of a local-hidden-state
covering: min sum_lambda tr(sigma_lambda) - 1 subject to
sum_lambda D(a|x,lambda) sigma_lambda >= rho_{a|x} for every (a, x), with
deterministic response functions D(a|x,lambda) = [lambda_x == a].

State-level lower bounds come from a see-saw: solve the SDP for the current
measurements, read off the dual operators F_{a|x}, then improve the
measurements against the linearized objective sum tr(M_{a|x} G_{a|x}) - 1,
which is a valid SR lower bound for any POVM choice since the dual point stays
feasible.  Measurement updates are pairwise eigenvector rotations, so each
accepted step never lowers the bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.sparse as sp

from .qmat import DensityMatrix, contract, dagger
from .solver import Block, ConicProgram, mat_real, solve, vec_real
from .states import haar_unitary

MAX_LAMBDA = 4096


def _min_eigenvalues(ops: list[np.ndarray]) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each operator, in one stacked call."""
    stack = np.asarray(ops)
    return np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2)[:, 0]


@dataclass(frozen=True)
class MeasurementSet:
    """POVMs M_{a|x}: effects[x][a] are d x d PSD operators summing to the identity."""

    effects: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        d = self.effects[0][0].shape[0]
        flat = [eff for setting in self.effects for eff in setting]
        if any(eff.shape != (d, d) for eff in flat):
            raise ValueError("all effects must share one dimension")
        psd = _min_eigenvalues(flat) >= -1e-9
        pos = 0
        for setting in self.effects:
            if not psd[pos : pos + len(setting)].all():
                raise ValueError("effect is not PSD within 1e-9")
            pos += len(setting)
            if np.max(np.abs(np.sum(setting, axis=0) - np.eye(d))) > 1e-9:
                raise ValueError("effects of one setting must sum to the identity")

    @property
    def n_settings(self) -> int:
        return len(self.effects)

    @property
    def n_outcomes(self) -> int:
        return len(self.effects[0])

    @property
    def dim(self) -> int:
        return self.effects[0][0].shape[0]


def projective_from_unitaries(unitaries: list[np.ndarray]) -> MeasurementSet:
    """Rank-1 projective measurements onto the rotated computational bases."""
    settings = []
    for u in unitaries:
        d = u.shape[0]
        settings.append(tuple(np.outer(u[:, a], u[:, a].conj()) for a in range(d)))
    return MeasurementSet(tuple(settings))


def random_projective(d: int, n_settings: int, rng: np.random.Generator) -> MeasurementSet:
    return projective_from_unitaries([haar_unitary(d, rng) for _ in range(n_settings)])


def random_grouped_projective(
    d: int, n_settings: int, n_outcomes: int, rng: np.random.Generator
) -> MeasurementSet:
    """Projective measurements with fewer outcomes than levels: rank-1 pieces
    of a Haar-rotated basis grouped round-robin into ``n_outcomes`` effects."""
    settings = []
    for _ in range(n_settings):
        u = haar_unitary(d, rng)
        effects = [np.zeros((d, d), dtype=complex) for _ in range(n_outcomes)]
        for level in range(d):
            effects[level % n_outcomes] += np.outer(u[:, level], u[:, level].conj())
        settings.append(tuple(effects))
    return MeasurementSet(tuple(settings))


def mub_qubit_measurements(n_settings: int = 2) -> MeasurementSet:
    """Qubit Z, X (and Y) bases."""
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    y = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
    return projective_from_unitaries([z, x, y][:n_settings])


@dataclass(frozen=True)
class Assemblage:
    """Sub-normalized conditional states sigma[x][a] left on the unmeasured side."""

    sigma: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        psd = _min_eigenvalues([s for setting in self.sigma for s in setting]) >= -1e-9
        reduced, pos = None, 0
        for setting in self.sigma:
            tot = sum(setting)
            if reduced is None:
                reduced = tot
            elif np.max(np.abs(tot - reduced)) > 1e-8:
                raise ValueError("assemblage signals: setting marginals differ")
            if not psd[pos : pos + len(setting)].all():
                raise ValueError("conditional state is not PSD within 1e-9")
            pos += len(setting)
        if abs(np.trace(reduced).real - 1.0) > 1e-9:
            raise ValueError("assemblage is not normalized")

    @property
    def n_settings(self) -> int:
        return len(self.sigma)

    @property
    def n_outcomes(self) -> int:
        return len(self.sigma[0])

    @property
    def dim(self) -> int:
        return self.sigma[0][0].shape[0]


def assemblage_from(rho: DensityMatrix, meas: MeasurementSet, steering_side: str = "A") -> Assemblage:
    """Conditional states of the other side when ``steering_side`` is measured."""
    if meas.dim != (rho.dimA if steering_side == "A" else rho.dimB):
        raise ValueError(f"measurement dimension does not match side {steering_side}")
    return Assemblage(tuple(tuple(contract(rho, eff, steering_side) for eff in setting) for setting in meas.effects))


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
    value: float
    gap: float
    status: str
    duals: tuple[tuple[np.ndarray, ...], ...]  # F_{a|x} per [x][a]


def sr_solve(assemblage: Assemblage, tol: float = 1e-7, max_iter: int = 200000) -> SRResult:
    """Steering robustness SDP with its dual steering functional."""
    n_s, n_o, d = assemblage.n_settings, assemblage.n_outcomes, assemblage.dim
    if n_o**n_s > MAX_LAMBDA:
        raise ValueError(f"lambda space {n_o}^{n_s} exceeds {MAX_LAMBDA}")
    h = _response_table(n_s, n_o)
    n_lam, k = h.shape[1], d * d
    n_slack = n_s * n_o * k  # one PSD slack per (x, a)
    a_mat = sp.hstack([sp.kron(h, sp.eye(k)), -sp.eye(n_slack)])
    b = np.concatenate([vec_real(s) for setting in assemblage.sigma for s in setting])
    c = np.concatenate([np.tile(vec_real(np.eye(d)), n_lam), np.zeros(n_slack)])
    blocks = tuple([Block("psd", d)] * (n_lam + n_s * n_o))
    sol = solve(ConicProgram(blocks, c, a_mat, b), tol=tol, max_iter=max_iter)
    duals = mat_real(sol.y.reshape(n_s, n_o, k), d)
    return SRResult(
        value=float(sol.primal_obj) - 1.0,
        gap=sol.gap,
        status=sol.status,
        duals=tuple(tuple(row) for row in duals),
    )


def steering_robustness(assemblage: Assemblage, tol: float = 1e-7) -> float:
    """SR of an assemblage; zero means a local-hidden-state model exists.

    Raises RuntimeError when the SDP did not end OPTIMAL: an unconverged iterate is no value."""
    res = sr_solve(assemblage, tol=tol)
    if res.status != "OPTIMAL":
        raise RuntimeError(f"steering-robustness SDP ended {res.status}, not OPTIMAL")
    return res.value


def _pairwise_basis_update(vectors: np.ndarray, response: list[np.ndarray], sweeps: int = 3) -> np.ndarray:
    """Improve an orthonormal outcome basis against sum_a <m_a|G_a|m_a>.

    Each (a, a') pair is rotated to the eigenbasis of the restriction of
    G_a - G_a' onto their span: an exact two-dimensional ascent step.
    """
    m = vectors.copy()
    n_o = m.shape[1]
    for _ in range(sweeps):
        for a in range(n_o):
            for ap in range(a + 1, n_o):
                span = np.column_stack([m[:, a], m[:, ap]])
                diff = dagger(span) @ (response[a] - response[ap]) @ span
                w, q = np.linalg.eigh((diff + dagger(diff)) / 2)
                # top eigenvector carries outcome a
                new = span @ q[:, ::-1]
                m[:, a], m[:, ap] = new[:, 0], new[:, 1]
    return m


def _objective(meas: MeasurementSet, response) -> float:
    total = 0.0
    for x in range(meas.n_settings):
        for a in range(meas.n_outcomes):
            total += float(np.real(np.trace(meas.effects[x][a] @ response[x][a])))
    return total


def _update_measurements(meas: MeasurementSet, response) -> MeasurementSet:
    """Per-setting eigenvector updates, keeping a setting only when it improves."""
    new_settings = []
    for x in range(meas.n_settings):
        setting = meas.effects[x]
        old_val = sum(float(np.real(np.trace(setting[a] @ response[x][a]))) for a in range(len(setting)))
        # current effects are rank-1 projectors onto an orthonormal basis
        basis = np.column_stack(
            [np.linalg.eigh(setting[a])[1][:, -1] for a in range(len(setting))]
        )
        updated = _pairwise_basis_update(basis, list(response[x]))
        cand = tuple(np.outer(updated[:, a], updated[:, a].conj()) for a in range(len(setting)))
        new_val = sum(float(np.real(np.trace(cand[a] @ response[x][a]))) for a in range(len(setting)))
        new_settings.append(cand if new_val >= old_val - 1e-12 else setting)
    return MeasurementSet(tuple(new_settings))


@dataclass
class SRLowerBound:
    """``per_restart`` has one value per restart whose first SDP solve ended OPTIMAL."""

    best: float
    per_restart: list[float]
    best_measurements: MeasurementSet | None = None
    best_gap: float = 0.0


def sr_state_lower_bound(
    rho: DensityMatrix,
    n_settings: int,
    n_outcomes: int | None = None,
    restarts: int = 200,
    seed: int = 0,
    steering_side: str = "A",
    sdp_tol: float = 1e-7,
    max_rounds: int = 200,
) -> SRLowerBound:
    """Best steering-robustness lower bound over seeded see-saw restarts.

    Only SDP solves that ended OPTIMAL count: a restart whose later solve fails
    keeps its last converged value.
    """
    d = rho.dimA if steering_side == "A" else rho.dimB
    n_o = d if n_outcomes is None else n_outcomes
    if n_o != d:
        raise ValueError("projective see-saw uses n_outcomes = local dimension")
    unmeasured = "B" if steering_side == "A" else "A"
    per_restart = []
    best, best_meas, best_gap = 0.0, None, 0.0
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r if r else seed)
        meas = random_projective(d, n_settings, rng)
        res = sr_solve(assemblage_from(rho, meas, steering_side), tol=sdp_tol)
        if res.status != "OPTIMAL":
            continue
        value = res.value
        for _ in range(max_rounds):
            # G_{a|x} = tr_unmeasured[(F_{a|x} on it) rho]: the dual value is sum tr(M_{a|x} G_{a|x}) - 1
            response = [[contract(rho, f, unmeasured) for f in row] for row in res.duals]
            new_meas = _update_measurements(meas, response)
            new_res = sr_solve(assemblage_from(rho, new_meas, steering_side), tol=sdp_tol)
            if new_res.status != "OPTIMAL":
                break
            if new_res.value > value + 1e-7:
                meas, res, value = new_meas, new_res, new_res.value
            else:
                value = max(value, new_res.value)
                break
        per_restart.append(value)
        if value > best:
            best, best_meas, best_gap = value, meas, res.gap
    return SRLowerBound(best=best, per_restart=per_restart, best_measurements=best_meas, best_gap=best_gap)


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
        marg_a = arr.sum(axis=3)  # (x, y, a)
        if np.max(np.abs(marg_a - marg_a[:, :1, :])) > 1e-8:
            raise ValueError("signaling from B to A detected")
        marg_b = arr.sum(axis=2)
        if np.max(np.abs(marg_b - marg_b[:1, :, :])) > 1e-8:
            raise ValueError("signaling from A to B detected")
        object.__setattr__(self, "p", arr)

    @property
    def scenario(self) -> tuple[int, int, int, int]:
        return self.p.shape


def correlation_from(rho: DensityMatrix, meas_a: MeasurementSet, meas_b: MeasurementSet) -> Correlation:
    """P(a,b|x,y) = tr[rho M_{a|x} (x) M_{b|y}]."""
    if meas_a.dim != rho.dimA or meas_b.dim != rho.dimB:
        raise ValueError("measurement dimensions do not match the state")
    r = rho.mat.reshape(rho.dimA, rho.dimB, rho.dimA, rho.dimB)
    # tr[rho (M_a (x) M_b)] = sum rho[(i,j),(k,l)] M_a[k,i] M_b[l,j]
    p = np.einsum("ijkl,xaki,yblj->xyab", r, np.asarray(meas_a.effects), np.asarray(meas_b.effects))
    return Correlation(p.real)


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
    c = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            s = -1.0 if (x, y) == (1, 1) else 1.0
            for a in range(2):
                for bq in range(2):
                    c[x, y, a, bq] = s * (1.0 if a == bq else -1.0)
    return c


def bell_value(corr: Correlation, coefficients: np.ndarray) -> float:
    return float(np.sum(corr.p * coefficients))


def _bell_response(rho: DensityMatrix, coefficients: np.ndarray, other_meas: MeasurementSet, side: str):
    """G_{a|x} of ``side`` with sum_ax tr(M_{a|x} G_{a|x}) the Bell value against ``other_meas``."""
    table = coefficients if side == "A" else coefficients.transpose(1, 0, 3, 2)
    ops = np.einsum("xyab,ybij->xaij", table, np.asarray(other_meas.effects))  # on the other side
    r = rho.mat.reshape(rho.dimA, rho.dimB, rho.dimA, rho.dimB)
    # tr_other[(op on other) rho], for every (x, a) at once
    red = np.einsum("xajJ,iJkj->xaik", ops, r) if side == "A" else np.einsum("xaiI,Ijil->xajl", ops, r)
    return (red + red.conj().swapaxes(-1, -2)) / 2


def _exact_two_outcome_update(response) -> MeasurementSet:
    """Optimal POVM per setting for two outcomes: positive part of G_0 - G_1."""
    settings = []
    for g0, g1 in response:
        w, q = np.linalg.eigh(g0 - g1)
        pos = (q * (w > 0)) @ dagger(q)
        settings.append((pos, np.eye(g0.shape[0], dtype=complex) - pos))
    return MeasurementSet(tuple(settings))


def _best_povm_update(meas: MeasurementSet, response) -> MeasurementSet:
    if meas.n_outcomes == 2:
        return _exact_two_outcome_update(response)
    return _update_measurements(meas, response)


def assemblage_to_json(asm: Assemblage) -> str:
    from .serialize import matrix_to_obj

    return json.dumps(
        {
            "n_settings": asm.n_settings,
            "n_outcomes": asm.n_outcomes,
            "dim": asm.dim,
            "sigma": [[matrix_to_obj(s) for s in setting] for setting in asm.sigma],
        }
    )


def assemblage_from_json(text: str) -> Assemblage:
    from .serialize import matrix_from_obj

    obj = json.loads(text)
    d = obj["dim"]
    sigma = tuple(
        tuple(matrix_from_obj(entries, d, d) for entries in setting) for setting in obj["sigma"]
    )
    return Assemblage(sigma)


def correlation_to_json(corr: Correlation) -> str:
    n_sa, n_sb, n_oa, n_ob = corr.scenario
    return json.dumps(
        {
            "scenario": {"n_settings": [n_sa, n_sb], "n_outcomes": [n_oa, n_ob]},
            "p": corr.p.ravel().tolist(),
        }
    )


def correlation_from_json(text: str) -> Correlation:
    obj = json.loads(text)
    n_sa, n_sb = obj["scenario"]["n_settings"]
    n_oa, n_ob = obj["scenario"]["n_outcomes"]
    return Correlation(np.asarray(obj["p"]).reshape(n_sa, n_sb, n_oa, n_ob))


def seesaw_bell(
    rho: DensityMatrix,
    coefficients: np.ndarray,
    n_settings: int | None = None,
    n_outcomes: int | None = None,
    restarts: int = 20,
    seed: int = 0,
) -> float:
    """Lower bound on the maximal Bell value of rho for the given functional.

    Alternates exact (two-outcome) or pairwise-eigenvector measurement updates
    between the sides; each accepted half-step never decreases the value.
    """
    n_sa, n_sb, n_oa, n_ob = coefficients.shape
    if n_settings is not None and n_settings not in (n_sa, n_sb):
        raise ValueError("n_settings does not match the coefficient table")
    if n_outcomes is not None and n_outcomes not in (n_oa, n_ob):
        raise ValueError("n_outcomes does not match the coefficient table")
    if n_oa ** n_sa * n_ob ** n_sb > 10**6:
        raise ValueError("scenario too large")
    best = -np.inf
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r if r else seed)
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
        best = max(best, value)
    return best
