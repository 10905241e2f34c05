"""Entropic and correlation quantities, all in bits (base-2 logarithms).

Core quantities on a bipartite state rho^AB:

    S(rho)            von Neumann entropy of the eigenvalue spectrum
    S(A|B)            S(rho^AB) - S(rho^B), may be negative
    I(A;B)            S(rho^A) + S(rho^B) - S(rho^AB)
    I(P;B)            Holevo quantity S(rho^B) - sum_i p_i S(rho^B_i) of the
                      ensemble a measurement P on A prepares for B
    delta             I(A;B) - I(X;B) - I(Z;B), the Holevo correction that
                      tightens the memory-assisted uncertainty bound
    J_A               classical correlation: max_P I(P;B) over measurements
                      on A
    D_A               quantum discord I(A;B) - J_A

``evaluate`` computes every spectrum a (state, X, Z) triple needs once: those
of rho^AB, rho^A and rho^B, and one batched stack of the conditional states
of both observables; the bounds and application numbers are arithmetic on it.

The classical-correlation optimizer searches rank-1 projective qubit
measurements parameterized by a Bloch direction: a coarse 12 x 24
hemisphere grid, then derivative-free pattern-search refinement from each
of the grid's local maxima (at most three, sharing every objective call),
accepting any gain above the 1e-13 noise floor.  For two qubits
the objective is evaluated in the real Pauli-correlation form of the
state (a few 3-vector operations per direction, with all refinement step
halvings batched into one call); for dB >= 3 it diagonalizes the
conditional states of B with LAPACK, one step halving per call.  It
reports a projective optimum; it does not claim optimality over general
POVMs, although for the named state families the two coincide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .matops import I2, PAULIS
from .measure import (
    ZERO_PROB,
    ProjectiveObservable,
    bloch_vector,
    conditional_stack,
    incompatibility,
    overlap_matrix,
    require_on_a,
)
from .states import DensityMatrix

__all__ = [
    "shannon_entropy",
    "binary_entropy",
    "von_neumann_entropy",
    "conditional_entropy",
    "mutual_information",
    "Evaluation",
    "evaluate",
    "holevo",
    "delta",
    "delta_floor",
    "OptimizerConfig",
    "CorrelationReport",
    "classical_correlation",
]

PROB_SUM_ATOL = 1e-9
# Objective gains below this are treated as noise by the pattern search, and
# grid values closer than this as tied.  A larger threshold stalls the search
# up to ~2e-9 below the optimum (1e-9 did), which a coarse grid cannot afford.
IMPROVE_ATOL = 1e-13
_MAX_REFINE_STEPS = 10_000
# Local maxima of the grid refined, best first.
_MAX_STARTS = 3


def _xlog2x(x):
    """x * log2(x) elementwise for x >= 0, with the 0 * log 0 = 0 convention."""
    x = np.asarray(x, dtype=float)
    return x * np.log2(np.where(x > 0.0, x, 1.0))


def shannon_entropy(probs) -> float:
    """H(p) = -sum_k p_k log2 p_k for a probability vector."""
    p = np.asarray(probs, dtype=float).reshape(-1)
    if np.any(p < -1e-12):
        raise ValueError(f"negative probability in {p!r}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_ATOL:.0e}, got {total!r}")
    return float(-np.sum(_xlog2x(np.clip(p, 0.0, 1.0))))


def binary_entropy(x) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with x clamped to [0, 1]."""
    x = float(x)
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return float(-(_xlog2x(x) + _xlog2x(1.0 - x)))


def _require_nonnegative(min_eig: float):
    if min_eig < -1e-8:
        raise ValueError(f"state has a significantly negative eigenvalue: {min_eig!r}")


def von_neumann_entropy(state) -> float:
    """S(rho) = -tr rho log2 rho of a density matrix (or PSD unit-trace array).

    Eigenvalues are clipped to [0, 1] before the entropy sum so that
    machine-precision negativity cannot poison the logarithms.
    """
    mat = state.mat if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    w = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    total = float(w.sum())
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"state trace must be 1 within {PROB_SUM_ATOL:.0e}, got {total!r}")
    _require_nonnegative(float(w.min()))
    return float(-np.sum(_xlog2x(np.clip(w, 0.0, 1.0))))


@dataclass(frozen=True)
class StateEntropies:
    """S(rho^AB), S(rho^A) and S(rho^B) of one bipartite state."""

    s_ab: float
    s_a: float
    s_b: float

    @property
    def s_cond(self) -> float:
        return self.s_ab - self.s_b

    @property
    def i_ab(self) -> float:
        return self.s_a + self.s_b - self.s_ab


def _state_entropies(rho: DensityMatrix) -> StateEntropies:
    reduced = (rho.mat, rho.reduced_a(), rho.reduced_b())
    return StateEntropies(*(von_neumann_entropy(m) for m in reduced))


def conditional_entropy(rho: DensityMatrix) -> float:
    """S(A|B) = S(rho^AB) - S(rho^B); negative values certify entanglement."""
    return _state_entropies(rho).s_cond


def mutual_information(rho: DensityMatrix) -> float:
    """I(A;B) = S(rho^A) + S(rho^B) - S(rho^AB)."""
    return _state_entropies(rho).i_ab


def _conditional_sum(eigs) -> np.ndarray:
    """sum_i p_i S(omega_i / p_i) over the outcomes of one or more measurements.

    ``eigs`` has shape (k, n, ...): the k eigenvalues mu_j of the unnormalized
    conditional state omega_i of each of n outcomes, for a trailing batch of
    measurements; the eigenvalue axis leads so that the sums run over contiguous
    rows.  Uses p_i S(omega_i / p_i) = p_i log2 p_i - sum_j mu_j log2 mu_j, and
    outcomes below the zero-probability cut add 0.
    """
    probs = eigs.sum(axis=0)
    cond = _xlog2x(probs) - _xlog2x(eigs).sum(axis=0)
    return np.where(probs < ZERO_PROB, 0.0, cond).sum(axis=0)


@dataclass(frozen=True)
class OutcomeTerms:
    """One observable: p_i, the stack omega_i = <x_i|rho|x_i>_A, H and I(.;B)."""

    probs: np.ndarray
    omegas: np.ndarray
    shannon: float
    holevo: float


def _outcome_terms(rho: DensityMatrix, observables, s_b: float) -> list[OutcomeTerms]:
    """The terms of each observable, from one batched eigenvalue call."""
    omegas = np.stack([conditional_stack(rho, obs) for obs in observables])
    probs = np.maximum(np.einsum("mijj->mi", omegas).real, 0.0)
    mu = np.linalg.eigvalsh(0.5 * (omegas + omegas.conj().swapaxes(-1, -2)))
    # Negativity is judged on the normalized conditional states omega_i / p_i.
    scale = np.where(probs >= ZERO_PROB, probs, np.inf)
    _require_nonnegative(float((mu.min(axis=-1) / scale).min()))
    holevos = s_b - _conditional_sum(np.maximum(mu, 0.0).T)
    return [
        OutcomeTerms(p, om, shannon_entropy(p), float(h))
        for p, om, h in zip(probs, omegas, holevos)
    ]


@dataclass(frozen=True)
class Evaluation(StateEntropies):
    """The marginal entropies, the outcome terms of X and Z, and q_mu and q'."""

    x: OutcomeTerms
    z: OutcomeTerms
    q_mu: float
    q_prime: float

    @property
    def delta(self) -> float:
        return self.i_ab - self.x.holevo - self.z.holevo

    @property
    def correction(self) -> float:
        """max{0, delta}, what the Holevo-corrected bound adds to Berta's."""
        return max(0.0, self.delta)

    @property
    def actual(self) -> float:
        """S(X|B) + S(Z|B), with S(X|B) = H(X) - I(X;B)."""
        return (self.x.shannon - self.x.holevo) + (self.z.shannon - self.z.holevo)


def evaluate(rho: DensityMatrix, x: ProjectiveObservable, z: ProjectiveObservable) -> Evaluation:
    """One pass over (rho, X, Z), after rejecting mismatched dimensions."""
    require_on_a(rho, x, z)
    e = _state_entropies(rho)
    terms = _outcome_terms(rho, (x, z), e.s_b)
    return Evaluation(e.s_ab, e.s_a, e.s_b, *terms, *incompatibility(overlap_matrix(x, z)))


def holevo(rho: DensityMatrix, obs: ProjectiveObservable) -> float:
    """Holevo quantity I(P;B) = S(rho^B) - sum_i p_i S(rho^B_i).

    Upper bound on the information about the measurement outcome that is
    accessible from system B; it satisfies
    0 <= I(P;B) <= min(H(outcomes), S(rho^B)).
    """
    require_on_a(rho, obs)
    return _outcome_terms(rho, (obs,), von_neumann_entropy(rho.reduced_b()))[0].holevo


def delta(rho: DensityMatrix, x: ProjectiveObservable, z: ProjectiveObservable) -> float:
    """Holevo correction delta = I(A;B) - [I(X;B) + I(Z;B)]; may be negative."""
    return evaluate(rho, x, z).delta


def delta_floor(rho: DensityMatrix, x: ProjectiveObservable, z: ProjectiveObservable) -> float:
    """log2(dA) + S(rho^A) - H(X) - H(Z), a lower bound on delta for
    complementary observables.

    It vanishes (guaranteeing delta >= 0) when subsystem A is maximally
    mixed, and when one observable leaves A undisturbed while the other is
    unbiased on it.
    """
    ev = evaluate(rho, x, z)
    return float(np.log2(rho.dA)) + ev.s_a - ev.x.shannon - ev.z.shannon


# ---------------------------------------------------------------------------
# Classical correlation via Bloch-sphere optimization (qubit A only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid resolution and refinement threshold for the J_A search."""

    grid_theta: int = 12
    grid_phi: int = 24
    refine_tol: float = 1e-6

    def __post_init__(self):
        if self.grid_theta < 2 or self.grid_phi < 4:
            raise ValueError("optimizer grid must have grid_theta >= 2 and grid_phi >= 4")
        if self.grid_phi % 2:
            raise ValueError(
                f"optimizer grid_phi must be even, got {self.grid_phi}: the grid pairs "
                "each equator point with its antipode grid_phi / 2 columns away"
            )
        if not self.refine_tol > 0.0:
            raise ValueError("refine_tol must be positive")


@dataclass(frozen=True)
class CorrelationReport:
    """Classical correlation J_A, discord D_A and the optimizer trace.

    The optimum is over rank-1 projective measurements only (Bloch
    directions); ``search_space`` records that caveat.
    """

    classical_correlation: float
    discord: float
    optimal_direction: np.ndarray
    grid_best: float
    refined_best: float
    iterations: int
    search_space: str = "rank-1 projective (Bloch sphere)"

    def to_dict(self) -> dict:
        return {**asdict(self), "optimal_direction": [float(v) for v in self.optimal_direction]}


def _general_objective(rho: DensityMatrix):
    """I(P_n;B) over Bloch directions for any dB, from LAPACK eigenvalues.

    For the projectors (I +- n.sigma)/2 the unnormalized conditional states
    are (rho^B +- sum_i n_i T_i)/2 with T_i = Tr_A[(sigma_i (x) I) rho], two
    dB x dB eigenvalue problems per direction.

    Returns the objective, which maps directions of shape (3, G) to values
    of shape (G,), and the number of refinement levels to batch into one
    call of it (one: a larger stack of LAPACK calls costs more than the
    calls it saves).
    """
    r4 = rho.mat.reshape(2, rho.dB, 2, rho.dB)
    rho_b = np.trace(r4, axis1=0, axis2=2)
    transfer = np.stack([np.einsum("pq,qjpk->jk", sigma, r4) for sigma in PAULIS])
    s_b = von_neumann_entropy(rho_b)

    def objective(dirs):
        w = np.einsum("ig,ijk->gjk", dirs, transfer)
        omegas = np.stack([(rho_b[None] + w) * 0.5, (rho_b[None] - w) * 0.5])
        eigs = np.maximum(np.linalg.eigvalsh(omegas), 0.0)
        return s_b - _conditional_sum(np.ascontiguousarray(np.moveaxis(eigs, -1, 0)))

    return objective, 1


# Row (mu, nu) of this matrix dotted with vec(rho) is T_{mu nu} = tr(rho sigma_mu (x) sigma_nu).
_PAULI_PAIRS = np.array(
    [np.kron(s, t).T.ravel() for s in (I2,) + PAULIS for t in (I2,) + PAULIS]
)
# The two outcomes n+- of a direction, along the leading axis.
_SIGNS = np.array([[1.0], [-1.0]])


def _two_qubit_objective(rho: DensityMatrix):
    """I(P_n;B) over Bloch directions for dA = dB = 2, in the real Pauli form.

    With T_{mu nu} = tr(rho sigma_mu (x) sigma_nu), a = T_{i0}, b = T_{0j}
    and C = T_{ij}, the outcome n+- has probability (1 +- a.n)/2 and its
    unnormalized conditional state on B the eigenvalues
    ((1 +- a.n) +- |b +- C^T n|)/4, so each direction costs a few real
    3-vector operations.  All remaining refinement levels go into one call.
    """
    q = 0.25 * (_PAULI_PAIRS @ rho.mat.reshape(-1)).real.reshape(4, 4)
    s_b = von_neumann_entropy(rho.mat.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2))

    def objective(dirs):
        # n.(a, C) as an elementwise sum rather than a matmul, so that a
        # direction's value does not depend on the batch it is in.
        lin = (q[1:, :, None] * dirs[:, None, :]).sum(axis=0)
        # [1 +- a.n, b +- C^T n] / 4 for both outcomes, shape (4, 2, G).
        signed = q[0, :, None, None] + _SIGNS * lin[:, None, :]
        weight, u = signed[0], signed[1:]
        radius = np.sqrt((u * u).sum(axis=0))
        eigs = np.maximum(np.stack([weight - radius, weight + radius]), 0.0)
        return s_b - _conditional_sum(eigs)

    return objective, _MAX_REFINE_STEPS


def _directions(angles: np.ndarray) -> np.ndarray:
    """Bloch directions of (theta, phi) rows, shape (G, 2) -> (3, G)."""
    st = np.sin(angles[:, 0])
    return np.stack([st * np.cos(angles[:, 1]), st * np.sin(angles[:, 1]), np.cos(angles[:, 0])])


@lru_cache(maxsize=8)
def _hemisphere_grid(grid_theta: int, grid_phi: int):
    thetas = np.linspace(0.0, np.pi / 2.0, grid_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, grid_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    angles = np.column_stack([tt.ravel(), pp.ravel()])
    return angles, _directions(angles)


_AXIS_EPS = 1e-12


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    """Pick the representative of {n, -n} in the upper closed hemisphere."""
    n = n / np.linalg.norm(n)
    if n[2] < -_AXIS_EPS:
        return -n
    if abs(n[2]) <= _AXIS_EPS:
        if n[0] < -_AXIS_EPS:
            return -n
        if abs(n[0]) <= _AXIS_EPS and n[1] < 0.0:
            return -n
    return n


@lru_cache(maxsize=8)
def _sphere_neighbours(rows: int, cols: int) -> np.ndarray:
    """Flat indices of the 3 x 3 neighbourhood of each cell of a hemisphere
    grid, shape (9, rows * cols); see ``_sphere_neighbourhood``."""
    index = np.arange(rows * cols).reshape(rows, cols)
    ext = np.vstack([index[:1], index, np.roll(index[-2], cols // 2)])
    ext = np.hstack([ext[:, -1:], ext, ext[:, :1]])
    return np.stack([ext[i : i + rows, j : j + cols].ravel() for i in range(3) for j in range(3)])


def _sphere_neighbourhood(grid: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` over the 3 x 3 neighbourhood of each cell of a hemisphere grid.

    The grid has rows theta = 0 ... pi/2 and columns phi = 0 ... 2 pi, with
    the sphere's topology: phi wraps around; the pole row is one cell, whose
    neighbourhood is all of row 1; the row beyond the equator is the row
    before it turned by pi (theta -> pi - theta with n -> -n, the same
    measurement).  Each equator cell is also the same point as its antipode
    grid_phi / 2 columns away, with the same neighbourhood.
    """
    rows, cols = grid.shape
    out = reduce.reduce(grid.ravel()[_sphere_neighbours(rows, cols)], axis=0).reshape(rows, cols)
    out[0] = reduce.reduce(out[0])
    return out


def _grid_peaks(values: np.ndarray) -> np.ndarray:
    """Flat indices of the local maxima of a hemisphere grid of values, best first.

    A cell is a maximum when no neighbour exceeds it by more than
    ``IMPROVE_ATOL``; a connected set of maxima (a plateau, the pole row or
    an antipodal equator pair) counts once, at its best cell.  Ties go to
    the lowest flat index.
    """
    half = values.shape[1] // 2
    peak = values >= _sphere_neighbourhood(values, np.maximum) - IMPROVE_ATOL
    # An equator cell and its antipode are one point, whatever their rounding.
    peak[-1, :half] = peak[-1, half:] = peak[-1, :half] | peak[-1, half:]
    cells = np.flatnonzero(peak)
    # Each maximum's label is the index of a maximum it is connected to, the
    # lowest one once the spreading below settles; the copies of the pole and
    # of each equator point start with one label.  Other cells hold a label
    # past the end, which the jump maps to itself.
    none = values.size
    index = np.arange(none).reshape(values.shape)
    index[0] = 0
    index[-1, half:] = index[-1, :half]
    labels = np.where(peak, index, none)
    while np.ptp(labels.flat[cells]) > 0:
        spread = np.where(peak, _sphere_neighbourhood(labels, np.minimum), none)
        spread = np.append(spread.ravel(), none)[spread]
        if np.array_equal(spread, labels):
            break
        labels = spread
    order = cells[np.argsort(-values.flat[cells], kind="stable")]
    _, first = np.unique(labels.flat[order], return_index=True)
    return order[np.sort(first)]


# The four compass moves, +-theta and +-phi, in units of the step.
_COMPASS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


@dataclass
class _Climb:
    """One compass search on (theta, phi): its point, value, step and halvings."""

    theta: float
    phi: float
    value: float
    step: tuple[float, float]
    iterations: int = 0

    def active(self, refine_tol: float) -> bool:
        return max(self.step) >= refine_tol and self.iterations < _MAX_REFINE_STEPS

    def plan(self, levels_per_call: int, refine_tol: float):
        """Up to ``levels_per_call`` successive halvings of the step, shape
        (levels, 2), and the four compass neighbours at each, shape (4 * levels, 2)."""
        levels, size = 1, max(self.step)
        cap = min(levels_per_call, _MAX_REFINE_STEPS - self.iterations)
        while levels < cap and 0.5 * size >= refine_tol:
            levels, size = levels + 1, 0.5 * size
        steps = np.array(self.step) * 0.5 ** np.arange(levels)[:, None]
        moves = np.array([self.theta, self.phi]) + steps[:, None, :] * _COMPASS
        return steps, moves.reshape(-1, 2)

    def advance(self, steps: np.ndarray, candidates: np.ndarray, values: np.ndarray):
        """Walk the planned levels in order: move to the best neighbour of the
        first level that gains more than ``IMPROVE_ATOL``, else halve past all."""
        values = values.reshape(len(steps), 4)
        gains = np.flatnonzero(values.max(axis=1) > self.value + IMPROVE_ATOL)
        if gains.size == 0:
            self.iterations += len(steps)
            self.step = tuple(0.5 * steps[-1])
            return
        level = int(gains[0])
        k = 4 * level + int(np.argmax(values[level]))
        self.iterations += level + 1
        self.theta, self.phi = (float(v) for v in candidates[k])
        self.value = float(values.flat[k])
        self.step = tuple(steps[level])


def _search(rho: DensityMatrix, cfg: OptimizerConfig, objective, levels_per_call: int):
    """Grid search, then compass refinement from every grid peak, of ``objective``.

    The grid's local maxima (``_grid_peaks``, at most ``_MAX_STARTS``, best
    first) each start a compass search: it tries the four neighbours at the
    current step, moves to the best if it gains more than ``IMPROVE_ATOL``
    and halves the step otherwise.  Without a move the next points are
    known in advance, so the neighbours of up to ``levels_per_call``
    successive halvings are evaluated at once, walked in order, and
    discarded after a move; the iterates do not depend on
    ``levels_per_call``.  Every round evaluates the points of all active
    searches in one objective call.  The first search wins unless a later
    one ends more than ``IMPROVE_ATOL`` higher; ``iterations`` counts the
    halvings tried by all of them.
    """
    angles, dirs = _hemisphere_grid(cfg.grid_theta, cfg.grid_phi)
    values = objective(dirs)
    peaks = _grid_peaks(values.reshape(cfg.grid_theta, cfg.grid_phi))[:_MAX_STARTS]
    step = ((np.pi / 2.0) / (cfg.grid_theta - 1), (2.0 * np.pi) / cfg.grid_phi)
    climbs = [_Climb(*(float(a) for a in angles[k]), float(values[k]), step) for k in peaks]

    while active := [c for c in climbs if c.active(cfg.refine_tol)]:
        plans = [c.plan(levels_per_call, cfg.refine_tol) for c in active]
        cand_vals = objective(_directions(np.concatenate([moves for _, moves in plans])))
        start = 0
        for climb, (steps, moves) in zip(active, plans):
            climb.advance(steps, moves, cand_vals[start : start + len(moves)])
            start += len(moves)

    best = climbs[0]
    for climb in climbs[1:]:
        if climb.value > best.value + IMPROVE_ATOL:
            best = climb
    j_a = max(best.value, 0.0)
    return CorrelationReport(
        classical_correlation=j_a,
        discord=mutual_information(rho) - j_a,
        optimal_direction=_canonical_direction(bloch_vector(best.theta, best.phi)),
        grid_best=float(values.max()),
        refined_best=best.value,
        iterations=sum(c.iterations for c in climbs),
    )


def classical_correlation(
    rho: DensityMatrix, config: OptimizerConfig | None = None
) -> CorrelationReport:
    """Maximize the Holevo quantity over projective qubit measurements on A.

    A coarse grid over the upper hemisphere (directions n and -n induce the
    same two-outcome measurement) seeds a compass pattern search on
    (theta, phi) from each of its local maxima, whose step halves until it
    drops below ``refine_tol``.  Grid ties resolve to the lowest
    (theta, phi) index, so the result is deterministic.  Two-qubit states
    use the real Pauli-correlation objective, wider B the LAPACK one.  Returns J_A, the discord
    D_A = I(A;B) - J_A, and the optimizing direction.
    """
    if rho.dA != 2:
        raise ValueError(f"classical_correlation supports dA = 2 only, got dA = {rho.dA}")
    cfg = config or OptimizerConfig()
    objective = _two_qubit_objective(rho) if rho.dB == 2 else _general_objective(rho)
    return _search(rho, cfg, *objective)
