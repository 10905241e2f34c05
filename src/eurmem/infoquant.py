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
hemisphere grid, then a trust-region Newton ascent on the unit sphere from
each of the grid's local maxima (at most three).  Each ascent step takes
the gradient and Hessian from a 9-point finite-difference stencil in a
tangent chart, and the stencils of all ascents share one objective call.
For two qubits the objective is evaluated in the real Pauli-correlation
form of the state (a few 3-vector operations per direction); for dB >= 3
it diagonalizes the conditional states of B with LAPACK.  It reports a
projective optimum; it does not claim optimality over general POVMs,
although for the named state families the two coincide.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .matops import I2, PAULIS
from .measure import (
    ZERO_PROB,
    ProjectiveObservable,
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
    "OptimizerConfig",
    "CorrelationReport",
    "classical_correlation",
]

PROB_SUM_ATOL = 1e-9
# Grid values closer than this are tied, and a later ascent must beat the
# first by more than this to win.
IMPROVE_ATOL = 1e-13
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


# ---------------------------------------------------------------------------
# Classical correlation via Bloch-sphere optimization (qubit A only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid resolution of the J_A search."""

    grid_theta: int = 12
    grid_phi: int = 24

    def __post_init__(self):
        if self.grid_theta < 2 or self.grid_phi < 4:
            raise ValueError("optimizer grid must have grid_theta >= 2 and grid_phi >= 4")
        if self.grid_phi % 2:
            raise ValueError(
                f"optimizer grid_phi must be even, got {self.grid_phi}: the grid pairs "
                "each equator point with its antipode grid_phi / 2 columns away"
            )


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
    of shape (G,).
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

    return objective


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
    3-vector operations.
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

    return objective


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
    # The pole row, and an equator cell with its antipode, are one point
    # each, whatever their rounding.
    peak[0] = peak[0].any()
    peak[-1, :half] = peak[-1, half:] = peak[-1, :half] | peak[-1, half:]
    cells = np.flatnonzero(peak)
    if len(cells) in (1, values.size):
        # One maximum, or a plateau over the whole sphere: one peak.
        return cells[[np.argmax(values.flat[cells])]]
    # Label propagation among the maxima alone: each label is the position
    # in ``cells`` of a maximum connected to it, the lowest once it settles.
    # The copies of the pole and of each equator point start with one label;
    # neighbours that are no maxima point at a sentinel that never wins.
    count = len(cells)
    position = np.full(values.size, count)
    position[cells] = np.arange(count)
    neighbours = position[_sphere_neighbours(*values.shape)[:, cells]]
    index = np.arange(values.size).reshape(values.shape)
    index[0] = 0
    index[-1, half:] = index[-1, :half]
    labels = np.append(position[index.flat[cells]], count)
    while True:
        spread = labels.take(neighbours).min(axis=0)
        while not np.array_equal(jumped := spread[spread], spread):
            spread = jumped
        if np.array_equal(spread, labels[:count]):
            break
        labels[:count] = spread
    order = np.argsort(-values.flat[cells], kind="stable")
    _, first = np.unique(labels[order], return_index=True)
    return cells[order[np.sort(first)]]


def _tangent_frame(x: float, y: float, z: float):
    """Rows n = (x, y, z) and an orthonormal basis u, v of its tangent plane,
    branchless and regular at every unit n (Duff et al., JCGT 6(1), 2017)."""
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return (x, y, z), (1.0 + sign * x * x * a, sign * b, -sign * x), (b, sign + y * y * a, -y)


def _trust_step(g1: float, g2: float, a: float, b: float, c: float, radius: float):
    """The maximiser s of g.s + s.H.s / 2 over |s| <= radius, H = [[a, b], [b, c]].

    The Lagrange multiplier lam >= max(0, lambda_max(H)) gives
    s = (lam - H)^-1 g; it is 0 when the Newton step fits, and otherwise
    found by bisection on |s(lam)| = radius in the eigenbasis (q, p) of H.
    In the hard case (g without a component along the top eigenvector q)
    the rest of the radius goes along q.  Returns s, its predicted gain and
    whether it lies on the boundary.
    """
    half = 0.5 * (a - c)
    gap = math.hypot(half, b)
    top, low = 0.5 * (a + c) + gap, 0.5 * (a + c) - gap
    qx, qy = (half + gap, b) if half >= 0.0 else (b, gap - half)
    norm = math.hypot(qx, qy)
    qx, qy = (qx / norm, qy / norm) if norm > 0.0 else (1.0, 0.0)
    gq, gp = g1 * qx + g2 * qy, g2 * qx - g1 * qy

    def length(lam):
        return math.hypot(gq / (lam - top), gp / (lam - low))

    lam = 0.0
    if top >= 0.0 or length(0.0) > radius:
        lo = max(top, 0.0)
        hi = lo + math.hypot(g1, g2) / radius
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            lo, hi = (mid, hi) if length(mid) > radius else (lo, mid)
        lam = hi
    sq = gq / (lam - top) if lam > top else 0.0
    sp = gp / (lam - low) if lam > low else 0.0
    if top >= 0.0:
        sq = math.copysign(math.sqrt(max(radius * radius - sp * sp, 0.0)), sq)
    s1, s2 = sq * qx - sp * qy, sq * qy + sp * qx
    gain = g1 * s1 + g2 * s2 + 0.5 * (a * s1 * s1 + 2.0 * b * s1 * s2 + c * s2 * s2)
    return s1, s2, gain, lam > 0.0


# Stencil offsets in the tangent chart: the centre, +-u, +-v and the diagonals.
_H = 1e-4
_STENCIL = _H * np.array(
    [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float
)
# Rounding noise of the central differences, eps / h and eps / h^2: a point
# whose gradient and top curvature are below these is stationary.
_GRAD_NOISE, _CURV_NOISE = 1e-9, 1e-6
_MAX_ROUNDS = 60


def _ascent(value: float, direction: np.ndarray, radius: float):
    """Trust-region Newton ascent of the objective from one grid peak.

    A coroutine: it yields the tangent frame of each stencil centre and is
    sent back the stencil's points and values.  Each stencil gives the
    gradient and Hessian of the objective pulled back to the chart
    n + s1 u + s2 v (normalized) by central differences at step ``_H``, and
    its centre value decides on the step that led there: accepted if it
    gains at least a tenth of the predicted gain, with the radius doubled
    when it gains over three quarters on the boundary; rejected otherwise,
    with the radius cut to a quarter of the step.  It stops where the
    gradient and top curvature are within their rounding noise, when the
    predicted gain falls to 1e-15 or the radius below 1e-12, on a
    non-finite stencil, or after ``_MAX_ROUNDS``.  Returns the best value
    and point of all stencils, and the number of stencils.
    """
    best = (value, direction)
    frame = _tangent_frame(*direction)
    for rounds in range(1, _MAX_ROUNDS + 1):
        points, vals = yield frame
        highest = max(vals)
        if highest > best[0]:
            best = (highest, points[vals.index(highest)])
        if rounds == 1 or (ratio := (vals[0] - here_value) / gain) >= 0.1:
            if rounds > 1 and ratio > 0.75 and boundary:
                radius *= 2.0
            here, here_value = frame, vals[0]
            f0, pu, mu, pv, mv, pp, pm, mp, mm = vals
            g1, g2 = (pu - mu) / (2.0 * _H), (pv - mv) / (2.0 * _H)
            a, c = (pu - 2.0 * f0 + mu) / _H**2, (pv - 2.0 * f0 + mv) / _H**2
            b = (pp - pm - mp + mm) / (4.0 * _H**2)
            curvature = 0.5 * (a + c + math.hypot(a - c, 2.0 * b))
            if not math.isfinite(g1 + g2 + curvature) or (
                math.hypot(g1, g2) <= _GRAD_NOISE and curvature <= _CURV_NOISE
            ):
                break
        else:
            radius = 0.25 * math.hypot(s1, s2)
            if radius < 1e-12:
                break
        s1, s2, gain, boundary = _trust_step(g1, g2, a, b, c, radius)
        if gain <= 1e-15:
            break
        point = [n + s1 * u + s2 * v for n, u, v in zip(*here)]
        norm = math.hypot(*point)
        frame = _tangent_frame(*(x / norm for x in point))
    return best, rounds


def _search(rho: DensityMatrix, cfg: OptimizerConfig, objective):
    """Grid search, then trust-region Newton ascent from every grid peak, of ``objective``.

    The grid's local maxima (``_grid_peaks``, at most ``_MAX_STARTS``, best
    first) each start an ``_ascent`` with a radius of one grid row.  Every
    round evaluates the 9-point stencils of all active ascents in one
    objective call.  Each ascent's result is the best stencil value it saw,
    the Holevo quantity of a real measurement, so J_A never exceeds the
    truth.  The first ascent wins unless a later one ends more than
    ``IMPROVE_ATOL`` higher; ``iterations`` counts the stencil rounds of
    all of them.
    """
    _, dirs = _hemisphere_grid(cfg.grid_theta, cfg.grid_phi)
    values = objective(dirs)
    peaks = _grid_peaks(values.reshape(cfg.grid_theta, cfg.grid_phi))[:_MAX_STARTS]
    radius = (np.pi / 2.0) / (cfg.grid_theta - 1)
    ascents = [_ascent(float(values[k]), dirs[:, k], radius) for k in peaks]
    pending = {ascent: next(ascent) for ascent in ascents}
    results = {}
    while pending:
        frames = np.array(list(pending.values()))
        points = frames[:, :1] + _STENCIL @ frames[:, 1:]
        points /= np.sqrt((points * points).sum(axis=-1, keepdims=True))
        vals = objective(points.reshape(-1, 3).T).reshape(len(frames), 9).tolist()
        for ascent, pts, v in zip(list(pending), points, vals):
            try:
                pending[ascent] = ascent.send((pts, v))
            except StopIteration as stop:
                del pending[ascent]
                results[ascent] = stop.value

    (value, direction), _ = results[ascents[0]]
    for (v, d), _ in (results[a] for a in ascents[1:]):
        if v > value + IMPROVE_ATOL:
            value, direction = v, d
    j_a = max(value, 0.0)
    return CorrelationReport(
        classical_correlation=j_a,
        discord=mutual_information(rho) - j_a,
        optimal_direction=_canonical_direction(direction),
        grid_best=float(values.max()),
        refined_best=value,
        iterations=sum(rounds for _, rounds in results.values()),
    )


def classical_correlation(
    rho: DensityMatrix, config: OptimizerConfig | None = None
) -> CorrelationReport:
    """Maximize the Holevo quantity over projective qubit measurements on A.

    A coarse grid over the upper hemisphere (directions n and -n induce the
    same two-outcome measurement) seeds a trust-region Newton ascent on the
    sphere from each of its local maxima (see ``_search``).  Grid ties
    resolve to the lowest (theta, phi) index, so the result is
    deterministic.  Two-qubit states use the real Pauli-correlation
    objective, wider B the LAPACK one.  Returns J_A, the discord
    D_A = I(A;B) - J_A, and the optimizing direction.
    """
    if rho.dA != 2:
        raise ValueError(f"classical_correlation supports dA = 2 only, got dA = {rho.dA}")
    cfg = config or OptimizerConfig()
    objective = _two_qubit_objective(rho) if rho.dB == 2 else _general_objective(rho)
    return _search(rho, cfg, objective)
