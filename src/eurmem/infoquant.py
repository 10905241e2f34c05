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

The pieces:

    binary_entropy, von_neumann_entropy    h(x), and S(rho) of one state
    evaluate_stack, holevo                 the evaluation pass over a
                                           ``states.StateStack``, and I(P;B)
    classical_correlation_stack            J_A and D_A by the Bloch-direction search
    _default_grid, _search                 the search's grid, and the search
    _grid_peaks, _climb                    its starts (each grid's best maxima), its ascents
    _Objective                             I(P_n;B) over directions, with its model:
    _two_qubit_objective                   for dB = 2, in the real Pauli form
    _general_objective                     for any dB, from LAPACK eigenvalues
    _CALL_VALUES, _CLIMB_ROWS              the search's memory bounds
    evaluate, classical_correlation        one-row views of the stacked tables
                                           (dicts of per-row columns), by ``_one_row``
    _row_evaluation                        the evaluation the one-row views of one
                                           (state, X, Z) triple share
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .matops import I2, PAULIS, hermitian_eigvals
from .measure import (
    ZERO_PROB,
    ProjectiveObservable,
    conditional_stack,
    incompatibility,
    overlaps,
    require_on_a,
)
from .states import DensityMatrix, Row, StateStack

__all__ = [
    "binary_entropy",
    "von_neumann_entropy",
    "evaluate_stack",
    "evaluate",
    "holevo",
    "OptimizerConfig",
    "MAX_GRID_POINTS",
    "classical_correlation_stack",
    "classical_correlation",
]

# Grid values closer than this are tied, and a later ascent must beat the
# first by more than this to win.
IMPROVE_ATOL = 1e-13
# Grid maxima refined per row, at most, best first (see ``_search``).
_MAX_STARTS = 3


def _xlog2x(x):
    """x * log2(x) elementwise for x >= 0, with the 0 * log 0 = 0 convention."""
    x = np.asarray(x, dtype=float)
    return x * np.log2(np.where(x > 0.0, x, 1.0))


def _entropies(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis of ``w`` (a spectrum or a probability
    vector), with entries clipped to [0, 1] so that machine-precision
    negativity cannot poison the logarithms."""
    # 0.0 - sum, not -sum: a zero entropy is 0.0, never -0.0
    return 0.0 - _xlog2x(np.minimum(np.maximum(w, 0.0), 1.0)).sum(axis=-1)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with x clamped to [0, 1].

    Elementwise for an array; a float for a number.
    """
    x = np.asarray(x, dtype=float)
    # written so that NaN, which fails every comparison, is outside
    outside = ~((x >= -1e-12) & (x <= 1.0 + 1e-12))
    if outside.any():
        raise ValueError(f"binary entropy argument {float(x[outside][0])!r} outside [0, 1]")
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    h = 0.0 - (_xlog2x(x) + _xlog2x(1.0 - x))
    return float(h) if h.ndim == 0 else h


def von_neumann_entropy(state) -> float:
    """S(rho) = -tr rho log2 rho of a ``DensityMatrix``, from the spectrum its
    validation computed, or of a raw d x d matrix, validated first as
    ``DensityMatrix(m, d, 1)`` (which raises ``StateValidationError``)."""
    if not isinstance(state, DensityMatrix):
        mat = np.asarray(state, dtype=complex)
        state = DensityMatrix(mat, len(mat) if mat.ndim else 1, 1)
    return float(_entropies(state.stack._spectrum[0]))


def _state_entropies(states: StateStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S(rho^AB), S(rho^A) and S(rho^B) of each row, by ``_entropies``' rule in one
    pass over the stack's spectra."""
    w = np.minimum(np.maximum(np.concatenate(states.spectra, axis=-1), 0.0), 1.0)
    n = states.dA * states.dB
    return tuple(0.0 - np.add.reduceat(_xlog2x(w), (0, n, n + states.dA), axis=-1).T)


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


def _outcome_terms(states: StateStack, bases, s_b: np.ndarray):
    """p_i, omega_i = <x_i|rho|x_i>_A, H and I(.;B) of k observables, each a
    (P or 1, d, d) stack of bases, for all rows at once: shapes (P, k, d),
    (P, k, d, dB, dB), (P, k) and (P, k)."""
    omegas = conditional_stack(states, bases)
    probs = np.maximum(np.einsum("...ijj->...i", omegas).real, 0.0)
    mu = hermitian_eigvals(omegas)
    # No re-check here: state validation is the one check, and the entropies
    # clip at 0, so a negativity inside its tolerance moves them by rounding.
    holevos = s_b[:, None] - _conditional_sum(np.maximum(mu, 0.0).T).T
    return probs, omegas, _entropies(probs), holevos


def _observables(obs) -> list[ProjectiveObservable]:
    return [obs] if isinstance(obs, ProjectiveObservable) else list(obs)


def _bases(observables: list[ProjectiveObservable], distinct, states: StateStack) -> np.ndarray:
    """The (1, d, d) basis of one observable for all rows, or the (P, d, d)
    bases of one observable per row, gathered by one index from those of the
    ``distinct`` observables, which include them all; (0, dA, dA) for no
    observables on no rows."""
    if len(observables) == 1:
        return observables[0].basis[None]
    if len(observables) != len(states):
        raise ValueError(f"got {len(observables)} observables for a stack of {len(states)} states")
    if not observables:
        return np.empty((0, states.dA, states.dA), dtype=complex)
    position = {obs: k for k, obs in enumerate(distinct)}
    return np.stack([obs.basis for obs in distinct])[[position[obs] for obs in observables]]


def evaluate_stack(states: StateStack, x, z) -> dict[str, np.ndarray]:
    """One pass over the rows of a state stack, after rejecting mismatched
    dimensions: the state entropies in one x log2 x pass over the stack's
    spectra, and the conditional states of X and Z from one batched product
    and one eigenvalue call.

    ``x`` and ``z`` are each one observable for every row, or a sequence of
    one observable per row.  Returns a column over the rows of each
    ingredient: the entropies; p_i, omega_i, H and I(.;B) of X and of Z;
    q_mu, q', delta, ``correction`` = max{0, delta} (what the
    Holevo-corrected bound adds to Berta's) and ``actual`` = S(X|B) + S(Z|B),
    with S(X|B) = H(X) - I(X;B).
    """
    xs, zs = _observables(x), _observables(z)
    # Each distinct observable once, X first, so that a mismatch names X's dimension.
    distinct = dict.fromkeys(xs + zs)
    require_on_a(states, *distinct)
    bases = [_bases(xs, distinct, states), _bases(zs, distinct, states)]
    s_ab, s_a, s_b = _state_entropies(states)
    probs, omegas, shannons, holevos = _outcome_terms(states, bases, s_b)
    q_mu, q_prime = np.broadcast_to(incompatibility(overlaps(*bases)), (2, len(states)))
    i_ab = s_a + s_b - s_ab
    delta = i_ab - holevos[:, 0] - holevos[:, 1]
    return {
        "s_ab": s_ab,
        "s_a": s_a,
        "s_b": s_b,
        "s_cond": s_ab - s_b,
        "i_ab": i_ab,
        "x_probs": probs[:, 0],
        "x_omegas": omegas[:, 0],
        "h_x": shannons[:, 0],
        "i_xb": holevos[:, 0],
        "z_probs": probs[:, 1],
        "z_omegas": omegas[:, 1],
        "h_z": shannons[:, 1],
        "i_zb": holevos[:, 1],
        "q_mu": q_mu,
        "q_prime": q_prime,
        "delta": delta,
        # 0.0 unless delta > 0, never -0.0 (np.maximum can return -0.0)
        "correction": np.where(delta > 0.0, delta, 0.0),
        "actual": (shannons[:, 0] - holevos[:, 0]) + (shannons[:, 1] - holevos[:, 1]),
    }


def _one_row(table: dict) -> Row:
    """Row 0 of a table of per-row columns, with the table's keys in order: a
    number for a column of numbers, an array for a column of arrays, and None
    for a None column."""
    return Row(
        (key, col if col is None else col[0].item() if col.ndim == 1 else col[0])
        for key, col in table.items()
    )


@lru_cache(maxsize=1)
def _shared_evaluation(states: StateStack, x: ProjectiveObservable, z: ProjectiveObservable) -> dict:
    table = evaluate_stack(states, x, z)
    # The arrays an ``evaluate`` row hands out; every other column leaves a
    # one-row view as a number.
    for key in ("x_probs", "x_omegas", "z_probs", "z_omegas"):
        table[key].setflags(write=False)
    return table


def _row_evaluation(rho: DensityMatrix, x, z) -> dict[str, np.ndarray]:
    """The ``evaluate_stack`` table of ``rho``'s one-row stack, which the
    one-row views read.  Back-to-back views of the same (state, X, Z) objects
    share one evaluation: a memo of one row, keyed by identity (states and
    observables are frozen and compare by identity, and the memo's strong
    references keep an id from being reused), whose outcome arrays are
    read-only.  A sequence of one observable counts as that observable; any
    other argument is evaluated unmemoized, and fails there as it would in
    ``evaluate_stack``.
    """
    xs, zs = _observables(x), _observables(z)
    if len(xs) == len(zs) == 1 and all(isinstance(obs, ProjectiveObservable) for obs in xs + zs):
        return _shared_evaluation(rho.stack, xs[0], zs[0])
    return evaluate_stack(rho.stack, x, z)


def evaluate(rho: DensityMatrix, x: ProjectiveObservable, z: ProjectiveObservable) -> Row:
    """``evaluate_stack`` on the one-row stack of ``rho``, at that row: the
    entropies and terms are numbers, and the outcome arrays lose the row axis
    (read-only: they are shared with the other one-row views of the triple)."""
    return _one_row(_row_evaluation(rho, x, z))


def holevo(rho: DensityMatrix, obs: ProjectiveObservable) -> float:
    """Holevo quantity I(P;B) = S(rho^B) - sum_i p_i S(rho^B_i).

    Upper bound on the information about the measurement outcome that is
    accessible from system B; it satisfies
    0 <= I(P;B) <= min(H(outcomes), S(rho^B)).
    """
    require_on_a(rho, obs)
    _, _, s_b = _state_entropies(rho.stack)
    _, _, _, holevos = _outcome_terms(rho.stack, [obs.basis[None]], s_b)
    return float(holevos[0, 0])


# Largest J_A grid accepted, in points; it admits a 256 x 256 grid.
MAX_GRID_POINTS = 65_536


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid resolution of the J_A search, whose fields default to the
    two-qubit grid of ``_default_grid``."""

    grid_theta: int = 12
    grid_phi: int = 24

    def __post_init__(self):
        for name in ("grid_theta", "grid_phi"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"optimizer {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.grid_theta < 2 or self.grid_phi < 4:
            raise ValueError("optimizer grid must have grid_theta >= 2 and grid_phi >= 4")
        if self.grid_theta * self.grid_phi > MAX_GRID_POINTS:
            raise ValueError(
                f"optimizer grid of {self.grid_theta} x {self.grid_phi} = "
                f"{self.grid_theta * self.grid_phi} points is above the limit of {MAX_GRID_POINTS}"
            )
        if self.grid_phi % 2:
            raise ValueError(
                f"optimizer grid_phi must be even, got {self.grid_phi}: the grid pairs "
                "each equator point with its antipode grid_phi / 2 columns away"
            )


def _default_grid(dB: int) -> OptimizerConfig:
    """The J_A grid when none is given: 12 x 24 for dB = 2, and 6 x 12 for
    dB >= 3, where the objective's seeds (see ``_search``) make the coarser
    grid safe."""
    return OptimizerConfig() if dB == 2 else OptimizerConfig(6, 12)


class _Objective(NamedTuple):
    """I(P_n;B) of the rows of a state stack over Bloch directions n, with its
    exact model in a tangent chart.

    ``values(rows, dirs)`` maps state rows (a slice or an index array of B
    rows, repeats allowed) and directions of shape (3, B or 1, K) to values
    of shape (B, K): the K directions of each row, or the same K for all.
    The per-state tables are indexed by row, never copied per direction.

    The model of a centre n with tangent frame (u, v) is the value at n and
    the gradient (g1, g2) and Hessian (a, b, c) at s = 0 of s ->
    I(P_m;B), m = (n + s1 u + s2 v) / |n + s1 u + s2 v|, so that m'' = -n.
    ``model(rows, frames)`` takes the rows of A centres and their frames
    (A, 3, 3), rows n, u and v, as arrays or lists, and returns a list of
    the six numbers of each centre, whatever the call.  The derivatives are
    not finite where an outcome falls below the zero-probability cut, whose
    edge is a cusp of the objective (the probability reaches 0 only on a
    product state with a pure rho^A, where the objective is 0 everywhere),
    and, for two qubits, where an outcome's smaller eigenvalue is 0 or its
    Bloch vector x is 0.

    ``seeds(rows)``, where given, maps state rows as ``values`` takes them
    to S unit directions of each, (3, B, S): starts for ``_search``.
    """

    values: Callable
    model: Callable
    seeds: Callable | None = None


_SIGNS = np.array([1.0, -1.0])
_INV_LN2 = 1.0 / math.log(2.0)
# [w, e-, e+] is w + r _SPREAD; the Hessian terms weigh _CURVE / [p, e-, e+].
_SPREAD = np.array([0.0, -1.0, 1.0])
_CURVE = np.array([_INV_LN2, -_INV_LN2, -_INV_LN2])
# The model terms of an outcome below the zero-probability cut: its value
# is dropped, as the objective drops it, and its derivatives are not finite.
_CUT = np.array([0.0] + [math.nan] * 5)
# Two-qubit model calls of at most this many centres run in plain floats
# (``_two_qubit_scalar_model``), larger ones as arrays (``_two_qubit_model``),
# whose fixed cost is that of ~13-16 such centres.  The two forms agree bit
# for bit, so a row's result does not depend on the size of its call.
_FLOAT_CENTRES = 12


def _general_objective(states: StateStack, s_b: np.ndarray) -> _Objective:
    """I(P_n;B) over Bloch directions for any dB, from LAPACK eigenvalues.

    For the projectors (I +- n.sigma)/2 the unnormalized conditional states
    are (rho^B +- sum_i n_i T_i)/2 with T_i = Tr_A[(sigma_i (x) I) rho], two
    dB x dB eigenvalue problems per direction.  One matrix product per row,
    the columns (1, n) and (1, -n) of ``_direction_table`` times the row's
    (4, dB^2) matrix (rho^B, T_x, T_y, T_z) / 2 read as reals, builds both
    (the matrices of all rows come from one ``einsum`` against the stack
    ``_PAULI_STACK`` of (I, sigma_x, sigma_y, sigma_z));
    as in ``_two_qubit_objective`` no value depends on the rows or
    directions around it, and n and -n give one value.  ``s_b`` holds
    S(rho^B) of each row.

    The model takes one ``eigh`` of both outcomes' states omega per centre.
    With p = tr omega, an outcome adds g = p log p - tr omega log omega to
    the conditional sum; with A_k = +-t_k.T / 2 its derivative along the
    tangent t_k and B = +-n.T / 2, the chart gives omega'' = -B, so that
    g_k = log p tr A_k - tr(log omega A_k) and g_kl = tr A_k tr A_l / p -
    sum_ab L_ab Re(A_k,ab conj A_l,ab) - delta_kl (log p tr B -
    tr(log omega B)) in the eigenbasis, L_ab the divided difference of log
    at the eigenvalues mu_a, mu_b (Daleckii and Krein; Bhatia, Matrix
    Analysis, ch. V).  Eigenvalues at most ``ZERO_PROB`` are the kernel of
    omega: in the derivatives their log is taken as 0 and the divided
    differences between two of them as 0.  The terms that this drops
    cancel exactly where the kernel keeps its dimension along the sphere,
    as it does for a state of rank k < dB, whose conditional states have
    rank k; where it does not, the objective is not smooth.

    For dB >= 3 the seeds of a row are the eigenvectors of K_ij =
    Re tr(T_i' T_j'), T_i' the traceless part of T_i, from one batched 3 x 3
    ``eigh`` (on Bell-diagonal states the optimum lies on such an axis; Luo,
    PRA 77, 042303, 2008), and A's Bloch vector a = (tr T_i), or K's first
    eigenvector again where a = 0.  For dB = 2 there are none, as for
    ``_two_qubit_objective``, whose search this objective then reproduces.
    """
    dB = states.dB
    r5 = states.mats.reshape(-1, 2, dB, 2, dB)
    blocks = np.einsum("mpq,rqjpk->rmjk", _PAULI_STACK, r5)
    halves = (0.5 * blocks).reshape(-1, 4, dB * dB).view(float)

    def seeds(rows):
        # T_i / 2 as reals, whose dot products are Re tr(T_i T_j) / 4, and tr T_i / 2
        t = halves[rows, 1:]
        traces = t[..., :: 2 * (dB + 1)].sum(axis=-1)
        k = t @ t.swapaxes(-1, -2) - traces[:, :, None] * (traces[:, None, :] / dB)
        vecs = np.linalg.eigh(k)[1]
        norm = np.sqrt((traces * traces).sum(axis=-1, keepdims=True))
        bloch = np.divide(traces, norm, out=vecs[..., 0].copy(), where=norm > 0.0)
        return np.concatenate([vecs, bloch[..., None]], axis=-1).transpose(1, 0, 2)

    def values(rows, dirs):
        omegas = (_direction_table(dirs).transpose(0, 2, 1) @ halves[rows]).view(complex)
        eigs = np.maximum(np.linalg.eigvalsh(omegas.reshape(omegas.shape[:2] + (dB, dB))), 0.0)
        # (dB, outcome, B, K): the eigenvalue axis leads, as _conditional_sum takes it
        eigs = eigs.reshape(len(eigs), -1, 2, dB).transpose(3, 2, 0, 1)
        return s_b[rows, None] - _conditional_sum(np.ascontiguousarray(eigs))

    def model(rows, frames):
        table, frames = halves[rows], np.asarray(frames)
        count = len(table)
        # n.T / 2, u.T / 2 and v.T / 2 of each centre, stacked, and both outcomes' omega
        parts = (frames @ table[:, 1:]).view(complex).reshape(count, 1, 3 * dB, dB)
        base = table[:, None, 0].view(complex).reshape(count, 1, dB, dB)
        mu, vecs = np.linalg.eigh(base + _SIGNS[:, None, None] * parts[..., :dB, :])
        # the parts in each outcome's eigenbasis, (A, 2, 3, dB, dB)
        right = (parts @ vecs).reshape(count, 2, 3, dB, dB).transpose(0, 1, 3, 2, 4)
        rot = vecs.conj().swapaxes(-1, -2) @ right.reshape(count, 2, dB, 3 * dB)
        rot = rot.reshape(count, 2, dB, 3, dB).transpose(0, 1, 3, 2, 4)
        np.maximum(mu, 0.0, out=mu)
        probs = mu.sum(axis=-1)
        log_p = np.log(np.maximum(probs, _TINY))[..., None]
        logs = np.log(np.maximum(mu, _TINY))
        spread = log_p - logs
        terms = np.empty(probs.shape + (6,))
        # p log p - tr(omega log omega), as sum mu (log p - log mu)
        terms[..., 0] = (mu[..., None, :] @ spread[..., None])[..., 0, 0]
        # The divided differences of log, log1p(y) / y / lo with y the gap
        # over the lower eigenvalue (plus the smallest subnormal, so that a
        # tie gives 1 / lo) ...
        lo = np.minimum(mu[..., :, None], mu[..., None, :])
        support = mu > ZERO_PROB
        if support.all():
            ratio = np.abs(mu[..., :, None] - mu[..., None, :]) / lo + _TINY
            divided = np.log1p(ratio) / ratio / lo
        else:
            # ... and with a kernel eigenvalue, its log taken as 0, the plain
            # quotient, or 0 between two of them.
            logs = np.where(support, logs, 0.0)
            spread = log_p - logs
            with np.errstate(divide="ignore", invalid="ignore"):
                gap = mu[..., :, None] - mu[..., None, :]
                ratio = np.abs(gap) / lo + _TINY
                divided = np.where(
                    support[..., :, None] & support[..., None, :],
                    np.log1p(ratio) / ratio / lo,
                    (logs[..., :, None] - logs[..., None, :]) / gap,
                )
            np.copyto(divided, 0.0, where=~(support[..., :, None] | support[..., None, :]))
        # +-(log p tr X - tr(log omega X)) for X = n.T / 2, u.T / 2 and v.T / 2
        diag = rot.diagonal(axis1=-2, axis2=-1).real
        first = (diag @ spread[..., None])[..., 0] * _SIGNS[:, None]
        # tr X tr Y / p - sum_ab L_ab Re(X_ab conj Y_ab) for X, Y = u.T / 2 and
        # v.T / 2 (p held at the zero-probability cut, below which the model
        # is not finite)
        traces = diag[..., 1:, :].sum(axis=-1)
        tangent = rot[:, :, 1:].reshape(count, 2, 2, -1)
        hess = (traces / np.maximum(probs, ZERO_PROB)[..., None])[..., :, None] * traces[..., None, :]
        weighed = (divided.reshape(count, 2, 1, -1) * tangent).view(float)
        hess -= weighed @ tangent.view(float).swapaxes(-1, -2)
        terms[..., 1:3] = first[..., 1:]
        terms[..., 3] = hess[..., 0, 0] - first[..., 0]
        terms[..., 4] = hess[..., 0, 1]
        terms[..., 5] = hess[..., 1, 1] - first[..., 0]
        np.copyto(terms, _CUT, where=probs[..., None] < ZERO_PROB)
        out = terms.sum(axis=1)
        out *= -_INV_LN2
        out[:, 0] += s_b[rows]
        return out.tolist()

    return _Objective(values, model, seeds if dB > 2 else None)


_PAULI_STACK = np.array((I2,) + PAULIS)
# Row (mu, nu) of this matrix dotted with vec(rho) is T_{mu nu} = tr(rho sigma_mu (x) sigma_nu).
_PAULI_PAIRS = np.array([np.kron(s, t).T.ravel() for s in _PAULI_STACK for t in _PAULI_STACK])
# x log2 x is x times log2 of max(x, this): x itself for x > 0, and
# 0 * -1074 = -0.0 for x = 0.  No -0.0 outlives an outcome's
# p log2 p - sum mu log2 mu: all its terms are zeros only when p = 0 or
# p = 1, and then it is +0.0.
_TINY = float(np.finfo(float).smallest_subnormal)


def _direction_table(dirs):
    """The table (B, 4, 2K) of directions (3, B, K): column 2k is (1, n) of
    direction k, and column 2k + 1 is (1, -n), its other outcome."""
    n = dirs.transpose(1, 0, 2)
    table = np.empty(n.shape[:1] + (4,) + n.shape[2:] + (2,))
    table[:, 0] = 1.0
    table[:, 1:, :, 0] = n
    np.negative(n, out=table[:, 1:, :, 1])
    return table.reshape(len(table), 4, -1)


def _two_qubit_model(q, rows, frames, s_b):
    """The two-qubit model (see ``_Objective``) at the centres of ``frames``
    (A, 3, 3) on state ``rows`` (A,), as arrays: (A, 6).

    An outcome's y = (w, x), its weight and vector, is linear in the
    direction m, so that along the chart y'' = -(y - y0), y0 its value at
    m = 0; with r = |x|, eigenvalues e-+ = w -+ r and p = e- + e+ it adds
    f = p log2 p - e- log2 e- - e+ log2 e+ to the conditional sum.  With
    alpha = 2 log2 p - log2 e- - log2 e+, beta = log2 e- - log2 e+,
    G = (alpha, beta x / r) and r_k = x.x_k / r,
        f_k  = G.y_k,
        f_kl = (p_k p_l / p - e-_k e-_l / e- - e+_k e+_l / e+) / ln 2
               + beta (x_k.x_l - r_k r_l) / r - delta_kl G.(y - y0).
    The derivatives of p, e-+ and r come from y_k, so that the large
    weight 1 / e- of a nearly pure outcome multiplies e-_k itself, never
    the terms whose difference it is.  Elementwise operations only, each
    sum left to right, in ``_two_qubit_scalar_model``'s order (see
    ``_FLOAT_CENTRES``).
    """
    qs = q[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        # q^T times (0, n), (0, u) and (0, v): (A, 3, 4)
        lin = qs[:, None, 1] * frames[..., :1] + qs[:, None, 2] * frames[..., 1:2]
        lin += qs[:, None, 3] * frames[..., 2:]
        # x_k.x_l of the tangents, (A, 2, 2)
        xx = lin[:, 1:, None, 1:] * lin[:, None, 1:, 1:]
        gram = (xx[..., 0] + xx[..., 1]) + xx[..., 2]
        # (2, A, 3, 4): each outcome's y - y0 and its derivatives y_u and y_v
        ys = _SIGNS[:, None, None, None] * lin
        y = qs[:, 0] + ys[:, :, 0]
        xx = y[..., 1:] * y[..., 1:]
        r = np.sqrt((xx[..., 0] + xx[..., 1]) + xx[..., 2])
        # [p, e-, e+] of each outcome
        e = np.maximum(y[..., :1] + _SPREAD * r[..., None], 0.0)
        np.add(e[..., 1], e[..., 2], out=e[..., 0])
        logs = np.log2(np.maximum(e, _TINY))
        lp, lm, lq = logs[..., 0], logs[..., 1], logs[..., 2]
        terms, xlog = np.empty(r.shape + (6,)), e * logs
        terms[..., 0] = (xlog[..., 0] - xlog[..., 1]) - xlog[..., 2]
        alpha, beta = ((lp + lp) - lm) - lq, lm - lq
        # x.(y - y0), x.y_u and x.y_v; r_u and r_v
        xx = y[..., None, 1:] * ys[..., 1:]
        dots = (xx[..., 0] + xx[..., 1]) + xx[..., 2]
        dr = dots[..., 1:] / r[..., None]
        dw = ys[:, :, 1:, 0]
        terms[..., 1:3] = alpha[..., None] * dw + beta[..., None] * dr
        # the derivatives of [p, e-, e+] along u and v, (2, A, 3, 2)
        de = np.stack([dw + dw, dw - dr, dw + dr], axis=-2)
        xx = (de[..., :, None] * (_CURVE / e)[..., None, None]) * de[..., None, :]
        bend = beta / r
        hess = ((xx[..., 0, :, :] + xx[..., 1, :, :]) + xx[..., 2, :, :]) + bend[..., None, None] * (
            gram - dr[..., :, None] * dr[..., None, :]
        )
        # a, b and c, a and c less the shift; the derivatives not finite
        # where e- = 0 or r = 0, and below the cut
        hess = hess.reshape(r.shape + (4,))
        hess[..., ::3] -= (alpha * ys[:, :, 0, 0] + bend * dots[..., 0])[..., None]
        terms[..., 3:5], terms[..., 5] = hess[..., :2], hess[..., 3]
    np.copyto(terms[..., 1:], math.nan, where=((e[..., 1] == 0.0) | (r == 0.0))[..., None])
    np.copyto(terms, _CUT, where=e[..., :1] < ZERO_PROB)
    out = (0.0 + terms[0]) + terms[1]
    np.negative(out, out=out)
    out[:, 0] += s_b[rows]
    return out


def _two_qubit_scalar_model(q, rows, frames, s_b) -> list:
    """``_two_qubit_model`` in plain floats, centre by centre, with one
    ``np.log2`` call over all centres' [p, e-, e+], and the same operations
    in the same order.  ``frames`` holds each centre's rows n, u and v as
    nested sequences."""
    centres, eigs = [], []
    for k, frame in zip(rows, frames):
        (w0, b1, b2, b3), (p0, p1, p2, p3), (r0, r1, r2, r3), (t0, t1, t2, t3) = q[k].tolist()
        (n0, n1, n2), (u0, u1, u2), (v0, v1, v2) = frame
        # q^T times (0, n), (0, u) and (0, v)
        nw, nx1, nx2, nx3 = (p0 * n0 + r0 * n1 + t0 * n2, p1 * n0 + r1 * n1 + t1 * n2,
                             p2 * n0 + r2 * n1 + t2 * n2, p3 * n0 + r3 * n1 + t3 * n2)
        uw, ux1, ux2, ux3 = (p0 * u0 + r0 * u1 + t0 * u2, p1 * u0 + r1 * u1 + t1 * u2,
                             p2 * u0 + r2 * u1 + t2 * u2, p3 * u0 + r3 * u1 + t3 * u2)
        vw, vx1, vx2, vx3 = (p0 * v0 + r0 * v1 + t0 * v2, p1 * v0 + r1 * v1 + t1 * v2,
                             p2 * v0 + r2 * v1 + t2 * v2, p3 * v0 + r3 * v1 + t3 * v2)
        outcomes = []
        for s in (1.0, -1.0):
            lw, lx1, lx2, lx3 = s * nw, s * nx1, s * nx2, s * nx3
            w, x1, x2, x3 = w0 + lw, b1 + lx1, b2 + lx2, b3 + lx3
            r = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
            em, ep = w - r, w + r
            em, ep = 0.0 if em < 0.0 else em, 0.0 if ep < 0.0 else ep
            p = em + ep
            # max(x, _TINY) of x >= 0: the logs of np.maximum(e, _TINY)
            eigs += (p or _TINY, em or _TINY, ep or _TINY)
            outcomes.append((s, lw, lx1, lx2, lx3, x1, x2, x3, r, em, ep, p))
        tangents = (uw, ux1, ux2, ux3, vw, vx1, vx2, vx3, ux1 * ux1 + ux2 * ux2 + ux3 * ux3,
                    ux1 * vx1 + ux2 * vx2 + ux3 * vx3, vx1 * vx1 + vx2 * vx2 + vx3 * vx3)
        centres.append((float(s_b[k]), tangents, outcomes))
    models = []
    for (sb, tangents, outcomes), logs in zip(centres, np.log2(eigs).reshape(-1, 2, 3).tolist()):
        uw, ux1, ux2, ux3, vw, vx1, vx2, vx3, uu, uv, vv = tangents
        f = g1 = g2 = a = b = c = 0.0
        for (s, lw, lx1, lx2, lx3, x1, x2, x3, r, em, ep, p), (lp, lm, lq) in zip(outcomes, logs):
            if p >= ZERO_PROB:
                f += p * lp - em * lm - ep * lq
            if p < ZERO_PROB or em == 0.0 or r == 0.0:
                g1 = g2 = a = b = c = math.nan
                continue
            alpha, beta = lp + lp - lm - lq, lm - lq
            dw1, dw2 = s * uw, s * vw
            dr1 = (x1 * (s * ux1) + x2 * (s * ux2) + x3 * (s * ux3)) / r
            dr2 = (x1 * (s * vx1) + x2 * (s * vx2) + x3 * (s * vx3)) / r
            bend = beta / r
            kp, km, kq = _INV_LN2 / p, -_INV_LN2 / em, -_INV_LN2 / ep
            dp1, dm1, dq1 = dw1 + dw1, dw1 - dr1, dw1 + dr1
            dp2, dm2, dq2 = dw2 + dw2, dw2 - dr2, dw2 + dr2
            shift = alpha * lw + bend * (x1 * lx1 + x2 * lx2 + x3 * lx3)
            g1 += alpha * dw1 + beta * dr1
            g2 += alpha * dw2 + beta * dr2
            a += dp1 * kp * dp1 + dm1 * km * dm1 + dq1 * kq * dq1 + bend * (uu - dr1 * dr1) - shift
            b += dp1 * kp * dp2 + dm1 * km * dm2 + dq1 * kq * dq2 + bend * (uv - dr1 * dr2)
            c += dp2 * kp * dp2 + dm2 * km * dm2 + dq2 * kq * dq2 + bend * (vv - dr2 * dr2) - shift
        models.append([sb - f, -g1, -g2, -a, -b, -c])
    return models


def _two_qubit_objective(states: StateStack, s_b: np.ndarray) -> _Objective:
    """I(P_n;B) over Bloch directions for dA = dB = 2, in the real Pauli form.

    With T_{mu nu} = tr(rho sigma_mu (x) sigma_nu), a = T_{i0}, b = T_{0j}
    and C = T_{ij}, the outcome n+- has probability (1 +- a.n)/2 and its
    unnormalized conditional state on B the eigenvalues
    ((1 +- a.n) +- |b +- C^T n|)/4: both outcomes of a direction come from
    q = T / 4 applied to (1, n) and (1, -n) (``_direction_table``), one
    small matrix product per row.  Each product has at least two rows and
    two columns, so BLAS takes it as a matrix product, whose entries each
    sum their four terms in one order whatever the product's size; the rows
    go one product each, so no entry depends on the rows around it.  A
    ``values`` call is one run of these operations (see ``_CALL_VALUES``),
    and ``model`` runs the form that ``_FLOAT_CENTRES`` picks.
    """
    # One matrix-vector product per row, the same arithmetic whatever the stack.
    products = (_PAULI_PAIRS @ states.mats.reshape(-1, 16, 1))[..., 0]
    q = (0.25 * products.real).reshape(-1, 4, 4)

    def values(rows, dirs):
        qs, table = q[rows], _direction_table(dirs)
        terms = np.empty((4, len(qs), table.shape[-1]))
        np.matmul(qs.transpose(0, 2, 1), table, out=terms.transpose(1, 0, 2))
        np.multiply(terms[1:], terms[1:], out=terms[1:])
        radius = terms[1]
        radius += terms[2]
        radius += terms[3]
        np.sqrt(radius, out=radius)
        # [p, e-, e+] of each outcome, in place of the terms
        eigs = terms[1:]
        np.subtract(terms[0], radius, out=eigs[1])
        np.add(terms[0], radius, out=eigs[2])
        np.maximum(eigs[1:], 0.0, out=eigs[1:])
        np.add(eigs[1], eigs[2], out=eigs[0])
        xlog = np.maximum(eigs, _TINY)
        np.log2(xlog, out=xlog)
        xlog *= eigs
        # p log2 p - sum mu log2 mu per outcome, 0 below the zero-probability cut
        xlog[1] += xlog[2]
        cond = np.subtract(xlog[0], xlog[1], out=xlog[0])
        np.copyto(cond, 0.0, where=eigs[0] < ZERO_PROB)
        outcomes = cond.reshape(len(cond), -1, 2)
        out = np.add(outcomes[..., 0], outcomes[..., 1])
        return np.subtract(s_b[rows, None], out, out=out)

    def model(rows, frames):
        if len(rows) > _FLOAT_CENTRES:
            return _two_qubit_model(q, rows, np.asarray(frames), s_b).tolist()
        frames = frames.tolist() if isinstance(frames, np.ndarray) else frames
        return _two_qubit_scalar_model(q, rows, frames, s_b)

    return _Objective(values, model)


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


def _canonical_directions(directions: np.ndarray) -> np.ndarray:
    """Normalize each row of (B, 3) directions and pick the representative
    of {n, -n} in the upper closed hemisphere.  Each row's squared norm is
    the dot product that ``np.linalg.norm`` of that row alone takes, bit for
    bit, not a sum of squares."""
    n = directions / np.sqrt(directions[:, None, :] @ directions[:, :, None])[:, 0]
    below, small = n < -_AXIS_EPS, abs(n) <= _AXIS_EPS
    flip = below[:, 2] | small[:, 2] & (below[:, 0] | small[:, 0] & (n[:, 1] < 0.0))
    np.negative(n, out=n, where=flip[:, None])
    return n


def _sphere_padded(grid: np.ndarray) -> np.ndarray:
    """A hemisphere grid, or each grid of a stack (..., rows, cols), padded by
    one cell on each side with the sphere's topology.

    The grid has rows theta = 0 ... pi/2 and columns phi = 0 ... 2 pi: phi
    wraps around; the row above the pole row is itself (the pole is one
    point); the row beyond the equator is the row before it turned by pi
    (theta -> pi - theta with n -> -n, the same measurement).
    """
    rows, cols = grid.shape[-2:]
    half = cols // 2
    ext = np.empty(grid.shape[:-2] + (rows + 2, cols + 2), grid.dtype)
    ext[..., 1:-1, 1:-1] = grid
    ext[..., 0, 1:-1] = grid[..., 0, :]
    ext[..., -1, 1 : half + 1] = grid[..., -2, half:]
    ext[..., -1, half + 1 : -1] = grid[..., -2, :half]
    ext[..., 0] = ext[..., -2]
    ext[..., -1] = ext[..., 1]
    return ext


def _sphere_neighbourhood(grid: np.ndarray) -> np.ndarray:
    """The maximum over the 3 x 3 neighbourhood of each cell of a hemisphere
    grid, or of each grid of a stack (..., rows, cols), on the sphere of
    ``_sphere_padded``, where the pole row's neighbourhood is all of row 1.

    The maximum is taken along phi and then along theta over shifted slices
    of the padded grid: the neighbourhoods are never gathered, so the
    working memory is three copies of the input.
    """
    ext = _sphere_padded(grid)
    across = np.maximum(ext[..., :-2], ext[..., 1:-1])
    np.maximum(across, ext[..., 2:], out=across)
    out = np.maximum(across[..., :-2, :], across[..., 1:-1, :])
    np.maximum(out, across[..., 2:, :], out=out)
    out[..., 0, :] = out[..., 0, :].max(axis=-1, keepdims=True)
    return out


def _grid_peaks(values: np.ndarray) -> list[np.ndarray]:
    """Flat indices of the best ``_MAX_STARTS`` local maxima of each
    hemisphere grid of a stack (B, rows, cols) of values, best first with
    ties to the lowest flat index, one small array per grid.

    A cell is a maximum when no neighbour (see ``_sphere_neighbourhood``)
    exceeds it by more than ``IMPROVE_ATOL``.  The pole row, and an equator
    cell with its antipode, are one point each, whatever their rounding, and
    count once, at their first cell; the cells of a plateau or a ridge each
    count.
    """
    count, rows, cols = values.shape
    size, half = rows * cols, cols // 2
    peak = np.empty(values.shape, dtype=bool)
    # The peak test takes a few grids at a time, so that their padded
    # copies stay in cache and on the heap (see ``_CALL_VALUES``).
    step = max(1, _PEAK_GRIDS * _DEFAULT_GRID // size)
    for first in range(0, count, step):
        grids = values[first : first + step]
        np.greater_equal(grids, _sphere_neighbourhood(grids) - IMPROVE_ATOL, out=peak[first : first + step])
    peak[:, 0, 0] = peak[:, 0].any(axis=1)
    peak[:, 0, 1:] = False
    peak[:, -1, :half] |= peak[:, -1, half:]
    peak[:, -1, half:] = False
    # grid first, then value from the highest; the sort is stable, so ties
    # go by index
    cells = np.flatnonzero(peak)
    cells = cells[np.lexsort((-values.ravel()[cells], cells // size))]
    grid, local = np.divmod(cells, size)
    bounds = np.searchsorted(grid, np.arange(count + 1)).tolist()
    # copies: views would keep the block's index array alive into the climb
    return [local[a : min(b, a + _MAX_STARTS)].copy() for a, b in zip(bounds[:-1], bounds[1:])]


def _tangent_frame(x: float, y: float, z: float):
    """Rows n = (x, y, z) and an orthonormal basis u, v of its tangent plane,
    branchless and regular at every unit n (Duff et al., JCGT 6(1), 2017)."""
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return (x, y, z), (1.0 + sign * x * x * a, sign * b, -sign * x), (b, sign + y * y * a, -y)


@lru_cache(maxsize=8)
def _grid_frames(grid_theta: int, grid_phi: int) -> np.ndarray:
    """The tangent frames (G, 3, 3) of the hemisphere grid's directions,
    read-only, as every search shares them."""
    _, dirs = _hemisphere_grid(grid_theta, grid_phi)
    frames = np.array([_tangent_frame(*n) for n in dirs.T.tolist()])
    frames.flags.writeable = False
    return frames


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


_MAX_ROUNDS = 60


# Values per objective call (rows times directions), at most.  A grid call
# holds the evaluated directions of as many rows as fit (7 rows of the
# two-qubit default grid, 32 of the dB >= 3 one with their four seeds), or a
# chunk of this many directions of one row (its seeds in the last); the
# closing call of ``_climb`` holds at most two directions per start of a
# climb block (its best and its unmodelled last centre): 1 020 values for
# two qubits (_MAX_STARTS a row), 1 360 for dB >= 3 (one seed start more).
# The two-qubit objective's buffers (8 matrix-product terms per value, 8
# table entries per direction) then stay at or under 120 KB, below glibc's
# default 128 KB mmap threshold: each comes from the heap and is reused by
# the next call, so a call takes no fresh pages.
_CALL_VALUES = 1920
_DEFAULT_GRID = OptimizerConfig.grid_theta * OptimizerConfig.grid_phi
# Grids of the default size per chunk of the peak test (a larger grid, fewer)
_PEAK_GRIDS = 16
# Rows per climb block: the rows whose grid peaks are found in one pass and
# whose ascents share each round's model call.  A block of a grid larger
# than the default holds fewer rows, in the default's 383 KB of values.
_CLIMB_ROWS = 170
_CLIMB_VALUES = _CLIMB_ROWS * _DEFAULT_GRID


def _search(objective: _Objective, count: int, cfg: OptimizerConfig) -> tuple[np.ndarray, ...]:
    """Grid search, then trust-region Newton ascents (``_climb``), of
    ``objective`` (see ``_Objective``) on each of ``count`` state rows.

    The rows go in climb blocks of up to ``_CLIMB_ROWS``.  A row evaluates
    one cell of the pole row (one point, one value for its signed zeros),
    every cell between and the first half of the equator row, whose other
    half holds the values of their antipodes (the same measurements); then,
    where the objective has seeds, its seeds.  A block's values come from
    calls of at most ``_CALL_VALUES`` values, so that a row's seeds are
    scored in the grid call of its last cells (one array of their
    directions and the seeds).  One ``_grid_peaks`` pass gives the starts of
    all its rows: a row's best ``_MAX_STARTS`` grid maxima, best first (so
    a plateau or a ridge gives several), then its best seed (ties to the
    first) where that seed's value exceeds the row's grid maximum, put
    there by one stable sort on the row ids (skipped where no seed does).
    Each start begins an ascent with a radius of one grid row, and one
    ``_climb`` runs the ascents of the block.  A row's first ascent wins
    unless a later one ends more than ``IMPROVE_ATOL`` higher.  Returns the
    columns value, direction (count, 3), grid maximum (over the grid only)
    and model rounds of all the row's ascents, the seed's included.
    """
    _, dirs = _hemisphere_grid(cfg.grid_theta, cfg.grid_phi)
    frames = _grid_frames(cfg.grid_theta, cfg.grid_phi)
    size = dirs.shape[1]
    radius = (np.pi / 2.0) / (cfg.grid_theta - 1)
    block = max(1, min(_CLIMB_ROWS, _CLIMB_VALUES // size))
    pole, half = cfg.grid_phi - 1, cfg.grid_phi // 2
    evaluated = dirs[:, None, pole : size - half]
    cells = evaluated.shape[-1]
    found, grid_best = np.empty(count), np.empty(count)
    direction, rounds = np.empty((count, 3)), np.empty(count, dtype=int)
    for start in range(0, count, block):
        stop = min(start + block, count)
        seeds = None if objective.seeds is None else objective.seeds(slice(start, stop))
        width = cells + (0 if seeds is None else seeds.shape[-1])
        grid_rows = max(1, _CALL_VALUES // width)
        chunk = min(width, _CALL_VALUES)
        # each row's values from the pole cell on, its seeds' where the
        # equator's second half goes (beyond it, for seeds that overrun it)
        values = np.empty((stop - start, max(size, pole + width)))
        for first in range(start, stop, grid_rows):
            last = min(first + grid_rows, stop)
            for k in range(0, width, chunk):
                end = min(k + chunk, width)
                call = evaluated[..., k:end]
                if end > cells:
                    grid, call = call.shape[-1], np.empty((3, last - first, end - k))
                    call[..., :grid] = evaluated[..., k:end]
                    call[..., grid:] = seeds[:, first - start : last - start, max(k - cells, 0) : end - cells]
                values[first - start : last - start, pole + k : pole + end] = objective.values(slice(first, last), call)
        scores = values[:, pole + cells : pole + width].copy()
        values = values[:, :size]
        values[:, :pole] = values[:, pole, None]
        values[:, size - half :] = values[:, size - 2 * half : size - half]
        peaks = _grid_peaks(values.reshape(-1, cfg.grid_theta, cfg.grid_phi))
        grid_best[start:stop] = values.max(axis=1)
        counts = list(map(len, peaks))
        row = np.repeat(np.arange(start, stop), counts)
        peak_cells = np.concatenate(peaks)
        peak_values, peak_frames = values[row - start, peak_cells], frames[peak_cells]
        beats = [] if seeds is None else np.flatnonzero(scores.max(axis=1) > grid_best[start:stop])
        if len(beats):
            pick = scores[beats].argmax(axis=1)
            seed_frames = [_tangent_frame(*n) for n in seeds[:, beats, pick].T.tolist()]
            row = np.concatenate([row, beats + start])
            # stable on the row ids, so each seed follows its row's grid peaks
            order = np.argsort(row, kind="stable")
            row = row[order]
            peak_values = np.concatenate([peak_values, scores[beats, pick]])[order]
            peak_frames = np.concatenate([peak_frames, seed_frames])[order]
            for i in beats.tolist():
                counts[i] += 1
        best, at, steps = _climb(objective, row, peak_values, peak_frames, radius)
        ends, steps = best.tolist(), steps.tolist()
        first = 0
        for i, n in enumerate(counts, start):
            pick = first
            for k in range(first + 1, first + n):
                if ends[k] > ends[pick] + IMPROVE_ATOL:
                    pick = k
            found[i], direction[i], rounds[i] = ends[pick], at[pick], sum(steps[first : first + n])
            first += n
    return found, direction, grid_best, rounds


def _climb(
    objective: _Objective, rows: np.ndarray, values: np.ndarray, frames: np.ndarray, radius: float
):
    """Trust-region Newton ascents of the objective from the starts with
    tangent ``frames`` (A, 3, 3) and objective ``values`` (A,), on state
    ``rows`` (A,); each round takes the exact model (see ``_Objective``) of
    the centres of all active ascents in one ``objective.model`` call.

    Round 1 models the starts.  No step within the radius r gains more than
    |g| r + max(top curvature, 0) r^2 / 2, and an ascent whose bound is at
    most 1e-15 stops there, as every ascent on the named families does.
    Each later round models the centre that each ascent's ``_trust_step``
    reaches.  The model value at a new centre decides on the step that led
    there: accepted if it gains at least a tenth of the predicted gain, with
    the radius doubled when it gains over three quarters on the boundary;
    rejected otherwise, with the radius cut to a quarter of the step.  An
    ascent stops when the model of its centre is not finite, when the
    predicted gain of its step falls to 1e-15 or the radius below 1e-12, or
    after ``_MAX_ROUNDS``, and drops out of the next call.  It also stops,
    without modelling the centre its step reaches, once the step has
    converged: its predicted gain is at most 1e-8 and at most ten times the
    square of the previous step's, which was inside the radius and gained
    within 1 % of its prediction.

    Then one ``objective.values`` call takes the objective at the centre of
    highest model value of every ascent that rose above its start, and at
    the unmodelled last centre of every ascent that has one.  An ascent's
    result is the highest of these values and its start's (ties to the
    start, then the best centre): an objective value at a direction the
    search visited, the Holevo quantity of a real measurement, so J_A never
    exceeds the truth.  Returns each ascent's result, its direction, and its
    model rounds.
    """
    order, highest = rows.tolist(), values.tolist()
    # The centre of each ascent with the highest model value, None while no
    # centre rose above the start, and the centre of its unmodelled last step
    best_at, last_at, rounds = [None] * len(highest), [None] * len(highest), [1] * len(highest)
    # Each ascent that goes on is [ascent, radius, accepted centre, its value,
    # its model, the predicted gain of the step that reached it if that step
    # was inside the radius and within 1 % of it, else 0]; each move is
    # (ascent, the centre its step reaches, and the predicted gain, length
    # and boundary flag of the step).
    centres, moves = (rows, frames), []
    for k in range(1, _MAX_ROUNDS + 1):
        models = objective.model(*centres)
        going = []
        for i, (_, g1, g2, a, b, c) in enumerate(models if k == 1 else ()):
            top = max(0.5 * (a + c) + math.hypot(0.5 * (a - c), b), 0.0)
            if math.hypot(g1, g2) * radius + 0.5 * top * radius * radius > 1e-15:
                if all(map(math.isfinite, model := [g1, g2, a, b, c])):
                    going.append([i, radius, frames[i].tolist(), highest[i], model, 0.0])
        for (ascent, frame, gain, length, boundary), (value, *model) in zip(moves, models):
            i = ascent[0]
            rounds[i] = k
            if value > highest[i]:
                highest[i], best_at[i] = value, frame[0]
            if (ratio := (value - ascent[3]) / gain) >= 0.1:
                if ratio > 0.75 and boundary:
                    ascent[1] *= 2.0
                met = not boundary and abs(ratio - 1.0) <= 0.01
                ascent[2:] = frame, value, model, gain if met else 0.0
                goes = all(map(math.isfinite, model))
            else:
                ascent[1], ascent[5] = 0.25 * length, 0.0
                goes = ascent[1] >= 1e-12
            if goes:
                going.append(ascent)
        moves = []
        for ascent in going:
            s1, s2, gain, boundary = _trust_step(*ascent[4], ascent[1])
            if gain > 1e-15:
                point = [n + s1 * u + s2 * v for n, u, v in zip(*ascent[2])]
                norm = math.hypot(*point)
                frame = _tangent_frame(*(x / norm for x in point))
                if gain <= 1e-8 and gain <= 10.0 * ascent[5] * ascent[5]:
                    last_at[ascent[0]] = frame[0]
                else:
                    moves.append((ascent, frame, gain, math.hypot(s1, s2), boundary))
        if not moves:
            break
        centres = [order[move[0][0]] for move in moves], [move[1] for move in moves]
    at, best = frames[:, 0].copy(), values.copy()
    visits = [(i, n) for i, pair in enumerate(zip(best_at, last_at)) for n in pair if n is not None]
    if visits:
        ascents, points = zip(*visits)
        later = objective.values(rows[list(ascents)], np.array(points).T[:, :, None])
        for i, n, value in zip(ascents, points, later[:, 0].tolist()):
            if value > best[i]:
                best[i], at[i] = value, n
    return best, at, np.array(rounds)


def classical_correlation_stack(
    states: StateStack, config: OptimizerConfig | None = None
) -> dict[str, np.ndarray]:
    """Maximize the Holevo quantity over projective qubit measurements on A,
    for every row of a state stack, by ``_search`` on the grid ``config``
    (an ``OptimizerConfig``), or else on ``_default_grid``'s.

    The grid covers the upper hemisphere, as directions n and -n induce the
    same two-outcome measurement.  Grid and seed ties resolve to the lowest
    index, so the result is deterministic, and a row's result does not
    depend on the other rows.  The optimum is projective, not one over
    general POVMs, although for the named state families the two coincide.
    Returns the columns J_A, the discord D_A = I(A;B) - J_A, the canonical
    optimal direction (shape (P, 3)) and the optimizer trace: the best grid
    value, the refined value and the model rounds of all starts
    (``iterations``).
    """
    if config is not None and not isinstance(config, OptimizerConfig):
        raise TypeError(f"classical_correlation config must be an OptimizerConfig or None, got {config!r}")
    if states.dA != 2:
        raise ValueError(f"classical_correlation supports dA = 2 only, got dA = {states.dA}")
    cfg = config or _default_grid(states.dB)
    s_ab, s_a, s_b = _state_entropies(states)
    build = _two_qubit_objective if states.dB == 2 else _general_objective
    value, at, grid_best, rounds = _search(build(states, s_b), len(states), cfg)
    j_a = np.where(value > 0.0, value, 0.0)
    return {
        "classical_correlation": j_a,
        "discord": (s_a + s_b - s_ab) - j_a,
        "optimal_direction": _canonical_directions(at),
        "grid_best": grid_best,
        "refined_best": value,
        "iterations": rounds,
    }


def classical_correlation(rho: DensityMatrix, config: OptimizerConfig | None = None) -> Row:
    """``classical_correlation_stack`` on the one-row stack of ``rho``, with the
    caveat ``search_space`` last: the optimum is over Bloch directions only."""
    row = _one_row(classical_correlation_stack(rho.stack, config))
    row["search_space"] = "rank-1 projective (Bloch sphere)"
    return row
