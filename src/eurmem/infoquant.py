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

``evaluate_stack`` evaluates P states of one shape (a ``states.StateStack``)
with X and Z in one pass: the entropies of rho^AB, rho^A and rho^B in one
x log2 x pass over the stack's spectra (computed once, shared with J_A),
and the conditional states of both observables from one batched product
and one eigenvalue call; the bounds and application numbers are arithmetic
on it.  A stacked call returns a table, a dict of per-row columns, and its
one-row view (``evaluate``, ``classical_correlation``) is a ``states.Row``
read through ``_one_row``; a row's numbers do not depend on the rows around
it.  Memory is bounded by the caller's stacks (the CLI sweeps 128-row
blocks) and, in the J_A search, by ``_CALL_DIRECTIONS`` and ``_CLIMB_ROWS``.

The classical-correlation optimizer searches rank-1 projective qubit
measurements by their Bloch direction: a coarse 12 x 24 hemisphere grid,
whose pole row is one point and evaluated once, then a trust-region
Newton ascent on the unit sphere from each of the grid's local maxima (at
most three), each step taking the value, gradient and Hessian in a
tangent chart from the objective's exact model (``_Objective``).  On a
stack, the grids of up to 16 rows share one objective call, and a climb
block of up to 170 rows has one peak pass and one ascent loop, one model
call a round: the first round models the grid peaks as arrays over the
block (every ascent on the named families stops after it), later ones
the centres the ascents reach, one at a time for two qubits.  For two
qubits the objective takes the real Pauli-correlation form: one small
matrix product per row gives the weights and Bloch vectors of both
outcomes of each direction, and the model's derivatives are closed forms
in them.  It runs per row and never with a single row or column, so that
BLAS sums each entry in one order whatever the call, in pieces whose
buffers stay under glibc's 128 KB mmap threshold (the peak pass takes
the grids 16 at a time for the same reason).  For dB >= 3 the same
product per row, by a (4, dB^2) matrix, gives both outcomes' conditional
states of B, which LAPACK diagonalizes; the model takes their
eigenvectors too, and the Hessian the divided differences of log at
their eigenvalues.  The optimum is projective, not one over general
POVMs, although for the named state families the two coincide.
"""

from __future__ import annotations

import math
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


def _entropies(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis of ``w`` (a spectrum or a probability
    vector), with entries clipped to [0, 1] so that machine-precision
    negativity cannot poison the logarithms."""
    return -_xlog2x(np.minimum(np.maximum(w, 0.0), 1.0)).sum(axis=-1)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with x clamped to [0, 1].

    Elementwise for an array; a float for a number.
    """
    x = np.asarray(x, dtype=float)
    outside = (x < -1e-12) | (x > 1.0 + 1e-12)
    if outside.any():
        raise ValueError(f"binary entropy argument {float(x[outside][0])!r} outside [0, 1]")
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    h = -(_xlog2x(x) + _xlog2x(1.0 - x))
    return float(h) if h.ndim == 0 else h


def von_neumann_entropy(state) -> float:
    """S(rho) = -tr rho log2 rho of a density matrix (or PSD unit-trace array).

    The spectrum must sum to 1 within ``PROB_SUM_ATOL`` and have no
    eigenvalue below -1e-8.
    """
    mat = state.mat if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    w = hermitian_eigvals(mat)
    total = float(w.sum())
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"state trace must be 1 within {PROB_SUM_ATOL:.0e}, got {total!r}")
    low = float(w.min())
    if low < -1e-8:
        raise ValueError(f"state has a significantly negative eigenvalue: {low!r}")
    return float(_entropies(w))


def _state_entropies(states: StateStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S(rho^AB), S(rho^A) and S(rho^B) of each row, by ``_entropies``' rule in one
    pass over the stack's spectra; its validation holds each state to unit trace
    within 1e-10 and eigenvalues above -1e-10, inside ``von_neumann_entropy``'s checks."""
    w = np.minimum(np.maximum(np.concatenate(states.spectra, axis=-1), 0.0), 1.0)
    n = states.dA * states.dB
    return tuple(-np.add.reduceat(_xlog2x(w), (0, n, n + states.dA), axis=-1).T)


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


def _bases(observables: list[ProjectiveObservable], distinct, rows: int) -> np.ndarray:
    """The (1, d, d) basis of one observable for all rows, or the (P, d, d)
    bases of one observable per row, gathered by one index from those of the
    ``distinct`` observables, which include them all."""
    if len(observables) == 1:
        return observables[0].basis[None]
    if len(observables) != rows:
        raise ValueError(f"got {len(observables)} observables for a stack of {rows} states")
    position = {obs: k for k, obs in enumerate(distinct)}
    return np.stack([obs.basis for obs in distinct])[[position[obs] for obs in observables]]


def evaluate_stack(states: StateStack, x, z) -> dict[str, np.ndarray]:
    """One pass over the rows of a state stack, after rejecting mismatched dimensions.

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
    bases = [_bases(xs, distinct, len(states)), _bases(zs, distinct, len(states))]
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


def evaluate(rho: DensityMatrix, x: ProjectiveObservable, z: ProjectiveObservable) -> Row:
    """``evaluate_stack`` on the one-row stack of ``rho``, at that row: the
    entropies and terms are numbers, and the outcome arrays lose the row axis."""
    return _one_row(evaluate_stack(rho.stack, x, z))


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


# ---------------------------------------------------------------------------
# Classical correlation via Bloch-sphere optimization (qubit A only)
# ---------------------------------------------------------------------------


# Largest J_A grid accepted, in points; it admits a 256 x 256 grid.
MAX_GRID_POINTS = 65_536


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid resolution of the J_A search."""

    grid_theta: int = 12
    grid_phi: int = 24

    def __post_init__(self):
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
    ``model(rows, frames)`` takes A rows (an index array) and the frames
    (A, 3, 3), rows n, u and v, and returns these six numbers as (A, 6), as
    arrays over the whole block; ``models(rows, frames)`` takes lists of
    rows and of frames (three tuples each) and returns a list of the six
    numbers of each centre.  The derivatives are not finite where an
    outcome falls below the zero-probability cut, whose edge is a cusp of
    the objective (the probability reaches 0 only on a product state with a
    pure rho^A, where the objective is 0 everywhere), and, for two qubits,
    where an outcome's smaller eigenvalue is 0 or its Bloch vector x is 0.
    """

    values: Callable
    model: Callable
    models: Callable


_SIGNS = np.array([1.0, -1.0])
_INV_LN2 = 1.0 / math.log(2.0)
# Constants of _two_qubit_model: w + r times _SPREAD is [w, e-, e+]; the
# x log2 x terms and the logs of [p, e-, e+] combine by _XLOG_SIGNS into f
# and by _ALPHA_BETA into alpha and beta; the rows G, p, e-, e+ and r of the
# derivatives take _RATE_W (alpha in place of G's 0) on w and _RATE_X
# (beta in place of G's 0) times x / r on x; the outer products of the
# derivatives of p, e-, e+, r and x weigh _CURVE over [p, e-, e+] and
# beta / r times _BEND.
_SPREAD = np.array([0.0, -1.0, 1.0])
_XLOG_SIGNS = np.array([1.0, -1.0, -1.0])
_ALPHA_BETA = np.array([[2.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
_RATE_W = np.array([0.0, 2.0, 1.0, 1.0, 0.0])
_RATE_X = np.array([0.0, 0.0, -1.0, 1.0, 1.0])
_CURVE = np.array([_INV_LN2, -_INV_LN2, -_INV_LN2])
_BEND = np.array([-1.0, 1.0, 1.0, 1.0])
_EYE2 = np.eye(2)
# The model terms of an outcome below the zero-probability cut: its value
# is dropped, as the objective drops it, and its derivatives are not finite.
_CUT = np.array([0.0] + [math.nan] * 5)


def _general_objective(states: StateStack, s_b: np.ndarray) -> _Objective:
    """I(P_n;B) over Bloch directions for any dB, from LAPACK eigenvalues.

    For the projectors (I +- n.sigma)/2 the unnormalized conditional states
    are (rho^B +- sum_i n_i T_i)/2 with T_i = Tr_A[(sigma_i (x) I) rho], two
    dB x dB eigenvalue problems per direction.  One matrix product per row,
    the columns (1, n) and (1, -n) of ``_direction_table`` times the row's
    (4, dB^2) matrix (rho^B, T_x, T_y, T_z) / 2 read as reals, builds both;
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
    """
    dB = states.dB
    r5 = states.mats.reshape(-1, 2, dB, 2, dB)
    blocks = [states.reduced_b()] + [np.einsum("pq,rqjpk->rjk", sigma, r5) for sigma in PAULIS]
    halves = (0.5 * np.stack(blocks, axis=1)).reshape(-1, 4, dB * dB).view(float)

    def values(rows, dirs):
        omegas = (_direction_table(dirs).transpose(0, 2, 1) @ halves[rows]).view(complex)
        eigs = np.maximum(np.linalg.eigvalsh(omegas.reshape(omegas.shape[:2] + (dB, dB))), 0.0)
        # (dB, outcome, B, K): the eigenvalue axis leads, as _conditional_sum takes it
        eigs = eigs.reshape(len(eigs), -1, 2, dB).transpose(3, 2, 0, 1)
        return s_b[rows, None] - _conditional_sum(np.ascontiguousarray(eigs))

    def model(rows, frames):
        table = halves[rows]
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
        return out

    def models(rows, frames):
        return model(np.array(rows), np.array(frames)).tolist()

    return _Objective(values, model, models)


# Row (mu, nu) of this matrix dotted with vec(rho) is T_{mu nu} = tr(rho sigma_mu (x) sigma_nu).
_PAULI_PAIRS = np.array(
    [np.kron(s, t).T.ravel() for s in (I2,) + PAULIS for t in (I2,) + PAULIS]
)
# Values per piece of a two-qubit objective call, at most: the piece's
# buffers, its 8 matrix-product terms and its 6 log terms per value, and the
# table of its directions, 8 entries per direction (each at most 120 KB),
# then stay under glibc's default 128 KB mmap threshold, so every buffer
# comes from the heap and is reused by the next piece.
_PIECE = 1920
# x log2 x is x times log2 of max(x, this): x itself for x > 0, and
# 0 * -1074 = -0.0 for x = 0.  No -0.0 outlives an outcome's
# p log2 p - sum mu log2 mu: all its terms are zeros only when p = 0 or
# p = 1, and then it is +0.0.
_TINY = np.finfo(float).smallest_subnormal


def _direction_table(dirs):
    """The table (B, 4, 2K) of directions (3, B, K): column 2k is (1, n) of
    direction k, and column 2k + 1 is (1, -n), its other outcome."""
    n = dirs.transpose(1, 0, 2)
    table = np.empty(n.shape[:1] + (4,) + n.shape[2:] + (2,))
    table[:, 0] = 1.0
    table[:, 1:, :, 0] = n
    np.negative(n, out=table[:, 1:, :, 1])
    return table.reshape(len(table), 4, -1)


def _two_qubit_piece(q, table, s_b, out):
    """The two-qubit objective at the directions of one piece, written to
    ``out`` (b, k): ``q`` (b, 4, 4) and ``s_b`` (b, 1) of its rows and
    ``table`` (b or 1, 4, 2k) of its directions (``_direction_table``).

    One matrix product per row, q^T times the table, gives each outcome's
    weight (1 + a.n) / 4 and vector (b + C^T n) / 4; the outcome's
    eigenvalues are max(weight -+ |vector|, 0) and its probability p their
    sum.  Every piece runs the same operations in the same order, so a
    value does not depend on the call or the piece it is in.
    """
    terms = np.empty((4,) + s_b.shape[:1] + table.shape[-1:])
    np.matmul(q.transpose(0, 2, 1), table, out=terms.transpose(1, 0, 2))
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
    np.add(outcomes[..., 0], outcomes[..., 1], out=out)
    np.subtract(s_b, out, out=out)


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
    The derivatives of p, e-+ and r come from y_k one product each, so that
    the large weight 1 / e- of a nearly pure outcome multiplies e-_k
    itself, never the terms whose difference it is.
    ``_two_qubit_scalar_model`` runs the same arithmetic on one centre.
    """
    qs = q[rows]
    # (2, A, 4, 3): each outcome's y - y0 and its derivatives y_u and y_v
    ys = _SIGNS[:, None, None, None] * (qs[:, 1:].transpose(0, 2, 1) @ frames.transpose(0, 2, 1))
    y = qs[:, 0] + ys[..., 0]
    r = np.sqrt(np.square(y[..., 1:]).sum(axis=-1))
    # [p, e-, e+] of each outcome
    e = np.maximum(y[..., :1] + _SPREAD * r[..., None], 0.0)
    np.add(e[..., 1], e[..., 2], out=e[..., 0])
    logs = np.log2(np.maximum(e, _TINY))
    terms = np.empty(r.shape + (6,))
    np.matmul(e * logs, _XLOG_SIGNS, out=terms[..., 0])
    ab = logs @ _ALPHA_BETA
    alpha, beta = ab[..., 0], ab[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = y[..., 1:] / r[..., None]
        # rows G, p, e-, e+ and r: y_k times each gives its derivative
        rates = np.empty(r.shape + (5, 4))
        rates[..., 0] = _RATE_W
        rates[..., 0, 0] = alpha
        np.multiply(_RATE_X[:, None], unit[..., None, :], out=rates[..., 1:])
        np.multiply(beta[..., None], unit, out=rates[..., 0, 1:])
        slopes = rates @ ys
        # the derivatives along u and v of p, e-, e+ and r, then those of x
        parts = np.concatenate([slopes[..., 1:, 1:], ys[..., 1:, 1:]], axis=-2)
        weights = np.empty(r.shape + (7,))
        np.divide(_CURVE, e, out=weights[..., :3])
        np.multiply((beta / r)[..., None], _BEND, out=weights[..., 3:])
        hess = (parts * weights[..., None]).swapaxes(-1, -2) @ parts
        hess -= slopes[..., 0, 0, None, None] * _EYE2
        terms[..., 1:3] = slopes[..., 0, 1:]
        terms[..., 3:5] = hess[..., 0, :]
        terms[..., 5] = hess[..., 1, 1]
        np.copyto(terms, _CUT, where=e[..., :1] < ZERO_PROB)
        out = np.add(terms[0], terms[1])
    np.negative(out, out=out)
    out[:, 0] += s_b[rows]
    return out


def _two_qubit_scalar_model(q, s_b: float, frame):
    """``_two_qubit_model`` of one centre in plain floats, the same
    formulas summed in Python's order rather than BLAS's: ``q`` is the row's
    4 x 4 table as nested lists and ``frame`` its rows n, u and v.  Returns the six numbers of the model,
    the derivatives NaN where an outcome falls below the zero-probability
    cut or has e- = 0 or r = 0."""
    (w0, b1, b2, b3), (p0, p1, p2, p3), (r0, r1, r2, r3), (t0, t1, t2, t3) = q
    (n0, n1, n2), (u0, u1, u2), (v0, v1, v2) = frame
    # q^T times (0, n), (0, u) and (0, v)
    nw, nx1, nx2, nx3 = (p0 * n0 + r0 * n1 + t0 * n2, p1 * n0 + r1 * n1 + t1 * n2,
                         p2 * n0 + r2 * n1 + t2 * n2, p3 * n0 + r3 * n1 + t3 * n2)
    uw, ux1, ux2, ux3 = (p0 * u0 + r0 * u1 + t0 * u2, p1 * u0 + r1 * u1 + t1 * u2,
                         p2 * u0 + r2 * u1 + t2 * u2, p3 * u0 + r3 * u1 + t3 * u2)
    vw, vx1, vx2, vx3 = (p0 * v0 + r0 * v1 + t0 * v2, p1 * v0 + r1 * v1 + t1 * v2,
                         p2 * v0 + r2 * v1 + t2 * v2, p3 * v0 + r3 * v1 + t3 * v2)
    uu = ux1 * ux1 + ux2 * ux2 + ux3 * ux3
    uv = ux1 * vx1 + ux2 * vx2 + ux3 * vx3
    vv = vx1 * vx1 + vx2 * vx2 + vx3 * vx3
    f = g1 = g2 = a = b = c = 0.0
    for s in (1.0, -1.0):
        lw, lx1, lx2, lx3 = s * nw, s * nx1, s * nx2, s * nx3
        w, x1, x2, x3 = w0 + lw, b1 + lx1, b2 + lx2, b3 + lx3
        r = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        em, ep = max(w - r, 0.0), max(w + r, 0.0)
        p = em + ep
        if p < ZERO_PROB:
            g1 = g2 = a = b = c = math.nan
            continue
        lp, lq = math.log2(p), math.log2(ep)
        lm = math.log2(em) if em > 0.0 else 0.0
        f += p * lp - em * lm - ep * lq
        if em == 0.0 or r == 0.0:
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
    return [s_b - f, -g1, -g2, -a, -b, -c]


def _two_qubit_objective(states: StateStack, s_b: np.ndarray) -> _Objective:
    """I(P_n;B) over Bloch directions for dA = dB = 2, in the real Pauli form.

    With T_{mu nu} = tr(rho sigma_mu (x) sigma_nu), a = T_{i0}, b = T_{0j}
    and C = T_{ij}, the outcome n+- has probability (1 +- a.n)/2 and its
    unnormalized conditional state on B the eigenvalues
    ((1 +- a.n) +- |b +- C^T n|)/4: both outcomes of a direction come from
    q = T / 4 applied to (1, n) and (1, -n), one small matrix product per
    row (``_two_qubit_piece``).  Each product has at least two rows and two
    columns, so BLAS takes it as a matrix product, whose entries each sum
    their four terms in one order whatever the product's size; the rows go
    one product each, so no entry depends on the rows around it.  A call
    runs in pieces of at most ``_PIECE`` values, so its working set is
    bounded whatever the call's size.  The model is ``_two_qubit_model``
    over arrays and ``_two_qubit_scalar_model`` centre by centre.
    """
    # One matrix-vector product per row, the same arithmetic whatever the stack.
    products = (_PAULI_PAIRS @ states.mats.reshape(-1, 16, 1))[..., 0]
    q = (0.25 * products.real).reshape(-1, 4, 4)

    def values(rows, dirs):
        qs = q[rows]
        sb = s_b[rows, None]
        count, size = len(qs), dirs.shape[-1]
        shared = dirs.shape[1] == 1
        out = np.empty((count, size))
        # Pieces of whole rows, or of one row's directions when a row is larger.
        step_rows, step_cols = max(1, _PIECE // size), min(size, _PIECE)
        for c in range(0, size, step_cols):
            cs = slice(c, c + step_cols)
            table = _direction_table(dirs[:, :, cs]) if shared else None
            for r in range(0, count, step_rows):
                rs = slice(r, r + step_rows)
                t = table if shared else _direction_table(dirs[:, rs, cs])
                _two_qubit_piece(qs[rs], t, sb[rs], out[rs, cs])
        return out

    def models(rows, frames):
        return [
            _two_qubit_scalar_model(q[k].tolist(), float(s_b[k]), frame) for k, frame in zip(rows, frames)
        ]

    return _Objective(values, lambda rows, frames: _two_qubit_model(q, rows, frames, s_b), models)


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


def _sphere_neighbourhood(grid: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` over the 3 x 3 neighbourhood of each cell of a hemisphere
    grid, or of each grid of a stack (..., rows, cols), on the sphere (see
    ``_sphere_padded``).

    The pole row is one cell, whose neighbourhood is all of row 1, and each
    equator cell is the same point as its antipode grid_phi / 2 columns
    away, with the same neighbourhood.  ``reduce`` is a binary ufunc,
    applied along phi and then along theta to shifted slices of the padded
    grid: the neighbourhoods are never gathered, so the working memory is three
    copies of the input.
    """
    ext = _sphere_padded(grid)
    across = reduce(ext[..., :-2], ext[..., 1:-1])
    reduce(across, ext[..., 2:], out=across)
    out = reduce(across[..., :-2, :], across[..., 1:-1, :])
    reduce(out, across[..., 2:, :], out=out)
    out[..., 0, :] = reduce.reduce(out[..., 0, :], axis=-1, keepdims=True)
    return out


def _grid_peaks(values: np.ndarray) -> list[np.ndarray]:
    """Flat indices of the local maxima of each hemisphere grid of a stack
    (B, rows, cols) of values, best first, one array per grid.

    A cell is a maximum when no neighbour exceeds it by more than
    ``IMPROVE_ATOL``; a connected set of maxima (a plateau, the pole row or
    an antipodal equator pair) counts once, at its best cell.  Ties go to
    the lowest flat index.  Both the peak test and the merging of connected
    maxima take their neighbourhoods from ``_sphere_neighbourhood``.
    """
    count, rows, cols = values.shape
    size, half = rows * cols, cols // 2
    peak = np.empty(values.shape, dtype=bool)
    # The peak test takes as many grids at a time as one grid call holds,
    # so that their padded copies stay in cache and under glibc's 128 KB
    # mmap threshold.
    step = max(1, _CALL_DIRECTIONS // size)
    for first in range(0, count, step):
        grids = values[first : first + step]
        highest = _sphere_neighbourhood(grids, np.maximum) - IMPROVE_ATOL
        np.greater_equal(grids, highest, out=peak[first : first + step])
    del highest  # before the merging, whose buffers are the pass's largest
    # The pole row, and an equator cell with its antipode, are one point
    # each, whatever their rounding.
    peak[:, 0] = peak[:, 0].any(axis=1, keepdims=True)
    peak[:, -1, :half] = peak[:, -1, half:] = peak[:, -1, :half] | peak[:, -1, half:]
    cells = np.flatnonzero(peak)
    total = len(cells)
    if total > count:
        # Some grid has several maxima (each has at least its highest cell).
        # A maximum is labelled by its position in ``cells`` (an equator cell
        # by its antipode's), other cells by ``total``, which never wins, in
        # the smallest type that holds it.  Each round takes the neighbourhood
        # minimum of all label grids and jumps labels among the maxima, until
        # a round changes nothing: each connected set then holds its lowest.
        flat = np.full(count * size, total, dtype=np.min_scalar_type(total))
        flat[cells] = np.arange(total, dtype=flat.dtype)
        labels = flat.reshape(values.shape)
        labels[:, -1, half:] = labels[:, -1, :half]
        settled = flat[cells]
        while True:
            spread = _sphere_neighbourhood(labels, np.minimum).ravel()[cells]
            while not np.array_equal(jumped := spread[spread], spread):
                spread = jumped
            if np.array_equal(spread, settled):
                break
            flat[cells] = settled = spread
        # Each set's best cell comes first among its cells in the order of
        # label, then value from the highest (the sort is stable, so ties go
        # by index); the sets of a grid then go best first, ties by index.
        order = np.lexsort((-values.ravel()[cells], settled))
        ordered = settled[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        best = cells[order[starts]]
        cells = best[np.lexsort((best, -values.ravel()[best], best // size))]
    grid, local = np.divmod(cells, size)
    bounds = np.searchsorted(grid, np.arange(count + 1)).tolist()
    return [local[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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


# Directions per objective call, at most: a grid call holds the grids of as
# many rows as fit (16 rows of the default grid; one row, its grid split
# into calls of this size, when a grid is larger).
_CALL_DIRECTIONS = 16 * 288
# Rows per climb block: the rows whose grid peaks are found in one pass and
# whose ascents share each round's model call, 170 rows of the default grid
# (383 KB of grid values).  A block of a larger grid holds fewer rows, so
# that its grid values take no more memory than those of the default grid.
_CLIMB_ROWS = 170
_CLIMB_VALUES = _CLIMB_ROWS * OptimizerConfig.grid_theta * OptimizerConfig.grid_phi


def _search(objective: _Objective, count: int, cfg: OptimizerConfig) -> tuple[np.ndarray, ...]:
    """Grid search, then trust-region Newton ascent from every grid peak, of
    ``objective`` (see ``_Objective``) on each of ``count`` state rows.

    The rows go in climb blocks of up to ``_CLIMB_ROWS``.  A block's grid
    values come from calls of at most ``_CALL_DIRECTIONS`` directions, the
    pole row (one point, one value for its signed zeros) at its last cell
    only, whose value fills the row.  One ``_grid_peaks`` pass finds the
    maxima of all its rows (at most ``_MAX_STARTS`` a row, best first).
    Each maximum starts an ascent with a radius of one grid row, and
    ``_climb`` runs the ascents of the block, one model call a round for all
    of them.  Each ascent's result is an objective value at a direction it
    visited, the Holevo quantity of a real measurement, so J_A never
    exceeds the truth.  A row's first ascent wins unless a later one ends
    more than ``IMPROVE_ATOL`` higher.  Returns the columns value, direction
    (count, 3), grid maximum and model rounds of all the row's ascents.
    """
    _, dirs = _hemisphere_grid(cfg.grid_theta, cfg.grid_phi)
    frames = _grid_frames(cfg.grid_theta, cfg.grid_phi)
    size = dirs.shape[1]
    radius = (np.pi / 2.0) / (cfg.grid_theta - 1)
    block = max(1, min(_CLIMB_ROWS, _CLIMB_VALUES // size))
    grid_rows = max(1, _CALL_DIRECTIONS // size)
    chunk = min(size, _CALL_DIRECTIONS)
    pole = cfg.grid_phi - 1
    found, grid_best = np.empty(count), np.empty(count)
    direction, rounds = np.empty((count, 3)), np.empty(count, dtype=int)
    for start in range(0, count, block):
        stop = min(start + block, count)
        values = np.empty((stop - start, size))
        for first in range(start, stop, grid_rows):
            last = min(first + grid_rows, stop)
            for k in range(pole, size, chunk):
                values[first - start : last - start, k : k + chunk] = objective.values(
                    slice(first, last), dirs[:, None, k : k + chunk]
                )
        # The pole row is one point: its last cell's value fills the others.
        values[:, :pole] = values[:, pole, None]
        peaks = _grid_peaks(values.reshape(-1, cfg.grid_theta, cfg.grid_phi))
        starts = [cells[:_MAX_STARTS] for cells in peaks]
        counts = [len(cells) for cells in starts]
        cells = np.concatenate(starts)
        row = np.repeat(np.arange(start, stop), counts)
        best, at, steps = _climb(objective, row, values[row - start, cells], frames[cells], radius)
        ends, steps = best.tolist(), steps.tolist()
        grid_best[start:stop] = values.max(axis=1)
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
    """Trust-region Newton ascents of the objective from the grid peaks with
    tangent ``frames`` (A, 3, 3) and grid ``values`` (A,), on state ``rows``
    (A,); each round takes the exact model (see ``_Objective``) of the
    centres of all active ascents in one call.

    Round 1 models the grid peaks, as arrays over the block, and stops each
    ascent whose model bounds the gain of any step within its radius by
    1e-15 (every ascent on the named families stops there); later rounds
    model the centre that each ascent's ``_trust_step`` reaches, through
    ``objective.models``.
    The model value at a new centre decides on the step that led there:
    accepted if it gains at least a tenth of the predicted gain, with the
    radius doubled when it gains over three quarters on the boundary;
    rejected otherwise, with the radius cut to a quarter of the step.  An
    ascent stops when the model of its centre is not finite, when the
    predicted gain of its step falls to 1e-15 or the radius below 1e-12, or
    after ``_MAX_ROUNDS``, and drops out of the next call.  Then one
    ``objective.values`` call takes the objective at the centre of highest
    model value of every ascent that rose above its grid peak.  Returns each
    ascent's value, the higher of that objective value and the grid peak's,
    its direction, and the number of model rounds.
    """
    first = objective.model(rows, frames)
    order, highest = rows.tolist(), values.tolist()
    # The centre of each ascent with the highest model value, None while no
    # centre rose above the grid peak
    best_at, rounds = [None] * len(highest), [1] * len(highest)
    # Each ascent that goes on is [ascent, radius, accepted centre, its value,
    # its model].
    going = []
    finites = np.isfinite(first).all(axis=1).tolist()
    for i, (finite, (_, g1, g2, a, b, c)) in enumerate(zip(finites, first.tolist())):
        # No step within the radius gains more than |g| radius + top
        # radius^2 / 2 in the model, top its largest curvature if positive:
        # where that is at most 1e-15, as at every grid peak of the named
        # families, the ascent stops without a _trust_step.
        if finite:
            top = max(0.5 * (a + c) + math.hypot(0.5 * (a - c), b), 0.0)
            if math.hypot(g1, g2) * radius + 0.5 * top * radius * radius > 1e-15:
                going.append([i, radius, frames[i].tolist(), highest[i], [g1, g2, a, b, c]])
    for k in range(2, _MAX_ROUNDS + 1):
        # The step of each ascent that goes on, from its accepted centre: the
        # centre it reaches, with the predicted gain, length and boundary
        # flag of the step.
        moves = []
        for ascent in going:
            s1, s2, gain, boundary = _trust_step(*ascent[4], ascent[1])
            if gain > 1e-15:
                point = [n + s1 * u + s2 * v for n, u, v in zip(*ascent[2])]
                norm = math.hypot(*point)
                frame = _tangent_frame(*(x / norm for x in point))
                moves.append((ascent, frame, gain, math.hypot(s1, s2), boundary))
        if not moves:
            break
        models = objective.models([order[move[0][0]] for move in moves], [move[1] for move in moves])
        going = []
        for (ascent, frame, gain, length, boundary), (value, *model) in zip(moves, models):
            i = ascent[0]
            rounds[i] = k
            if value > highest[i]:
                highest[i], best_at[i] = value, frame[0]
            if (ratio := (value - ascent[3]) / gain) >= 0.1:
                if ratio > 0.75 and boundary:
                    ascent[1] *= 2.0
                ascent[2:] = frame, value, model
                goes = all(map(math.isfinite, model))
            else:
                ascent[1] = 0.25 * length
                goes = ascent[1] >= 1e-12
            if goes:
                going.append(ascent)
    # One objective call at the best centre of every ascent that left its
    # grid peak: the higher of that value and the peak's is the result.
    at, best = frames[:, 0].copy(), values.copy()
    moved = [i for i, n in enumerate(best_at) if n is not None]
    if moved:
        later = objective.values(rows[moved], np.array([best_at[i] for i in moved]).T[:, :, None])
        for i, value in zip(moved, later[:, 0].tolist()):
            if value > best[i]:
                best[i], at[i] = value, best_at[i]
    return best, at, np.array(rounds)


def classical_correlation_stack(
    states: StateStack, config: OptimizerConfig | None = None
) -> dict[str, np.ndarray]:
    """Maximize the Holevo quantity over projective qubit measurements on A,
    for every row of a state stack.

    A coarse grid over the upper hemisphere (directions n and -n induce the
    same two-outcome measurement) seeds a trust-region Newton ascent on the
    sphere from each of its local maxima (see ``_search``).  Grid ties
    resolve to the lowest (theta, phi) index, so the result is
    deterministic, and a row's result does not depend on the other rows.
    Two-qubit states use the real Pauli-correlation objective, wider B the
    LAPACK one.  S(rho^B) and I(A;B) come from the stack's spectra.  Returns
    the columns J_A, the discord D_A = I(A;B) - J_A, the canonical optimal
    direction (shape (P, 3)) and the optimizer trace: the best grid value,
    the refined value and the model rounds of all starts (``iterations``;
    round 1 models the grid peaks).
    """
    if states.dA != 2:
        raise ValueError(f"classical_correlation supports dA = 2 only, got dA = {states.dA}")
    cfg = config or OptimizerConfig()
    s_ab, s_a, s_b = _state_entropies(states)
    build = _two_qubit_objective if states.dB == 2 else _general_objective
    value, at, grid_best, rounds = _search(build(states, s_b), len(states), cfg)
    j_a = np.where(0.0 > value, 0.0, value)
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
