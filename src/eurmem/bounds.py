"""Entropic uncertainty lower bounds in the presence of quantum memory.

For a bipartite state rho^AB and observables X, Z measured on A, the actual
uncertainty is S(X|B) + S(Z|B) on the post-measurement (classical-quantum)
states.  It is computed as H(X) - I(X;B) + H(Z) - I(Z;B), since
S(X|B) = H(X) - I(X;B), so no post-measurement state is built; the tests
check it against the explicit classical-quantum state.  ``bounds_report``
is arithmetic on one ``infoquant.evaluate_stack`` pass and returns six lower
bounds, one field each (``bounds_table`` gives each field as a column over
the rows of a state stack, and ``bounds_report`` is its one-row view):

    bound_mu            q_mu                      (Maassen-Uffink)
    bound_mu_mixed      q_mu + S(A)               (no-memory, mixed input)
    bound_berta         q_mu + S(A|B)             (memory-assisted)
    bound_coles_piani   q'   + S(A|B)             (second-overlap refinement)
    bound_pati          bound_berta + max{0, D_A - J_A}
    bound_ours          bound_berta + max{0, delta}

where delta = I(A;B) - I(X;B) - I(Z;B) is the Holevo correction.  The
Holevo-corrected bound dominates Berta's bound, dominates Pati's bound for
the Bell-diagonal construction with the optimal first observable, and is
exactly tight for states with maximally mixed A measured in complementary
bases, where the identity

    S(X|B) + S(Z|B) = H(X) + H(Z) - S(A) + S(A|B) + delta

holds with equality term by term.

Closed forms
------------
For the two one-parameter families (``bell_diagonal_special`` and
``xstate``) the bounds have closed forms used as independent oracles for
the generic pipeline.  For the Bell-diagonal family the observable labels
X, Y, Z refer to the Bloch axes ordered by decreasing |r_i| (ties keep the
x, y, z order): X attains the classical correlation, which is what makes
the Pati and Holevo-corrected curves coincide for the {X,Y} pair once the
top two |r_i| tie.
"""

from __future__ import annotations

import numpy as np

from .infoquant import _one_row, binary_entropy, evaluate_stack
from .measure import ProjectiveObservable, pauli_observable
from .states import DensityMatrix, Row, StateStack

__all__ = [
    "actual_uncertainty",
    "bounds_table",
    "bounds_report",
    "closed_form_curves",
    "family_pairs",
]


def bounds_table(states: StateStack, x, z, corr: dict | None = None) -> dict[str, np.ndarray | None]:
    """Every bound and its ingredients as a column over the rows of a state stack.

    ``x`` and ``z`` are as in ``infoquant.evaluate_stack`` (one observable,
    or one per row); ``corr`` is the ``classical_correlation_stack`` table
    of the same rows, whose ``discord`` and ``classical_correlation`` it
    reads.  ``bound_pati`` and ``pati_correction`` are None without it.
    """
    ev = evaluate_stack(states, x, z)
    berta = ev["q_mu"] + ev["s_cond"]
    correction = pati = None
    if corr is not None:
        gap = corr["discord"] - corr["classical_correlation"]
        if gap.shape != berta.shape:
            raise ValueError(f"got {gap.size} correlation rows for {len(states)} states")
        correction = np.where(gap > 0.0, gap, 0.0)
        pati = berta + correction
    return {
        "q_mu": ev["q_mu"],
        "q_prime": ev["q_prime"],
        "s_cond": ev["s_cond"],
        "i_ab": ev["i_ab"],
        "i_xb": ev["i_xb"],
        "i_zb": ev["i_zb"],
        "delta": ev["delta"],
        "bound_mu": ev["q_mu"],
        "bound_mu_mixed": ev["q_mu"] + ev["s_a"],
        "bound_berta": berta,
        "bound_coles_piani": ev["q_prime"] + ev["s_cond"],
        "bound_pati": pati,
        "bound_ours": berta + ev["correction"],
        "actual": ev["actual"],
        "pati_correction": correction,
    }


def bounds_report(
    rho: DensityMatrix,
    x: ProjectiveObservable,
    z: ProjectiveObservable,
    corr: dict | None = None,
) -> Row:
    """The ``bounds_table`` row of one (state, X, Z) triple; ``corr`` is the
    state's ``classical_correlation`` row (the one optimizer-backed input)."""
    keys = ("discord", "classical_correlation")
    rows = None if corr is None else {key: np.array([corr[key]]) for key in keys}
    return _one_row(bounds_table(rho.stack, x, z, rows))


def actual_uncertainty(
    rho: DensityMatrix, x: ProjectiveObservable, z: ProjectiveObservable
) -> float:
    """S(X|B) + S(Z|B), computed as H(X) - I(X;B) + H(Z) - I(Z;B)."""
    return float(evaluate_stack(rho.stack, x, z)["actual"][0])


# ---------------------------------------------------------------------------
# Closed-form oracles for the named one-parameter families
# ---------------------------------------------------------------------------


def _check_pair(pair: str) -> str:
    key = pair.lower()
    if key not in ("xy", "xz"):
        raise ValueError(f"observable pair must be 'xy' or 'xz', got {pair!r}")
    return key


def _curves_bell_diagonal_special(p: float, pair: str) -> Row:
    # Holevo quantities along the Bloch axes: 1 - h(p) on the x axis
    # (|r| = |1-2p|) and 1 - h((1+p)/2) on each of y, z (|r| = p).
    h = binary_entropy
    along_x = 1.0 - h(p)
    along_yz = 1.0 - h((1.0 + p) / 2.0)
    hi = max(along_x, along_yz)
    lo = min(along_x, along_yz)
    mid = along_yz  # the second-largest |r_i| is always p
    # Spectrum (p, (1-p)/2, (1-p)/2, 0); q_mu = 1 and S(B) = 1 cancel, so
    # the Berta bound equals S(AB) = -p log2 p - (1-p) log2((1-p)/2).
    s_ab = h(p) + (1.0 - p)
    berta = s_ab
    i_ab = 2.0 - s_ab
    pati = berta + max(0.0, i_ab - 2.0 * hi)
    second = mid if pair == "xy" else lo
    ours = berta + max(0.0, i_ab - hi - second)
    return Row(berta=berta, pati=pati, ours=ours)


def _safe_plog2(coef: float, ratio: float) -> float:
    """coef * log2(ratio) with the 0 * log 0 = 0 convention."""
    if coef <= 0.0 or ratio <= 0.0:
        return 0.0
    return coef * float(np.log2(ratio))


def _curves_x_state_special(p: float, pair: str) -> Row:
    h = binary_entropy
    s_b = h(p / 2.0)
    s_ab = h(p)
    s_cond = s_ab - s_b
    i_ab = 2.0 * s_b - s_ab
    u = float(np.sqrt(1.0 - 2.0 * p + 2.0 * p * p))
    i_x = s_b - h((1.0 + u) / 2.0)
    i_z = s_b + _safe_plog2(p / 2.0, p / (2.0 - p)) + _safe_plog2(
        1.0 - p, 2.0 * (1.0 - p) / (2.0 - p)
    )
    berta = 1.0 + s_cond
    # sigma_x attains the classical correlation, so D - J = I(A;B) - 2 I(X;B).
    pati = berta + max(0.0, i_ab - 2.0 * i_x)
    # Any equatorial direction gives the Holevo quantity of sigma_x (the
    # family is invariant under matched z rotations), so the {X,Y} pair
    # duplicates I(X;B).
    second = i_x if pair == "xy" else i_z
    ours = berta + max(0.0, i_ab - i_x - second)
    return Row(berta=berta, pati=pati, ours=ours)


_CLOSED_FORMS = {
    "bell_diagonal_special": _curves_bell_diagonal_special,
    "xstate": _curves_x_state_special,
}


def closed_form_curves(family: str, p: float, pair: str) -> Row:
    """Closed-form ``Row(berta=..., pati=..., ours=...)`` for the named one-parameter families.

    ``family`` is "bell_diagonal_special" or "xstate"; ``pair`` selects the
    observable pair "xy" or "xz" (labels in the |r|-ordered sense described
    in the module docstring).
    """
    fn = _CLOSED_FORMS.get(family)
    if fn is None:
        raise ValueError(
            f"no closed forms for family {family!r}; expected one of {sorted(_CLOSED_FORMS)}"
        )
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"family parameter p must lie in [0, 1], got {p!r}")
    return fn(p, _check_pair(pair))


def family_pairs(family: str, ps, pair: str) -> tuple[list, list]:
    """The concrete observables behind the closed-form labels X, Y, Z at
    each p of a sequence: the lists of X and of Z, one entry per p.

    bell_diagonal_special: the Bloch axes sorted by decreasing |r_i| with
    r = (1-2p, -p, -p) (ties keep x, y, z order); the pair "xy" is the top
    two, "xz" the top and bottom.  One stable sort of -|r_i| orders the axes
    of every p at once; x comes first unless p > |1 - 2p|, so the lists hold
    at most two distinct pairs, and for p < 1/3 they are literally
    (sigma_x, sigma_y) / (sigma_x, sigma_z).

    xstate: literally (sigma_x, sigma_y) or (sigma_x, sigma_z).
    """
    key = _check_pair(pair)
    ps = np.asarray(ps, dtype=float)
    if family == "bell_diagonal_special":
        r = np.abs(np.stack([1.0 - 2.0 * ps, -ps, -ps], axis=-1))
        order = np.argsort(-r, axis=-1, kind="stable")
        axes = [pauli_observable(axis) for axis in "xyz"]
        xs = [axes[k] for k in order[:, 0].tolist()]
        return xs, [axes[k] for k in order[:, 1 if key == "xy" else 2].tolist()]
    if family == "xstate":
        return [pauli_observable("x")] * len(ps), [pauli_observable("y" if key == "xy" else "z")] * len(ps)
    raise ValueError(f"no preset observables for family {family!r}")
