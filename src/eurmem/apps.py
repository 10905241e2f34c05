"""Application-layer bounds: entanglement witnessing, an entanglement-of-
formation lower bound, and a distillable-common-randomness upper bound.

The witness fires when the measured uncertainty S(X|B) + S(Z|B) drops below
the state-independent part of a bound, which forces S(A|B) < 0 and hence
entanglement.  The Holevo-corrected threshold q_mu + max{0, delta} dominates
the plain q_mu threshold, so anything the Berta witness catches this one
catches too.

Bob's guessing errors enter through the Fano term, which for two-outcome
measurements (d = 2, so the Pe log2(d-1) terms vanish) is

    b_F = h(Pe_X) + h(Pe_Z),

with Pe the Helstrom-optimal two-outcome discrimination error
(1 - ||p0 rho0 - p1 rho1||_1) / 2.  The two application bounds

    E_f  >= q_mu + max{0, delta} - b_F
    C_D  <= S(rho^B) + b_F - q_mu - max{0, delta}

are Koashi-Winter complements by construction: their sum is S(rho^B).
Both are evaluated on the given bipartite state; the tripartite purification
behind the common-randomness statement is not operationalized here.
Everything is arithmetic on one ``infoquant.evaluate_stack`` pass; the
Helstrom errors use omega_0 - omega_1 of its conditional states, so A must
be a qubit.  ``applications_table`` gives each number as a column over the
rows of a state stack, and ``applications_report`` is its one-row view.
"""

from __future__ import annotations

import numpy as np

from .infoquant import _one_row, _row_evaluation, binary_entropy, evaluate_stack
from .matops import hermitian_eigvals
from .measure import ProjectiveObservable
from .states import DensityMatrix, Row, StateStack

__all__ = [
    "WITNESS_MARGIN",
    "witness",
    "helstrom_error",
    "applications_table",
    "applications_report",
]

WITNESS_MARGIN = 1e-9


def _verdict(ev: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Entanglement flags and margins of the two witness thresholds, as
    columns over the rows of an ``evaluate_stack`` table.  margin_* is
    threshold minus measured uncertainty, and a flag is set when its margin
    exceeds WITNESS_MARGIN; entangled_by_berta implies entangled_by_ours, as
    the corrected threshold is never smaller."""
    margin_berta = ev["q_mu"] - ev["actual"]
    margin_ours = ev["q_mu"] + ev["correction"] - ev["actual"]
    return {
        "entangled_by_berta": margin_berta > WITNESS_MARGIN,
        "entangled_by_ours": margin_ours > WITNESS_MARGIN,
        "margin_berta": margin_berta,
        "margin_ours": margin_ours,
    }


def witness(
    rho: DensityMatrix, x: ProjectiveObservable, z: ProjectiveObservable
) -> Row:
    """Flag entanglement when the measured uncertainty undercuts a threshold."""
    return _one_row(_verdict(_row_evaluation(rho, x, z)))


def _trace_norm_error(gap: np.ndarray) -> np.ndarray:
    """(1 - ||gap||_1) / 2 clamped to [0, 1/2], for gap = p0 rho0 - p1 rho1,
    or for each gap of a stack."""
    error = 0.5 * (1.0 - np.abs(hermitian_eigvals(gap)).sum(axis=-1))
    return np.where(error < 0.0, 0.0, np.where(error > 0.5, 0.5, error))


def helstrom_error(ensemble: Row) -> float:
    """Minimum error probability for discriminating a two-outcome ensemble
    (a ``measure.outcome_ensemble`` row).

    P_e = (1 - ||p0 rho0 - p1 rho1||_1) / 2 with the trace norm taken over
    Hermitian eigenvalues; always in [0, 1/2] and never worse than guessing
    the likelier outcome.
    """
    if len(ensemble.probs) != 2:
        raise ValueError(
            f"helstrom_error supports exactly 2 outcomes, got {len(ensemble.probs)}"
        )
    return float(
        _trace_norm_error(
            ensemble.probs[0] * ensemble.cond_states[0]
            - ensemble.probs[1] * ensemble.cond_states[1]
        )
    )


def _require_qubit_a(dA: int):
    if dA != 2:
        raise ValueError(
            "applications_report supports dA = 2 only (the Helstrom errors "
            f"discriminate two outcomes), got dA = {dA}"
        )


def _applications_columns(ev: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Witness verdict plus both application bounds as arithmetic on an
    ``evaluate_stack`` table of dA = 2 states."""
    omegas = np.stack((ev["x_omegas"], ev["z_omegas"]), axis=1)
    # b_F = h(Pe_X) + h(Pe_Z); the errors are already clamped to [0, 1/2].
    h = binary_entropy(_trace_norm_error(omegas[:, :, 0] - omegas[:, :, 1]))
    eof = ev["q_mu"] + ev["correction"] - (h[:, 0] + h[:, 1])
    return {
        **_verdict(ev),
        "eof_lower_bound": eof,
        "eof_vacuous": eof < 0.0,
        # S(rho^B) + b_F - q_mu - max{0, delta}, the Koashi-Winter complement.
        "crand_upper_bound": ev["s_b"] - eof,
        "s_b": ev["s_b"],
    }


def applications_table(states: StateStack, x, z) -> dict[str, np.ndarray]:
    """Witness verdict plus both application bounds, each a column over the
    rows of a state stack (dA = 2); ``x`` and ``z`` as in ``evaluate_stack``."""
    _require_qubit_a(states.dA)
    return _applications_columns(evaluate_stack(states, x, z))


def applications_report(
    rho: DensityMatrix, x: ProjectiveObservable, z: ProjectiveObservable
) -> Row:
    """Witness verdict plus both application bounds as one flat row (dA = 2)."""
    _require_qubit_a(rho.dA)
    return _one_row(_applications_columns(_row_evaluation(rho, x, z)))
