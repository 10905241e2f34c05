"""Entropic uncertainty lower bounds in the presence of quantum memory.

A small numpy-based toolkit for bipartite density matrices: named state
families, projective observables, entropic and correlation quantities
(including quantum discord via a Bloch-sphere optimizer), six uncertainty
lower bounds with closed-form oracles for the one-parameter families, and
application bounds (entanglement witness, entanglement of formation,
distillable common randomness).  Each report has a stacked form that
evaluates many states of one shape at once (``family_stack``,
``bounds_table``, ``applications_table``, ``classical_correlation_stack``),
and every one-row result is a ``Row``, a dict whose keys read as attributes.
The ``eurmem`` CLI exposes all of it.
"""

from .apps import (
    applications_report,
    applications_table,
    helstrom_error,
    witness,
)
from .bounds import (
    actual_uncertainty,
    bounds_report,
    bounds_table,
    closed_form_curves,
)
from .infoquant import (
    OptimizerConfig,
    binary_entropy,
    classical_correlation,
    classical_correlation_stack,
    holevo,
    von_neumann_entropy,
)
from .matops import (
    I2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    basis_ket,
    hermitian_eigvals,
    partial_trace,
    projector,
    tensor,
)
from .measure import (
    ProjectiveObservable,
    observable_from_basis,
    observable_from_bloch,
    observable_from_spec,
    outcome_ensemble,
    pauli_observable,
    post_measurement_state,
    q_mu,
    q_prime,
)
from .states import (
    DensityMatrix,
    Row,
    StateStack,
    StateValidationError,
    bell_diagonal,
    bell_diagonal_special,
    family_stack,
    from_spec,
    maximally_mixed,
    pure_schmidt,
    pure_state,
    to_spec,
    validate,
    werner,
    x_state_special,
)

__version__ = "0.1.0"
