"""Bipartite density matrices and the named two-qubit state families.

A :class:`DensityMatrix` is validated at construction: finite entries,
Hermitian within 1e-10, unit trace within 1e-10, and positive
semidefinite with eigenvalues no lower than -1e-10.  A :class:`StateStack`
holds P states of one shape as a (P, d, d) array, validated row by row
with the same checks; a DensityMatrix is a one-row stack, and the
one-parameter families are built as stacks by ``family_stack``.
Bell-state conventions are fixed as

    |Psi+-> = (|01> +- |10>) / sqrt(2),   |Phi+-> = (|00> +- |11>) / sqrt(2).

Families
--------
pure_schmidt(lam)          sum_i sqrt(lam_i) |ii>, Schmidt vectors in the
                           computational basis
werner(p)                  (1-p)/4 * I4 + p |Psi-><Psi-|
bell_diagonal(r)           (I (x) I + sum_i r_i sigma_i (x) sigma_i) / 4
bell_diagonal_special(p)   Bell-diagonal with r = (1-2p, -p, -p), i.e.
                           p |Psi-><Psi-| + (1-p)/2 (|Psi+><Psi+| + |Phi+><Phi+|)
x_state_special(p)         p |Psi+><Psi+| + (1-p) |11><11|
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matops import (
    HERM_ATOL,
    PAULIS,
    basis_ket,
    hermitian_eigvals,
    partial_trace,
    projector,
    tensor,
)

__all__ = [
    "TRACE_ATOL",
    "PSD_ATOL",
    "KET_PSI_PLUS",
    "KET_PSI_MINUS",
    "KET_PHI_PLUS",
    "KET_PHI_MINUS",
    "StateValidationError",
    "Row",
    "validate",
    "StateStack",
    "DensityMatrix",
    "pure_state",
    "pure_schmidt",
    "werner",
    "bell_diagonal",
    "bell_diagonal_special",
    "x_state_special",
    "ONE_PARAMETER_FAMILIES",
    "family_stack",
    "from_spec",
    "to_spec",
    "maximally_mixed",
]

TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
SCHMIDT_SUM_ATOL = 1e-12
# Largest dA or dB an explicit state document may give: a state matrix of
# side 2**20 would take 16 TiB, and below it the product dA dB, and so the
# shape residual, is an exact float.
MAX_DIMENSION = 1 << 20

_SQ2 = 1.0 / np.sqrt(2.0)

# Bell kets in the fixed |00>,|01>,|10>,|11> ordering.
KET_PSI_PLUS = _SQ2 * np.array([0.0, 1.0, 1.0, 0.0], dtype=complex)
KET_PSI_MINUS = _SQ2 * np.array([0.0, 1.0, -1.0, 0.0], dtype=complex)
KET_PHI_PLUS = _SQ2 * np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
KET_PHI_MINUS = _SQ2 * np.array([1.0, 0.0, 0.0, -1.0], dtype=complex)


class StateValidationError(ValueError):
    """A density-matrix invariant failed; names the violated invariant."""

    def __init__(self, invariant: str, residual: float, message: str):
        super().__init__(message)
        self.invariant = invariant
        self.residual = residual


class Row(dict):
    """A one-row result: a dict whose keys also read as attributes, as in
    scipy's ``OptimizeResult``.  A missing name raises AttributeError, so
    that ``hasattr``, copying and pickling work as on any object."""

    __slots__ = ()

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def to_dict(self) -> dict:
        """The row as plain data: arrays as lists, and rows, also in a list, as dicts."""
        return {key: _plain(value) for key, value in self.items()}


def _plain(value):
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value.to_dict() if isinstance(value, Row) else value.tolist() if isinstance(value, np.ndarray) else value


# The invariants after the shape, in the order they are reported.
_INVARIANTS = (("finite", 0.0), ("hermitian", HERM_ATOL), ("trace", TRACE_ATOL), ("psd", PSD_ATOL))
_LIMITS = np.array([tol for _, tol in _INVARIANTS])


def _residuals(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the ``_INVARIANTS`` of each matrix of a (P, n, n) stack, shape
    (P, 4), and the ascending eigenvalues of their Hermitian parts, shape (P, n).

    The finite residual counts NaN and inf entries; a row that has any is
    judged on that alone, and its other residuals are those of the row with
    them zeroed.
    """
    finite = np.isfinite(mats)
    nonfinite = np.count_nonzero(~finite, axis=(1, 2))
    if nonfinite.any():
        mats = np.where(finite, mats, 0.0)
    adjoint = mats.conj().swapaxes(1, 2)
    herm = np.abs(mats - adjoint).max(axis=(1, 2))
    trace = np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0)
    spectra = hermitian_eigvals(mats)
    psd = np.where(spectra[:, 0] < 0.0, -spectra[:, 0], 0.0)
    return np.column_stack([nonfinite, herm, trace, psd]), spectra


def _stack_report(mats: np.ndarray, dA: int, dB: int) -> tuple[Row, np.ndarray | None]:
    """The invariant report of the first row of a (P, n, n) stack that fails
    one, or of row 0 when all pass; a wrong shape fails the whole stack.
    Also returns the eigenvalues of ``_residuals`` (None for a wrong shape)."""
    square = mats.ndim == 3 and mats.shape[1] == mats.shape[2]
    dim_ok = square and mats.shape[1] == dA * dB
    shape_residual = 0.0 if dim_ok else float(abs((mats.shape[1] if square else -1) - dA * dB))
    checks = [Row(name="shape", passed=dim_ok, residual=shape_residual, tolerance=0.0)]
    residuals, spectra = _residuals(mats) if dim_ok else (None, None)
    if dim_ok and len(mats):
        row = residuals[(residuals > _LIMITS).any(axis=1).argmax()].tolist()
        for (name, tol), residual in zip(_INVARIANTS, row):
            checks.append(Row(name=name, passed=residual <= tol, residual=residual, tolerance=tol))
            if name == "finite" and residual > tol:
                break
    return Row(passed=all(c.passed for c in checks), checks=checks), spectra


def validate(mat, dA: int, dB: int) -> Row:
    """Check the density-matrix invariants of a raw matrix.

    Returns ``Row(passed=..., checks=[...])``, a row of name, passed,
    residual and tolerance per invariant: shape, finite entries, Hermiticity,
    unit trace, positive semidefiniteness.  The finite residual counts NaN and
    inf entries.  Never raises on a bad state; construction raises, this reports.
    """
    return _stack_report(np.asarray(mat, dtype=complex)[None], dA, dB)[0]


@dataclass(frozen=True, eq=False)
class StateStack:
    """P bipartite states rho^AB of one shape, a (P, dA dB, dA dB) array.

    Each row is validated at construction as a :class:`DensityMatrix` is;
    the first row that fails raises its ``StateValidationError``.  Each
    spectrum is computed once: rho^AB's by the validation, the others on first use.
    ``mats`` is read-only (and so is ``DensityMatrix.mat``, a view of it), since
    the cached spectra and the one-row views' shared evaluation assume the
    states never change.
    """

    mats: np.ndarray
    dA: int
    dB: int
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mats = np.array(self.mats, dtype=complex)
        mats.flags.writeable = False
        object.__setattr__(self, "mats", mats)
        report, spectrum = _stack_report(mats, self.dA, self.dB)
        object.__setattr__(self, "_spectrum", spectrum)
        if not report.passed:
            failure = next(c for c in report.checks if not c.passed)
            raise StateValidationError(
                failure.name,
                failure.residual,
                f"invalid density matrix: invariant '{failure.name}' violated "
                f"(residual {failure.residual:.3e}, tolerance {failure.tolerance:.0e})",
            )

    def __len__(self) -> int:
        return len(self.mats)

    def reduced_a(self) -> np.ndarray:
        """Tr_B rho^AB of each row, shape (P, dA, dA)."""
        return partial_trace(self.mats, (self.dA, self.dB), "A")

    def reduced_b(self) -> np.ndarray:
        """Tr_A rho^AB of each row, shape (P, dB, dB)."""
        return partial_trace(self.mats, (self.dA, self.dB), "B")

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ascending eigenvalues of rho^AB, rho^A and rho^B, one row per state
        (read-only: every caller shares them)."""
        spectra = (self._spectrum, *map(hermitian_eigvals, (self.reduced_a(), self.reduced_b())))
        for w in spectra:
            w.flags.writeable = False
        return spectra


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated bipartite state rho^AB with subsystem dimensions (dA, dB).

    ``stack`` is the same state as a one-row :class:`StateStack`, the form
    the evaluation functions take.
    """

    mat: np.ndarray
    dA: int
    dB: int
    stack: StateStack = field(init=False, repr=False)

    def __post_init__(self):
        stack = StateStack(np.asarray(self.mat, dtype=complex)[None], self.dA, self.dB)
        object.__setattr__(self, "mat", stack.mats[0])
        object.__setattr__(self, "stack", stack)

    def reduced_a(self) -> np.ndarray:
        """Tr_B rho^AB."""
        return partial_trace(self.mat, (self.dA, self.dB), "A")

    def reduced_b(self) -> np.ndarray:
        """Tr_A rho^AB."""
        return partial_trace(self.mat, (self.dA, self.dB), "B")


def pure_state(vec, dA: int, dB: int) -> DensityMatrix:
    """|v><v| as a bipartite density matrix (vector is normalized first)."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise StateValidationError("trace", 1.0, "zero vector cannot be normalized")
    return DensityMatrix(projector(v / norm), dA, dB)


def pure_schmidt(lam) -> DensityMatrix:
    """Pure bipartite state sum_i sqrt(lam_i) |i>|i> with dA = dB = len(lam)."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("Schmidt coefficients must be a vector of length >= 2")
    if np.any(lam < -1e-12):
        raise StateValidationError(
            "schmidt_nonneg", float(-lam.min()), "Schmidt coefficients must be nonnegative"
        )
    s = float(lam.sum())
    if not abs(s - 1.0) <= SCHMIDT_SUM_ATOL:
        raise StateValidationError(
            "schmidt_sum",
            abs(s - 1.0),
            f"Schmidt coefficients must sum to 1 within {SCHMIDT_SUM_ATOL:.0e} (got {s!r})",
        )
    d = lam.size
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = np.sqrt(np.clip(lam, 0.0, None))
    return DensityMatrix(projector(vec), d, d)


def is_number(value) -> bool:
    """Whether a document value is a real number (a JSON true or false is not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def to_float(value, what: str) -> float:
    """``float(value)`` of a document number; JSON sets no size limit, and an
    integer past float range raises a ValueError naming ``what``."""
    try:
        return float(value)
    except OverflowError:
        digits = value.digits if isinstance(value, _LongInt) else len(str(abs(value)))
        raise ValueError(f"{what} must lie in float range, got a {digits}-digit integer") from None


class _LongInt(int):
    """The CLI's ``parse_int`` for JSON: the integer of a literal, or past Python's
    4 300-digit limit for text conversion, +-10**4300 shown by its length."""

    def __new__(cls, text: str):
        try:
            return int(text)
        except ValueError:
            value = super().__new__(cls, -(10**4300) if text[0] == "-" else 10**4300)
            value.digits = len(text.lstrip("-"))
            return value

    def __repr__(self):
        return f"a {self.digits}-digit integer"


def _check_unit_interval(name: str, p) -> float:
    if not is_number(p):
        raise ValueError(f"{name} parameter 'p' must be a number, got {p!r}")
    p = to_float(p, f"{name} parameter 'p'")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} parameter p must lie in [0, 1], got {p!r}")
    return p


# The one-parameter families as (P, 4, 4) stacks, from a column p of shape (P, 1, 1).
def _werner_mats(p):
    return (1.0 - p) / 4.0 * np.eye(4, dtype=complex) + p * projector(KET_PSI_MINUS)


def _bell_diagonal_special_mats(p):
    return p * projector(KET_PSI_MINUS) + (1.0 - p) / 2.0 * (
        projector(KET_PSI_PLUS) + projector(KET_PHI_PLUS)
    )


def _x_state_special_mats(p):
    ket11 = np.kron(basis_ket(2, 1), basis_ket(2, 1))
    return p * projector(KET_PSI_PLUS) + (1.0 - p) * projector(ket11)


def _family_state(build, name: str, p) -> DensityMatrix:
    p = _check_unit_interval(name, p)
    return DensityMatrix(build(np.array([p])[:, None, None])[0], 2, 2)


def werner(p) -> DensityMatrix:
    """Two-qubit Werner state (1-p)/4 * I4 + p |Psi-><Psi-|, p in [0, 1]."""
    return _family_state(_werner_mats, "werner", p)


def bell_diagonal(r) -> DensityMatrix:
    """Bell-diagonal state (I (x) I + sum_i r_i sigma_i (x) sigma_i) / 4.

    Valid correlation vectors r live in the tetrahedron with vertices
    (-1,-1,-1), (-1,1,1), (1,-1,1), (1,1,-1); outside it the matrix fails
    positivity and construction raises naming the violated invariant.
    """
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size != 3:
        raise ValueError("bell_diagonal expects a 3-vector of correlations")
    mat = np.eye(4, dtype=complex)
    for ri, sigma in zip(r, PAULIS):
        mat += ri * tensor(sigma, sigma)
    mat /= 4.0
    try:
        return DensityMatrix(mat, 2, 2)
    except StateValidationError as exc:
        if exc.invariant == "psd":
            raise StateValidationError(
                "psd",
                exc.residual,
                f"correlation vector {tuple(r.tolist())} lies outside the Bell-diagonal "
                f"tetrahedron (negative eigenvalue, residual {exc.residual:.3e})",
            ) from None
        raise


def bell_diagonal_special(p) -> DensityMatrix:
    """One-parameter Bell-diagonal family p |Psi-><Psi-| + (1-p)/2 (|Psi+><Psi+| + |Phi+><Phi+|).

    Its correlation vector is r = (1-2p, -p, -p).
    """
    return _family_state(_bell_diagonal_special_mats, "bell_diagonal_special", p)


def x_state_special(p) -> DensityMatrix:
    """Two-qubit X-state family p |Psi+><Psi+| + (1-p) |11><11|, p in [0, 1]."""
    return _family_state(_x_state_special_mats, "x_state_special", p)


# Every family by document name, with the parameter field its document gives.
_FAMILY_BUILDERS = {
    "werner": (werner, "p"),
    "bell_diagonal": (bell_diagonal, "r"),
    "bell_diagonal_special": (bell_diagonal_special, "p"),
    "xstate": (x_state_special, "p"),
    "pure_schmidt": (pure_schmidt, "lambdas"),
}
# The one-parameter families, which sweeps run along p.
ONE_PARAMETER_FAMILIES = {name: fn for name, (fn, key) in _FAMILY_BUILDERS.items() if key == "p"}
_STACK_BUILDERS = {
    "werner": _werner_mats,
    "bell_diagonal_special": _bell_diagonal_special_mats,
    "xstate": _x_state_special_mats,
}


def family_stack(name: str, ps) -> StateStack:
    """The one-parameter family ``name`` (a key of ``ONE_PARAMETER_FAMILIES``)
    at every p of ``ps``, as one validated stack; row k is the state the
    family's function builds at ps[k]."""
    if name not in _STACK_BUILDERS:
        raise ValueError(f"unknown one-parameter family {name!r}; expected one of {sorted(_STACK_BUILDERS)}")
    p = np.asarray(ps, dtype=float).reshape(-1)
    outside = ~((0.0 <= p) & (p <= 1.0))
    if outside.any():
        _check_unit_interval(ONE_PARAMETER_FAMILIES[name].__name__, p[outside][0])
    return StateStack(_STACK_BUILDERS[name](p[:, None, None]), 2, 2)


def complex_matrix(doc, what: str) -> np.ndarray:
    """re + i im from a {"re": [[...], ...], "im": [[...], ...]} document
    ("im" defaults to zeros), unvalidated; ``what`` names it in errors."""
    if not isinstance(doc, dict) or "re" not in doc:
        raise ValueError(f"{what} needs an object with field 're' (and optionally 'im'), got {doc!r}")
    try:
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} 're' and 'im' fields must be arrays of numbers") from None
    if re.shape != im.shape:
        raise ValueError(f"{what} 're' and 'im' parts have different shapes")
    return re + 1j * im


def parse_explicit(doc: dict) -> tuple[np.ndarray, int, int]:
    """Raw (matrix, dA, dB) from an {"explicit": ...} document, unvalidated."""
    mat = complex_matrix(doc, "explicit state")
    dims = []
    for key in ("dA", "dB"):
        if key not in doc:
            raise ValueError(f"explicit state is missing field {key!r}")
        # JSON does not tell 2.0 from 2: a real number of integral value is
        # an integer (an int is tested as such, as float() overflows past 1e308).
        value = doc[key]
        if not (is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())):
            raise ValueError(f"explicit state field {key!r} must be an integer, got {value!r}")
        if not 1 <= value <= MAX_DIMENSION:
            raise ValueError(f"explicit state field {key!r} must lie in [1, {MAX_DIMENSION}], got {value!r}")
        dims.append(int(value))
    return mat, *dims


def from_spec(doc: dict) -> DensityMatrix:
    """Build a state from its JSON ingestion document.

    Accepted forms::

        {"family": {"name": "werner", "p": 0.5}}
        {"family": {"name": "bell_diagonal", "r": [0.5, -0.2, 0.1]}}
        {"family": {"name": "bell_diagonal_special", "p": 0.3}}
        {"family": {"name": "xstate", "p": 0.7}}
        {"family": {"name": "pure_schmidt", "lambdas": [0.8, 0.2]}}
        {"explicit": {"dA": 2, "dB": 2, "re": [[...], ...], "im": [[...], ...]}}
    """
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    if "family" in doc:
        family = doc["family"]
        if not isinstance(family, dict):
            raise ValueError("'family' entry must be an object with a 'name' field")
        name = family.get("name")
        if name not in _FAMILY_BUILDERS:
            raise ValueError(
                f"unknown state family {name!r}; expected one of {sorted(_FAMILY_BUILDERS)}"
            )
        build, key = _FAMILY_BUILDERS[name]
        if key not in family:
            raise ValueError(f"state family {name!r} is missing parameter {key!r}")
        value = family[key]
        if key != "p" and not (isinstance(value, list) and all(map(is_number, value))):
            raise ValueError(f"{name} parameter {key!r} must be a list of numbers, got {value!r}")
        return build(value if key == "p" else [to_float(v, f"{name} parameter {key!r}") for v in value])
    if "explicit" in doc:
        mat, dA, dB = parse_explicit(doc["explicit"])
        return DensityMatrix(mat, dA, dB)
    raise ValueError("state document must contain a 'family' or 'explicit' entry")


def to_spec(rho: DensityMatrix) -> dict:
    """Serialize a state to the explicit ingestion form (re/im parts)."""
    return {
        "explicit": {
            "dA": rho.dA,
            "dB": rho.dB,
            "re": rho.mat.real.tolist(),
            "im": rho.mat.imag.tolist(),
        }
    }


def maximally_mixed(dA: int = 2, dB: int = 2) -> DensityMatrix:
    """I / (dA*dB)."""
    d = dA * dB
    return DensityMatrix(np.eye(d, dtype=complex) / d, dA, dB)
