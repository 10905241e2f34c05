"""Projective observables on subsystem A and the objects they induce.

An observable is an orthonormal measurement basis {|x_i>}.  Measuring it on
rho^AB produces outcome probabilities p_i = tr[(|x_i><x_i| (x) I) rho] and
leaves Bob with conditional states

    rho^B_i = Tr_A[(|x_i><x_i| (x) I) rho (|x_i><x_i| (x) I)] / p_i.

All of these come from one batched product, ``conditional_stack``, of the
states omega_i = p_i rho^B_i of several observables on the rows of a state
stack; ``post_measurement_state`` is its independent reference.

Incompatibility of two observables is measured through the overlap matrix
c_ij = |<x_i|z_j>|^2: q_mu = log2(1/c) with c = max_ij c_ij, and the
refinement q' adds a term driven by the second-largest entry c_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matops import projector, tensor
from .states import DensityMatrix, Row, complex_matrix, is_number, to_float

__all__ = [
    "ORTHO_ATOL",
    "UNIT_ATOL",
    "ZERO_PROB",
    "ProjectiveObservable",
    "observable_from_basis",
    "observable_from_bloch",
    "pauli_observable",
    "observable_from_spec",
    "overlaps",
    "q_mu",
    "q_prime",
    "incompatibility",
    "require_on_a",
    "conditional_stack",
    "post_measurement_state",
    "outcome_ensemble",
]

# The tests against these two are written so that a NaN fails them.
ORTHO_ATOL = 1e-10
UNIT_ATOL = 1e-12
# Outcomes below this probability carry a maximally mixed placeholder state
# and contribute nothing to entropy averages (0 * log 0 = 0).
ZERO_PROB = 1e-14


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """An orthonormal measurement basis; column i of ``basis`` is |x_i>."""

    basis: np.ndarray
    name: str | None = None

    def __post_init__(self):
        basis = np.array(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError("observable basis must be a square matrix of column vectors")
        if basis.shape[0] < 2:
            raise ValueError(
                "observable basis must have at least two outcomes: q' needs the "
                "second-largest overlap of two bases, which a 1 x 1 basis lacks"
            )
        gram = basis.conj().T @ basis
        defect = float(np.max(np.abs(gram - np.eye(basis.shape[0]))))
        if not defect <= ORTHO_ATOL:
            raise ValueError(
                f"basis is not orthonormal: max |Gram - I| = {defect:.3e} > {ORTHO_ATOL:.0e}"
            )
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    def projector(self, i: int) -> np.ndarray:
        return projector(self.basis[:, i])

    def label(self) -> str:
        return self.name if self.name is not None else "custom"


def observable_from_basis(columns, name: str | None = None) -> ProjectiveObservable:
    return ProjectiveObservable(np.asarray(columns, dtype=complex), name)


def observable_from_bloch(n) -> ProjectiveObservable:
    """Two-outcome qubit observable with projectors (I +- n.sigma)/2.

    ``n`` must be a unit 3-vector (within 1e-12).  The returned basis kets
    are the +n and -n eigenvectors of n.sigma.
    """
    n = np.asarray(n, dtype=float).reshape(-1)
    if n.size != 3:
        raise ValueError("Bloch direction must be a 3-vector")
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= UNIT_ATOL:
        raise ValueError(f"Bloch direction must be a unit vector, |n| = {norm!r}")
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    plus = np.array([c, np.exp(1j * phi) * s])
    minus = np.array([s, -np.exp(1j * phi) * c])
    return ProjectiveObservable(
        np.column_stack([plus, minus]),
        name=f"bloch({n[0]:.6g},{n[1]:.6g},{n[2]:.6g})",
    )


_PAULI_BASES = {
    "x": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    "y": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0),
    "z": np.eye(2, dtype=complex),
}


def pauli_observable(axis: str) -> ProjectiveObservable:
    """Eigenbasis of sigma_x, sigma_y or sigma_z (axis in {"x","y","z"}).

    Each axis has one observable (its basis is read-only), shared by all callers.
    """
    key = axis.lower().removeprefix("sigma_")
    if key not in _PAULI_BASES:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return _pauli(key)


@lru_cache(maxsize=None)
def _pauli(key: str) -> ProjectiveObservable:
    return ProjectiveObservable(_PAULI_BASES[key], name=f"sigma_{key}")


def observable_from_spec(doc) -> ProjectiveObservable:
    """Build an observable from its JSON specification.

    Accepted forms::

        {"named": "sigma_x"}            (sigma_x | sigma_y | sigma_z)
        {"bloch": [nx, ny, nz]}
        {"basis": {"re": [[...], ...], "im": [[...], ...]}}

    In the "basis" form the columns of re + i*im are the basis kets.
    A bare string is treated as the "named" form.
    """
    if isinstance(doc, str):
        return pauli_observable(doc)
    if not isinstance(doc, dict):
        raise ValueError("observable specification must be a JSON object or a name")
    if "named" in doc:
        if not isinstance(doc["named"], str):
            raise ValueError(f"observable 'named' entry must be a Pauli name, got {doc['named']!r}")
        return pauli_observable(doc["named"])
    if "bloch" in doc:
        entry = doc["bloch"]
        if not isinstance(entry, list) or not all(map(is_number, entry)):
            raise ValueError(f"observable 'bloch' entry must be a list of numbers, got {entry!r}")
        if not all(math.isfinite(to_float(v, "observable 'bloch' entry")) for v in entry):
            raise ValueError(f"observable 'bloch' entry must be finite, got {entry!r}")
        return observable_from_bloch(entry)
    if "basis" in doc:
        basis = complex_matrix(doc["basis"], "observable basis")
        if not np.isfinite(basis).all():
            raise ValueError("observable basis 're' and 'im' fields must be finite")
        return observable_from_basis(basis)
    raise ValueError("observable specification needs a 'named', 'bloch' or 'basis' entry")


def _require_same_dim(x: ProjectiveObservable, z: ProjectiveObservable):
    if x.d != z.d:
        raise ValueError(f"observables have different dimensions: {x.d} vs {z.d}")


def require_on_a(rho, *observables: ProjectiveObservable):
    """Reject observables of unequal dimensions, or of a dimension other than
    dA of ``rho`` (a ``DensityMatrix`` or a ``StateStack``)."""
    for obs in observables:
        _require_same_dim(observables[0], obs)
        if obs.d != rho.dA:
            raise ValueError(f"observable dimension {obs.d} does not match dA = {rho.dA}")


def overlaps(x_bases: np.ndarray, z_bases: np.ndarray) -> np.ndarray:
    """c_ij = |<x_i|z_j>|^2, a doubly stochastic real matrix, of two bases or
    of each pair of two stacks of them (..., d, d)."""
    return np.abs(x_bases.conj().swapaxes(-1, -2) @ z_bases) ** 2


def incompatibility(c_matrix: np.ndarray):
    """(q_mu, q') of an overlap matrix, or of each of a stack (..., d, d); see
    ``q_prime`` for c2.

    The largest entry c of a doubly stochastic d x d matrix lies in [1/d, 1],
    so c is clamped there (and c2 to at most c): the overlaps of an exact
    pair of mutually unbiased bases round to just below 1/d, which would put
    q_mu just above log2 d.
    """
    c_matrix = np.asarray(c_matrix, dtype=float)
    d = c_matrix.shape[-1]
    ordered = np.sort(c_matrix.reshape(c_matrix.shape[:-2] + (d * d,)), axis=-1)
    c = np.minimum(np.maximum(ordered[..., -1], 1.0 / d), 1.0)
    c2 = np.minimum(ordered[..., -2], c)
    qmu = np.log2(1.0 / c)
    return qmu, qmu + 0.5 * (1.0 - np.sqrt(c)) * np.log2(c / c2)


def q_mu(x: ProjectiveObservable, z: ProjectiveObservable) -> float:
    """Incompatibility log2(1/c) with c the largest squared basis overlap."""
    _require_same_dim(x, z)
    return float(incompatibility(overlaps(x.basis, z.basis))[0])


def q_prime(x: ProjectiveObservable, z: ProjectiveObservable) -> float:
    """Refined incompatibility q' = q_mu + (1 - sqrt(c))/2 * log2(c/c2).

    c2 is the second-largest entry of the overlap matrix counted with
    multiplicity, so q' = q_mu whenever the maximum is attained twice.
    For qubit observables c = c2 and q' reduces to q_mu.
    """
    _require_same_dim(x, z)
    return float(incompatibility(overlaps(x.basis, z.basis))[1])


def conditional_stack(states, bases) -> np.ndarray:
    """omega_i = <x_i|rho|x_i>_A = p_i rho^B_i of k observables on each row of a
    ``StateStack``, shape (P, k, d, dB, dB): one batched product gives
    sum_a conj(x_ai) rho_(aj)(bl) of every outcome, then x_bi times it is
    summed over b.  ``bases`` holds k stacks of measurement bases, of shape
    (P, d, d) or, one basis for all rows, (1, d, d); see ``require_on_a``.
    """
    dA, dB = states.dA, states.dB
    if len({b.shape for b in bases}) > 1:
        bases = np.broadcast_arrays(*bases)
    x = np.concatenate(bases, axis=-1).swapaxes(-1, -2)  # x[p, (k, i), a] = <a|x_i>
    half = x.conj() @ states.mats.reshape(-1, dA, dB * dA * dB)
    terms = half.reshape(len(half), x.shape[1], dB, dA, dB) * x[:, :, None, :, None]
    return terms.sum(axis=-2).reshape(len(half), len(bases), dA, dB, dB)


def post_measurement_state(rho: DensityMatrix, obs: ProjectiveObservable) -> DensityMatrix:
    """The classical-quantum state sum_i (P_i (x) I) rho (P_i (x) I).

    Block-diagonal in the measured basis; applying the same measurement
    twice is idempotent.  The reference route to S(X|B) in the tests.
    """
    require_on_a(rho, obs)
    idB = np.eye(rho.dB, dtype=complex)
    out = np.zeros_like(rho.mat)
    for i in range(obs.d):
        pi = tensor(obs.projector(i), idB)
        out += pi @ rho.mat @ pi
    return DensityMatrix(out, rho.dA, rho.dB)


def outcome_ensemble(rho: DensityMatrix, obs: ProjectiveObservable) -> Row:
    """Measurement statistics of ``obs`` on subsystem A of ``rho``:
    ``Row(probs=..., cond_states=..., effective=...)``, the outcome
    probabilities, Bob's conditional states rho^B_i and, per outcome, whether
    p_i reaches ``ZERO_PROB``; an outcome below it carries a maximally mixed
    placeholder state and is excluded from averages."""
    require_on_a(rho, obs)
    omegas = conditional_stack(rho.stack, [obs.basis[None]])[0, 0]
    probs = np.maximum(np.einsum("ijj->i", omegas).real, 0.0)
    effective = tuple(bool(p >= ZERO_PROB) for p in probs)
    placeholder = np.eye(rho.dB, dtype=complex) / rho.dB
    cond = tuple(
        omega / p if ok else placeholder for omega, p, ok in zip(omegas, probs, effective)
    )
    return Row(probs=probs, cond_states=cond, effective=effective)
