"""Dense complex linear algebra for small bipartite quantum systems.

Everything downstream (states, measurements, entropies, bounds) is a pure
function over the small dense matrices built here.  Conventions:

* subsystem A is the left (slow) Kronecker factor, so the computational
  basis of a ``dA x dB`` system is ordered |00>, |01>, ..., |10>, |11>, ...
* Hermiticity is enforced to an absolute tolerance of 1e-10 and inputs are
  symmetrized before eigendecomposition to absorb round-off from repeated
  products.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERM_ATOL",
    "I2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "dagger",
    "hermiticity_defect",
    "tensor",
    "basis_ket",
    "projector",
    "partial_trace",
    "herm_eigensystem",
]

HERM_ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def dagger(m):
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def hermiticity_defect(m):
    """max_ij |M_ij - conj(M_ji)|, the distance from the Hermitian cone."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m))))


def tensor(*factors):
    """Kronecker product of one or more square matrices, left factor major.

    ``tensor(a, b)`` has dimension dim(a) * dim(b) and satisfies
    trace(a (x) b) = trace(a) * trace(b).
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def basis_ket(dim: int, index: int):
    """Computational basis column vector |index> in dimension ``dim``."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(vec):
    """Rank-1 projector |v><v| of a (not necessarily normalized) vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def partial_trace(m, dims, keep: str):
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    m : array, shape (dA*dB, dA*dB)
    dims : (dA, dB)
    keep : "A" or "B", the subsystem that survives.

    The returned matrix has dimension dA (keep="A") or dB (keep="B") and
    the same trace as the input.
    """
    m = np.asarray(m, dtype=complex)
    dA, dB = int(dims[0]), int(dims[1])
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    if dA * dB != m.shape[0]:
        raise ValueError(
            f"dimension mismatch: dA*dB = {dA * dB} but matrix has dimension {m.shape[0]}"
        )
    r = m.reshape(dA, dB, dA, dB)
    if keep == "A":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(r, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def herm_eigensystem(m, atol: float = HERM_ATOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending (stable
    tie-breaking on the underlying LAPACK ordering) and orthonormal
    eigenvector columns ``v``; ``m ~= v @ diag(w) @ v^dagger``.

    The input is symmetrized as (m + m^dagger)/2 before decomposition;
    anything farther than ``atol`` from Hermitian is rejected.
    """
    m = np.asarray(m, dtype=complex)
    defect = hermiticity_defect(m)
    if defect > atol:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {atol:.0e}"
        )
    sym = 0.5 * (m + dagger(m))
    w, v = np.linalg.eigh(sym)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]
