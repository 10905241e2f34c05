"""Dense complex linear algebra for small bipartite quantum systems.

Everything downstream (states, measurements, entropies, bounds) is a pure
function over the small dense matrices built here.  Conventions:

* subsystem A is the left (slow) Kronecker factor, so the computational
  basis of a ``dA x dB`` system is ordered |00>, |01>, ..., |10>, |11>, ...
* Hermiticity is enforced to an absolute tolerance of 1e-10 (``HERM_ATOL``,
  checked when a state is validated), and ``hermitian_eigvals`` diagonalizes
  the Hermitian part (closed form for 2 x 2 and 4 x 4 X matrices, else
  LAPACK) to absorb round-off.
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
    "tensor",
    "basis_ket",
    "projector",
    "partial_trace",
    "hermitian_eigvals",
]

HERM_ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


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
    """Trace out one factor of a bipartite operator, or of each of a stack.

    Parameters
    ----------
    m : array, shape (..., dA*dB, dA*dB)
    dims : (dA, dB)
    keep : "A" or "B", the subsystem that survives.

    The returned matrices have dimension dA (keep="A") or dB (keep="B") and
    the same traces as the input.
    """
    m = np.asarray(m, dtype=complex)
    dA, dB = int(dims[0]), int(dims[1])
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("partial_trace expects a square matrix or a stack of them")
    if dA * dB != m.shape[-1]:
        raise ValueError(
            f"dimension mismatch: dA*dB = {dA * dB} but matrix has dimension {m.shape[-1]}"
        )
    r = m.reshape(m.shape[:-2] + (dA, dB, dA, dB))
    if keep == "A":
        return np.trace(r, axis1=-3, axis2=-1)
    if keep == "B":
        return np.trace(r, axis1=-4, axis2=-2)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


_SPREAD = np.array([-1.0, 1.0])
_TINY = np.finfo(float).tiny  # keeps e of a scalar matrix from 0 / 0
# The eight flat indices of a 4 x 4 matrix off the diagonal and the
# anti-diagonal, and the flat indices of its blocks on {|00>, |11>} and
# {|01>, |10>}, which are all of an X matrix.
_OFF_X = np.flatnonzero(~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]))
_X_BLOCKS = np.array([[[0, 3], [12, 15]], [[5, 6], [9, 10]]])


def hermitian_eigvals(m):
    """Ascending eigenvalues of the Hermitian part (m + m^dagger)/2 of a
    matrix, or of each matrix of a stack (shape (..., n, n) -> (..., n)).

    A 2 x 2 part [[a, b'], [b'*, d]] has (a + d)/2 -+ hypot(h, |b'|), h = (a - d)/2,
    taken as min(a, d) - e and max(a, d) + e, e = |b'| (|b'| / (hypot(h, |b'|) + |h|)),
    exact on a diagonal matrix and, at equal diagonal entries (h = 0), e = |b'|.
    A 4 x 4 matrix whose eight entries off the X pattern are exactly 0 has
    the spectra of its two 2 x 2 blocks in that closed form, decided per
    matrix; other matrices go to LAPACK.
    """
    m = np.asarray(m)
    if m.shape[-1] == 4:
        flat = m.reshape(-1, 16)
        x = ~flat[:, _OFF_X].any(axis=1)
        w = np.empty((len(flat), 4))
        w[x] = np.sort(hermitian_eigvals(flat[x][:, _X_BLOCKS]).reshape(-1, 4), axis=-1)
        w[~x] = _lapack_eigvals(flat[~x].reshape(-1, 4, 4))
        return w.reshape(m.shape[:-1])
    if m.shape[-1] != 2:
        return _lapack_eigvals(m)
    h = np.abs(0.5 * (m[..., 0, 0].real - m[..., 1, 1].real))
    off = np.abs(0.5 * (m[..., 0, 1] + m[..., 1, 0].conj()))
    e = off * (off / (np.hypot(h, off) + h + _TINY))
    return np.sort(m.diagonal(axis1=-2, axis2=-1).real) + e[..., None] * _SPREAD


def _lapack_eigvals(m):
    return np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))
