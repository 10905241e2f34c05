"""Random-state and random-observable generators for the test suite."""

from __future__ import annotations

import numpy as np

from eurmem import (
    DensityMatrix,
    ProjectiveObservable,
    bell_diagonal,
    observable_from_basis,
    partial_trace,
    tensor,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(
    rng: np.random.Generator, dA: int = 2, dB: int = 2, rank: int | None = None
) -> DensityMatrix:
    """Mixed state from the Ginibre (Hilbert-Schmidt) construction."""
    d = dA * dB
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dA, dB)


def random_observable(rng: np.random.Generator, d: int = 2) -> ProjectiveObservable:
    return observable_from_basis(random_unitary(rng, d))


def random_projective_pair(rng: np.random.Generator, d: int = 2):
    """Two independent Haar-random bases (no unbiasedness imposed)."""
    return random_observable(rng, d), random_observable(rng, d)


def random_mub_pair(rng: np.random.Generator):
    """A random qubit basis and its Hadamard rotation (all overlaps 1/2)."""
    u = random_unitary(rng, 2)
    return observable_from_basis(u), observable_from_basis(u @ HADAMARD)


def random_bell_diagonal_r(rng: np.random.Generator) -> np.ndarray:
    """Uniform correlation vector inside the Bell-diagonal tetrahedron."""
    while True:
        r = rng.uniform(-1.0, 1.0, size=3)
        signs = np.array(
            [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float
        )
        if np.all(1.0 + signs @ r >= 0.0):
            return r


def random_bell_diagonal(rng: np.random.Generator) -> DensityMatrix:
    return bell_diagonal(random_bell_diagonal_r(rng))


def random_single_qubit_density(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_product_state(rng: np.random.Generator) -> DensityMatrix:
    a = random_single_qubit_density(rng)
    b = random_single_qubit_density(rng)
    return DensityMatrix(np.kron(a, b), 2, 2)


def random_schmidt_coeffs(rng: np.random.Generator, n: int = 2) -> np.ndarray:
    lam = rng.uniform(0.0, 1.0, size=n)
    return lam / lam.sum()


def conditional_blocks(rho: DensityMatrix, obs: ProjectiveObservable) -> list[np.ndarray]:
    """p_i rho^B_i of each outcome, from the explicit projectors P_i (x) I."""
    projectors = [tensor(obs.projector(i), np.eye(rho.dB)) for i in range(obs.d)]
    return [partial_trace(pi @ rho.mat @ pi, (rho.dA, rho.dB), "B") for pi in projectors]
