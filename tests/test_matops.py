"""Kernel tests: tensor products, partial traces, Hermitian spectra."""

import numpy as np
import pytest

from eurmem.matops import (
    I2,
    SIGMA_X,
    SIGMA_Z,
    basis_ket,
    hermitian_eigvals,
    partial_trace,
    projector,
    tensor,
)
from eurmem.states import KET_PSI_MINUS, werner, x_state_special

from helpers import random_density_matrix


def test_tensor_identity_case():
    np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_diagonal_pauli_algebra():
    np.testing.assert_array_equal(tensor(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_tensor_flips_left_factor():
    # (sigma_x (x) I)|00> = |10> by hand expansion of the 4x4 product
    ket00 = np.kron(basis_ket(2, 0), basis_ket(2, 0))
    np.testing.assert_allclose(tensor(SIGMA_X, I2) @ ket00, np.kron(basis_ket(2, 1), basis_ket(2, 0)))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert tensor(a, b).shape == (6, 6)
    np.testing.assert_allclose(np.trace(tensor(a, b)), np.trace(a) * np.trace(b))


def test_tensor_associative_exact_on_integer_matrices():
    for trio in [(SIGMA_X, SIGMA_Z, I2), (SIGMA_Z, SIGMA_Z, SIGMA_X)]:
        a, b, c = trio
        np.testing.assert_array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def test_partial_trace_singlet_marginals_maximally_mixed():
    rho = projector(KET_PSI_MINUS)
    np.testing.assert_allclose(partial_trace(rho, (2, 2), "A"), I2 / 2, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, (2, 2), "B"), I2 / 2, atol=1e-12)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(11)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho1 = g1 @ g1.conj().T
    rho1 /= np.trace(rho1).real
    rho2 = g2 @ g2.conj().T
    rho2 /= np.trace(rho2).real
    np.testing.assert_allclose(partial_trace(tensor(rho1, rho2), (2, 2), "A"), rho1, atol=1e-12)
    np.testing.assert_allclose(partial_trace(tensor(rho1, rho2), (2, 2), "B"), rho2, atol=1e-12)


def test_partial_trace_scales_by_factor_trace():
    # keep=A of a (x) b yields a * trace(b), also for non-unit-trace b
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(
        partial_trace(tensor(a, b), (2, 3), "A"), a * np.trace(b), atol=1e-12
    )


def test_partial_trace_x_state_marginal():
    for p in (0.0, 0.3, 0.8, 1.0):
        rho = x_state_special(p)
        np.testing.assert_allclose(rho.reduced_a(), np.diag([p / 2, 1 - p / 2]), atol=1e-12)
        np.testing.assert_allclose(rho.reduced_b(), np.diag([p / 2, 1 - p / 2]), atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density_matrix(rng).mat
        for keep in ("A", "B"):
            assert abs(np.trace(partial_trace(rho, (2, 2), keep)) - np.trace(rho)) <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        partial_trace(np.eye(4), (2, 3), "A")


def test_partial_trace_bad_keep_tag():
    with pytest.raises(ValueError, match="keep"):
        partial_trace(np.eye(4), (2, 2), "C")


def test_eigensystem_sigma_z():
    np.testing.assert_allclose(hermitian_eigvals(SIGMA_Z), [-1.0, 1.0])


def test_eigensystem_maximally_mixed():
    np.testing.assert_allclose(hermitian_eigvals(np.eye(4) / 4), [0.25] * 4)


def test_eigensystem_pure_singlet_projector():
    np.testing.assert_allclose(hermitian_eigvals(werner(1.0).mat), [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_hermitian_eigvals_of_a_stack():
    # Ascending eigenvalues of the Hermitian part, matrix by matrix for a stack.
    rng = np.random.default_rng(23)
    g = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4))
    m = g + g.conj().swapaxes(1, 2)
    w = hermitian_eigvals(m)
    assert np.all(np.diff(w, axis=1) >= -1e-12)
    np.testing.assert_allclose(w.sum(axis=1), np.trace(m, axis1=1, axis2=2).real, atol=1e-10)
    for wk, mk in zip(w, m):
        np.testing.assert_array_equal(wk, hermitian_eigvals(mk))
        np.testing.assert_allclose(wk, np.linalg.eigvalsh(mk), atol=1e-12)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(hermitian_eigvals(skew), [-0.5, 0.5])


def test_x_matrices_take_the_spectra_of_their_two_blocks():
    # A 4 x 4 matrix whose eight entries off the X pattern are 0 (+0 or -0)
    # has the spectra of its blocks on {|00>, |11>} and {|01>, |10>}, each
    # in the 2 x 2 closed form; any other matrix, even one whose only
    # off-X entry is tiny, goes to LAPACK.  Each matrix's eigenvalues are the
    # same bits alone and in a stack with the other kind.
    rng = np.random.default_rng(31)
    x_mats = [werner(0.3).mat, x_state_special(0.7).mat, np.diag([0.4, 0.0, 0.6, 0.0])]
    for _ in range(4):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x_mats.append(np.where(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1], g, 0.0))
    x_mats[-1][0, 1] = x_mats[-1][3, 2] = complex(-0.0, -0.0)
    tiny = np.zeros((4, 4))
    tiny[[0, 2, 1, 3], [2, 0, 3, 1]] = 1e-300
    other = [random_density_matrix(rng).mat for _ in range(6)] + [x_mats[0] + tiny]
    # X and other matrices in turn
    mats = np.array([m for pair in zip(x_mats, other) for m in pair])
    stacked = hermitian_eigvals(mats)
    for m, w in zip(mats, stacked):
        np.testing.assert_array_equal(hermitian_eigvals(m), w)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(0.5 * (m + m.conj().T)), rtol=0.0, atol=1e-12)
    for m in x_mats:
        blocks = [m[np.ix_(b, b)] for b in ([0, 3], [1, 2])]
        np.testing.assert_array_equal(hermitian_eigvals(m), np.sort(np.concatenate([hermitian_eigvals(b) for b in blocks])))
    for m in other:
        np.testing.assert_array_equal(hermitian_eigvals(m), np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
    assert hermitian_eigvals(mats.reshape(2, 7, 4, 4)).shape == (2, 7, 4)


def test_partial_trace_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(29)
    mats = np.array([random_density_matrix(rng, 2, 3).mat for _ in range(5)])
    for keep in ("A", "B"):
        stacked = partial_trace(mats, (2, 3), keep)
        for row, m in zip(stacked, mats):
            np.testing.assert_array_equal(row, partial_trace(m, (2, 3), keep))


def test_basis_ket_bounds():
    with pytest.raises(ValueError):
        basis_ket(2, 2)
