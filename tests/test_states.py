"""State-family construction, validation, and JSON ingestion tests."""

import numpy as np
import pytest

from eurmem.matops import PAULIS, tensor
from eurmem.states import (
    KET_PSI_PLUS,
    DensityMatrix,
    StateValidationError,
    bell_diagonal,
    bell_diagonal_special,
    from_spec,
    maximally_mixed,
    pure_schmidt,
    to_spec,
    validate,
    werner,
    x_state_special,
)

from helpers import random_bell_diagonal_r, random_schmidt_coeffs


def test_werner_zero_is_maximally_mixed():
    np.testing.assert_allclose(werner(0.0).mat, np.eye(4) / 4, atol=1e-15)


def test_werner_marginals_maximally_mixed():
    for p in (0.0, 0.25, 0.7, 1.0):
        rho = werner(p)
        np.testing.assert_allclose(rho.reduced_a(), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(rho.reduced_b(), np.eye(2) / 2, atol=1e-12)


def test_werner_parameter_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        werner(1.2)


def test_bell_diagonal_special_correlation_vector():
    # the family sits at r = (1-2p, -p, -p)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 1.0):
        rho = bell_diagonal_special(p)
        r = [np.trace(rho.mat @ tensor(s, s)).real for s in PAULIS]
        np.testing.assert_allclose(r, [1 - 2 * p, -p, -p], atol=1e-12)


def test_bell_diagonal_correlation_readout_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = random_bell_diagonal_r(rng)
        rho = bell_diagonal(r)
        readout = [np.trace(rho.mat @ tensor(s, s)).real for s in PAULIS]
        np.testing.assert_allclose(readout, r, atol=1e-12)
        np.testing.assert_allclose(rho.reduced_a(), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(rho.reduced_b(), np.eye(2) / 2, atol=1e-12)


def test_bell_diagonal_outside_tetrahedron_fails_psd():
    # r = (1,1,1) has the eigenvalue (1-1-1-1)/4 = -1/2
    message = r"vector \(1.0, 1.0, 1.0\) lies outside the Bell-diagonal tetrahedron"
    with pytest.raises(StateValidationError, match=message) as err:
        bell_diagonal((1.0, 1.0, 1.0))
    assert err.value.invariant == "psd"
    assert abs(err.value.residual - 0.5) <= 1e-12


def test_x_state_special_limits():
    np.testing.assert_allclose(x_state_special(1.0).mat, np.outer(KET_PSI_PLUS, KET_PSI_PLUS.conj()), atol=1e-15)
    assert np.trace(x_state_special(1.0).mat @ x_state_special(1.0).mat).real == pytest.approx(1.0, abs=1e-12)
    ket11 = np.zeros(4)
    ket11[3] = 1.0
    np.testing.assert_allclose(x_state_special(0.0).mat, np.outer(ket11, ket11), atol=1e-15)


def test_pure_schmidt_is_pure():
    rng = np.random.default_rng(9)
    for _ in range(10):
        lam = random_schmidt_coeffs(rng)
        rho = pure_schmidt(lam)
        assert np.trace(rho.mat @ rho.mat).real == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(rho.reduced_b())), np.sort(lam), atol=1e-12)


def test_pure_schmidt_sum_enforced():
    with pytest.raises(StateValidationError, match="sum to 1"):
        pure_schmidt([0.6, 0.3])
    # A NaN coefficient fails the sum check, not the matrix's finite check.
    with pytest.raises(StateValidationError, match=r"sum to 1 within 1e-12 \(got nan\)"):
        pure_schmidt([float("nan"), 1.0])


def test_validate_passes_maximally_mixed():
    report = validate(np.eye(4) / 4, 2, 2)
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_validate_reports_trace_failure_with_residual():
    report = validate(1.5 * np.eye(4) / 4, 2, 2)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert not by_name["trace"].passed
    assert by_name["trace"].residual == pytest.approx(0.5, abs=1e-12)


def test_validate_residuals_of_exact_states_are_positive_zero():
    # A zero lowest eigenvalue gives a psd residual of 0.0, never -0.0, which
    # JSON output would print as "-0.0".
    for rho in (werner(1.0), x_state_special(0.0), x_state_special(0.7)):
        for check in validate(rho.mat, 2, 2).checks:
            assert check.residual >= 0.0 and np.copysign(1.0, check.residual) == 1.0


def test_validate_reports_psd_failure():
    mat = np.diag([1.5, -0.5, 0.0, 0.0])
    report = validate(mat, 2, 2)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["psd"].passed
    assert by_name["psd"].residual == pytest.approx(0.5, abs=1e-12)


def test_density_matrix_constructor_names_violation():
    with pytest.raises(StateValidationError) as err:
        DensityMatrix(np.eye(4), 2, 2)
    assert err.value.invariant == "trace"


def test_density_matrix_shape_checked():
    with pytest.raises(StateValidationError) as err:
        DensityMatrix(np.eye(4) / 4, 2, 3)
    assert err.value.invariant == "shape"


def test_from_spec_families():
    rho = from_spec({"family": {"name": "werner", "p": 0.5}})
    np.testing.assert_allclose(rho.mat, werner(0.5).mat, atol=1e-15)
    rho = from_spec({"family": {"name": "bell_diagonal", "r": [0.5, -0.2, 0.1]}})
    np.testing.assert_allclose(rho.mat, bell_diagonal([0.5, -0.2, 0.1]).mat, atol=1e-15)
    rho = from_spec({"family": {"name": "pure_schmidt", "lambdas": [0.75, 0.25]}})
    assert np.trace(rho.mat @ rho.mat).real == pytest.approx(1.0, abs=1e-10)


def test_from_spec_explicit_and_roundtrip():
    rho = bell_diagonal_special(0.4)
    doc = to_spec(rho)
    again = from_spec(doc)
    assert np.max(np.abs(again.mat - rho.mat)) <= 1e-12
    assert (again.dA, again.dB) == (2, 2)


def test_from_spec_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown state family"):
        from_spec({"family": {"name": "ghz"}})


def test_from_spec_rejects_missing_params():
    with pytest.raises(ValueError, match="missing parameter"):
        from_spec({"family": {"name": "werner"}})


def test_maximally_mixed_helper():
    rho = maximally_mixed()
    assert rho.mat.shape == (4, 4)
    assert np.trace(rho.mat).real == pytest.approx(1.0)


def test_validate_reports_non_finite_entries():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = np.nan
    mat[2, 2] = np.inf
    report = validate(mat, 2, 2)
    assert [c.name for c in report.checks] == ["shape", "finite"]
    assert not report.passed
    assert report.checks[1].residual == 2.0
    with pytest.raises(StateValidationError) as err:
        DensityMatrix(mat, 2, 2)
    assert err.value.invariant == "finite"
