"""Observable construction, overlaps, incompatibility, and ensembles."""

import re

import numpy as np
import pytest

from eurmem.matops import I2, SIGMA_Y, projector, tensor
from eurmem.measure import (
    ZERO_PROB,
    incompatibility,
    observable_from_basis,
    observable_from_bloch,
    observable_from_spec,
    outcome_ensemble,
    overlaps,
    pauli_observable,
    post_measurement_state,
    q_mu,
    q_prime,
)
from eurmem.states import DensityMatrix, pure_schmidt, pure_state, werner

from helpers import (
    random_density_matrix,
    random_mub_pair,
    random_observable,
    random_schmidt_coeffs,
)


def _projectors(obs):
    return [obs.projector(i) for i in range(obs.d)]


def test_bloch_z_gives_computational_basis():
    obs = observable_from_bloch((0.0, 0.0, 1.0))
    p0, p1 = _projectors(obs)
    np.testing.assert_allclose(p0, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(p1, np.diag([0.0, 1.0]), atol=1e-12)


def test_bloch_x_gives_hadamard_basis():
    obs = observable_from_bloch((1.0, 0.0, 0.0))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(obs.projector(0), projector(plus), atol=1e-12)
    np.testing.assert_allclose(obs.projector(1), projector(minus), atol=1e-12)


def test_bloch_y_matches_sigma_y_eigenprojectors():
    obs = observable_from_bloch((0.0, 1.0, 0.0))
    np.testing.assert_allclose(obs.projector(0), (I2 + SIGMA_Y) / 2, atol=1e-12)
    np.testing.assert_allclose(obs.projector(1), (I2 - SIGMA_Y) / 2, atol=1e-12)


def test_bloch_rejects_non_unit_vector():
    with pytest.raises(ValueError, match="unit vector"):
        observable_from_bloch((0.0, 0.0, 0.9))


def test_tolerance_checks_reject_nan():
    with pytest.raises(ValueError, match=re.escape("unit vector, |n| = nan")):
        observable_from_bloch((np.nan, 0.0, 1.0))
    with pytest.raises(ValueError, match=re.escape("not orthonormal: max |Gram - I| = nan")):
        observable_from_basis(np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_projectors_match_bloch_formula():
    # (I +- n.sigma)/2 for a generic direction
    rng = np.random.default_rng(3)
    from eurmem.matops import PAULIS

    for _ in range(5):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        obs = observable_from_bloch(n)
        ndots = sum(ni * s for ni, s in zip(n, PAULIS))
        np.testing.assert_allclose(obs.projector(0), (I2 + ndots) / 2, atol=1e-12)
        np.testing.assert_allclose(obs.projector(1), (I2 - ndots) / 2, atol=1e-12)


def test_orthonormality_enforced():
    with pytest.raises(ValueError, match="orthonormal"):
        observable_from_basis(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_one_outcome_basis_is_rejected():
    with pytest.raises(ValueError, match="at least two outcomes"):
        observable_from_basis(np.array([[1.0]]))


def test_overlap_identity_for_equal_bases():
    x = pauli_observable("x")
    np.testing.assert_allclose(overlaps(x.basis, x.basis), np.eye(2), atol=1e-12)


def test_overlap_mub_pair_is_uniform():
    c = overlaps(pauli_observable("x").basis, pauli_observable("z").basis)
    np.testing.assert_allclose(c, np.full((2, 2), 0.5), atol=1e-12)


def test_overlap_at_bloch_angle():
    theta = np.pi / 3
    tilted = observable_from_bloch((np.sin(theta), 0.0, np.cos(theta)))
    c = overlaps(pauli_observable("z").basis, tilted.basis)
    cs, sn = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
    np.testing.assert_allclose(c, [[cs, sn], [sn, cs]], atol=1e-12)


def test_overlap_doubly_stochastic_random_bases():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4):
        for _ in range(5):
            c = overlaps(random_observable(rng, d).basis, random_observable(rng, d).basis)
            np.testing.assert_allclose(c.sum(axis=0), np.ones(d), atol=1e-10)
            np.testing.assert_allclose(c.sum(axis=1), np.ones(d), atol=1e-10)


def test_q_mu_values():
    assert q_mu(pauli_observable("x"), pauli_observable("z")) == pytest.approx(1.0, abs=1e-12)
    assert q_mu(pauli_observable("y"), pauli_observable("y")) == pytest.approx(0.0, abs=1e-12)
    theta = np.pi / 3
    tilted = observable_from_bloch((np.sin(theta), 0.0, np.cos(theta)))
    assert q_mu(pauli_observable("z"), tilted) == pytest.approx(np.log2(4.0 / 3.0), abs=1e-12)


def test_q_mu_exact_for_mub_and_capped_at_log_d():
    # The overlaps of exact MUBs round to just below 1/d; q_mu must not pass log2 d.
    for a, b in ("xz", "zx", "xy", "yz"):
        x, z = pauli_observable(a), pauli_observable(b)
        assert incompatibility(overlaps(x.basis, z.basis)) == (1.0, 1.0)
    rng = np.random.default_rng(37)
    for _ in range(20):
        assert q_mu(*random_mub_pair(rng)) <= 1.0
    for d in (2, 3, 4):
        for _ in range(10):
            x, z = random_observable(rng, d), random_observable(rng, d)
            assert 0.0 <= q_mu(x, z) <= np.log2(d)
            assert q_prime(x, z) >= q_mu(x, z)


def test_q_prime_equals_q_mu_for_qubits():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, z = random_observable(rng), random_observable(rng)
        assert q_prime(x, z) == pytest.approx(q_mu(x, z), abs=1e-12)


def test_q_prime_zero_for_equal_bases():
    z = pauli_observable("z")
    assert q_prime(z, z) == pytest.approx(0.0, abs=1e-12)


def test_q_prime_second_overlap_formula():
    # c = 0.5, c2 = 0.25 -> 1 + (1 - sqrt(0.5))/2 * log2(2) ~= 1.14645
    c = np.array([[0.5, 0.25], [0.15, 0.1]])
    expected = 1.0 + 0.5 * (1.0 - np.sqrt(0.5)) * 1.0
    assert incompatibility(c) == pytest.approx((1.0, expected), abs=1e-12)
    assert expected == pytest.approx(1.1464466094067263, abs=1e-12)


def test_q_prime_counts_duplicate_maxima():
    # the maximum attained twice means c2 = c and the correction vanishes
    c = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    assert incompatibility(c) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_q_prime_exceeds_q_mu_in_higher_dimension():
    rng = np.random.default_rng(41)
    for _ in range(10):
        x, z = random_observable(rng, 3), random_observable(rng, 3)
        assert q_prime(x, z) >= q_mu(x, z) - 1e-12


def test_post_measurement_product_state_unchanged():
    rng = np.random.default_rng(43)
    from helpers import random_single_qubit_density

    rho_b = random_single_qubit_density(rng)
    rho = DensityMatrix(tensor(projector([1.0, 0.0]), rho_b), 2, 2)
    out = post_measurement_state(rho, pauli_observable("z"))
    np.testing.assert_allclose(out.mat, rho.mat, atol=1e-12)


def test_post_measurement_singlet_sigma_z():
    singlet = werner(1.0)
    out = post_measurement_state(singlet, pauli_observable("z"))
    expected = 0.5 * tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) + 0.5 * tensor(
        np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
    )
    np.testing.assert_allclose(out.mat, expected, atol=1e-12)


def test_post_measurement_idempotent_and_trace_preserving():
    rng = np.random.default_rng(47)
    for _ in range(10):
        rho = random_density_matrix(rng)
        obs = random_observable(rng)
        once = post_measurement_state(rho, obs)
        twice = post_measurement_state(once, obs)
        np.testing.assert_allclose(once.mat, twice.mat, atol=1e-12)
        assert np.trace(once.mat).real == pytest.approx(1.0, abs=1e-12)


def test_outcome_ensemble_werner_probs_half():
    rng = np.random.default_rng(53)
    for p in (0.0, 0.5, 1.0):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        ens = outcome_ensemble(werner(p), observable_from_bloch(n))
        np.testing.assert_allclose(ens.probs, [0.5, 0.5], atol=1e-12)


def test_outcome_ensemble_pure_schmidt_conditionals_pure():
    rng = np.random.default_rng(59)
    rho = pure_schmidt(random_schmidt_coeffs(rng))
    ens = outcome_ensemble(rho, random_observable(rng))
    for p, state, ok in zip(ens.probs, ens.cond_states, ens.effective):
        if ok:
            purity = np.trace(state @ state).real
            assert purity == pytest.approx(1.0, abs=1e-9)


def test_outcome_ensemble_zero_probability_placeholder():
    ket11 = np.zeros(4)
    ket11[3] = 1.0
    rho = pure_state(ket11, 2, 2)
    ens = outcome_ensemble(rho, pauli_observable("z"))
    np.testing.assert_allclose(ens.probs, [0.0, 1.0], atol=1e-14)
    assert ens.effective == (False, True)
    np.testing.assert_allclose(ens.cond_states[0], np.eye(2) / 2)  # placeholder
    np.testing.assert_allclose(ens.cond_states[1], np.diag([0.0, 1.0]), atol=1e-12)
    assert ens.probs[0] < ZERO_PROB


def test_outcome_ensemble_probs_sum_to_one():
    rng = np.random.default_rng(67)
    for _ in range(20):
        ens = outcome_ensemble(random_density_matrix(rng), random_observable(rng))
        assert abs(ens.probs.sum() - 1.0) <= 1e-10


def test_observable_completeness():
    rng = np.random.default_rng(71)
    for d in (2, 3):
        for _ in range(5):
            obs = random_observable(rng, d)
            total = sum(obs.projector(i) for i in range(d))
            np.testing.assert_allclose(total, np.eye(d), atol=1e-10)


def test_dimension_mismatch_raises():
    rho = werner(0.5)
    three = random_observable(np.random.default_rng(61), 3)
    with pytest.raises(ValueError, match="does not match dA"):
        outcome_ensemble(rho, three)
    with pytest.raises(ValueError, match="different dimensions"):
        q_mu(pauli_observable("x"), three)
    with pytest.raises(ValueError, match="different dimensions"):
        q_prime(three, pauli_observable("x"))


def test_observable_from_spec_forms():
    named = observable_from_spec({"named": "sigma_y"})
    assert named.label() == "sigma_y"
    bloch = observable_from_spec({"bloch": [0.0, 0.0, 1.0]})
    np.testing.assert_allclose(bloch.projector(0), np.diag([1.0, 0.0]), atol=1e-12)
    basis = observable_from_spec(
        {"basis": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}
    )
    np.testing.assert_allclose(basis.basis, np.eye(2))
    with pytest.raises(ValueError):
        observable_from_spec({"named": "sigma_w"})
