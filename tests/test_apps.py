"""Witness, Helstrom error, Fano term, and application-bound tests."""

import numpy as np
import pytest

from eurmem.apps import applications_report, helstrom_error, witness
from eurmem.bounds import bounds_report
from eurmem.infoquant import binary_entropy, von_neumann_entropy
from eurmem.measure import (
    observable_from_basis,
    outcome_ensemble,
    pauli_observable,
)
from eurmem.states import Row, maximally_mixed, pure_schmidt, pure_state, werner

from helpers import (
    conditional_blocks,
    random_density_matrix,
    random_mub_pair,
    random_observable,
    random_product_state,
)

X = pauli_observable("x")
Z = pauli_observable("z")


def _ket11_state():
    ket11 = np.zeros(4)
    ket11[3] = 1.0
    return pure_state(ket11, 2, 2)


def test_witness_singlet_fires_both():
    verdict = witness(werner(1.0), X, Z)
    assert verdict.entangled_by_berta and verdict.entangled_by_ours
    assert verdict.margin_berta == pytest.approx(1.0, abs=1e-9)


def test_witness_product_states_never_fire():
    rng = np.random.default_rng(3)
    for _ in range(100):
        verdict = witness(random_product_state(rng), X, Z)
        assert not verdict.entangled_by_berta
        assert not verdict.entangled_by_ours


def test_witness_werner_high_p_fires():
    verdict = witness(werner(0.8), X, Z)
    assert verdict.entangled_by_ours
    assert verdict.margin_ours > verdict.margin_berta - 1e-12


def test_witness_monotone_berta_implies_ours():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho = random_density_matrix(rng)
        x, z = random_mub_pair(rng)
        verdict = witness(rho, x, z)
        assert (not verdict.entangled_by_berta) or verdict.entangled_by_ours


def test_helstrom_orthogonal_states_perfectly_distinguishable():
    ens = Row(
        probs=np.array([0.5, 0.5]),
        cond_states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        effective=(True, True),
    )
    assert helstrom_error(ens) == pytest.approx(0.0, abs=1e-12)


def test_helstrom_identical_states_prior_guessing():
    for p0 in (0.5, 0.3, 0.05):
        ens = Row(
            probs=np.array([p0, 1.0 - p0]),
            cond_states=(np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2),
            effective=(True, True),
        )
        assert helstrom_error(ens) == pytest.approx(min(p0, 1.0 - p0), abs=1e-12)


def test_helstrom_singlet_sigma_z_zero_error():
    ens = outcome_ensemble(werner(1.0), Z)
    assert helstrom_error(ens) == pytest.approx(0.0, abs=1e-9)


def test_helstrom_never_worse_than_prior_guessing():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = random_density_matrix(rng)
        ens = outcome_ensemble(rho, pauli_observable("x"))
        pe = helstrom_error(ens)
        assert pe <= min(ens.probs) + 1e-12
        assert 0.0 <= pe <= 0.5


def test_helstrom_rejects_more_outcomes():
    rho333 = maximally_mixed(3, 3)
    from helpers import random_observable

    obs = random_observable(np.random.default_rng(9), 3)
    ens = outcome_ensemble(rho333, obs)
    with pytest.raises(ValueError, match="exactly 2 outcomes"):
        helstrom_error(ens)


def test_fano_term_values():
    # b_F = h(Pe_X) + h(Pe_Z) for two-outcome measurements.
    assert binary_entropy(0.0) + binary_entropy(0.0) == pytest.approx(0.0, abs=1e-15)
    assert binary_entropy(0.5) + binary_entropy(0.5) == pytest.approx(2.0, abs=1e-12)
    expected = binary_entropy(0.1) + binary_entropy(0.2)
    assert expected == pytest.approx(1.1909236884766435, abs=1e-10)


def test_eof_lower_bound_singlet():
    eof = applications_report(werner(1.0), X, Z)["eof_lower_bound"]
    assert eof == pytest.approx(1.0, abs=1e-9)


def test_eof_lower_bound_vacuous_cases():
    rng = np.random.default_rng(11)
    assert applications_report(random_product_state(rng), X, Z)["eof_lower_bound"] < 1e-9
    eof = applications_report(maximally_mixed(), X, Z)["eof_lower_bound"]
    assert eof == pytest.approx(-1.0, abs=1e-9)


def test_common_randomness_upper_bound_values():
    for rho, expected in ((werner(1.0), 0.0), (maximally_mixed(), 2.0), (_ket11_state(), 0.0)):
        crand = applications_report(rho, X, Z)["crand_upper_bound"]
        assert crand == pytest.approx(expected, abs=1e-9)


def test_koashi_winter_complementarity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        rho = random_density_matrix(rng)
        x, z = random_mub_pair(rng)
        report = applications_report(rho, x, z)
        eof, crand = report["eof_lower_bound"], report["crand_upper_bound"]
        s_b = von_neumann_entropy(rho.reduced_b())
        assert eof + crand == pytest.approx(s_b, abs=1e-12)


def test_applications_report_fields():
    report = applications_report(werner(1.0), X, Z)
    assert report["entangled_by_berta"] and report["entangled_by_ours"]
    assert report["eof_lower_bound"] == pytest.approx(1.0, abs=1e-9)
    assert report["crand_upper_bound"] == pytest.approx(0.0, abs=1e-9)
    assert not report["eof_vacuous"]
    report = applications_report(maximally_mixed(), X, Z)
    assert report["eof_vacuous"]
    report = applications_report(_ket11_state(), X, Z)
    assert not report["entangled_by_berta"] and not report["entangled_by_ours"]


def _ensemble_by_projectors(rho, obs):
    blocks = conditional_blocks(rho, obs)
    probs = np.array([np.trace(b).real for b in blocks])
    return Row(probs=probs, cond_states=tuple(b / p for b, p in zip(blocks, probs)), effective=(True, True))


def test_application_bounds_match_per_ensemble_helstrom():
    # The report takes the Helstrom errors from omega_0 - omega_1 of its
    # evaluation pass; here they come from explicitly built ensembles.
    rng = np.random.default_rng(17)
    for dB in (2, 3, 4):
        for _ in range(5):
            rho = random_density_matrix(rng, dB=dB)
            x, z = random_observable(rng), random_observable(rng)
            pe_x = helstrom_error(_ensemble_by_projectors(rho, x))
            pe_z = helstrom_error(_ensemble_by_projectors(rho, z))
            rep = bounds_report(rho, x, z)
            b_f = binary_entropy(pe_x) + binary_entropy(pe_z)
            eof = rep.q_mu + max(0.0, rep.delta) - b_f
            s_b = von_neumann_entropy(rho.reduced_b())
            report = applications_report(rho, x, z)
            assert report["eof_lower_bound"] == pytest.approx(eof, abs=1e-12)
            assert report["crand_upper_bound"] == pytest.approx(s_b - eof, abs=1e-12)
            assert report["s_b"] == pytest.approx(s_b, abs=1e-12)


def test_applications_reject_qutrit_a_at_entry():
    rho = pure_schmidt([0.5, 0.3, 0.2])
    x = observable_from_basis(np.eye(3))
    z = random_observable(np.random.default_rng(23), 3)
    with pytest.raises(ValueError, match="applications_report supports dA = 2 only"):
        applications_report(rho, x, z)
    # The witness needs no Helstrom error, so it keeps working on a qutrit.
    assert witness(rho, x, z).entangled_by_berta
