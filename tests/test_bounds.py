"""Bound values, ordering, closed-form oracles, and exact identities."""

import numpy as np
import pytest

from eurmem.bounds import (
    actual_uncertainty,
    bounds_report,
    closed_form_curves,
    family_pair_observables,
    family_pairs,
)
from eurmem.cli import _sweep_grid
from eurmem.infoquant import (
    binary_entropy,
    classical_correlation,
    conditional_entropy,
    holevo,
    shannon_entropy,
    von_neumann_entropy,
)
from eurmem.measure import (
    observable_from_bloch,
    outcome_ensemble,
    pauli_observable,
    post_measurement_state,
    q_mu,
)
from eurmem.states import (
    bell_diagonal,
    bell_diagonal_special,
    maximally_mixed,
    pure_schmidt,
    pure_state,
    werner,
    x_state_special,
)

from helpers import (
    random_bell_diagonal,
    random_bell_diagonal_r,
    random_density_matrix,
    random_mub_pair,
    random_schmidt_coeffs,
)

X = pauli_observable("x")
Y = pauli_observable("y")
Z = pauli_observable("z")


def test_actual_uncertainty_examples():
    assert actual_uncertainty(werner(1.0), X, Z) == pytest.approx(0.0, abs=1e-9)
    assert actual_uncertainty(maximally_mixed(), X, Z) == pytest.approx(2.0, abs=1e-9)
    ket11 = np.zeros(4)
    ket11[3] = 1.0
    assert actual_uncertainty(pure_state(ket11, 2, 2), X, Z) == pytest.approx(1.0, abs=1e-9)


def test_actual_uncertainty_terms_nonnegative():
    # classical-quantum states have nonnegative conditional entropy
    from eurmem.infoquant import conditional_entropy
    from eurmem.measure import post_measurement_state

    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density_matrix(rng)
        for obs in random_mub_pair(rng):
            assert conditional_entropy(post_measurement_state(rho, obs)) >= -1e-9


def test_bound_maassen_uffink_is_q_mu():
    assert q_mu(X, Z) == pytest.approx(1.0, abs=1e-12)
    assert q_mu(Z, Z) == pytest.approx(0.0, abs=1e-12)
    theta = np.pi / 3
    tilted = observable_from_bloch((np.sin(theta), 0.0, np.cos(theta)))
    assert q_mu(Z, tilted) == pytest.approx(np.log2(4 / 3), abs=1e-12)


def test_bound_mu_mixed_examples():
    ket11 = np.zeros(4)
    ket11[3] = 1.0
    pure = pure_state(ket11, 2, 2)
    assert bounds_report(pure, X, Z).bound_mu_mixed == pytest.approx(1.0, abs=1e-9)
    assert bounds_report(werner(0.3), X, Z).bound_mu_mixed == pytest.approx(2.0, abs=1e-9)
    assert bounds_report(x_state_special(0.5), X, Z).bound_mu_mixed == pytest.approx(
        1.0 + binary_entropy(0.25), abs=1e-9
    )


def test_bound_berta_examples():
    assert bounds_report(werner(1.0), X, Z).bound_berta == pytest.approx(0.0, abs=1e-9)
    for p in (0.0, 0.3, 0.8, 1.0):
        expected = binary_entropy(p) + (1.0 - p)  # -p log p - (1-p) log((1-p)/2)
        rho = bell_diagonal_special(p)
        assert bounds_report(rho, X, Z).bound_berta == pytest.approx(expected, abs=1e-9)
        assert bounds_report(rho, X, Y).bound_berta == pytest.approx(expected, abs=1e-9)
    rho = bell_diagonal_special(0.0)
    assert bounds_report(rho, X, Z).bound_berta == pytest.approx(1.0, abs=1e-9)


def test_bound_coles_piani_equals_berta_for_qubits():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rho = random_density_matrix(rng)
        x, z = random_mub_pair(rng)
        rep = bounds_report(rho, x, z)
        assert rep.bound_coles_piani == pytest.approx(rep.bound_berta, abs=1e-9)


def test_bound_coles_piani_equal_bases_product():
    rng = np.random.default_rng(11)
    from helpers import random_product_state

    rho = random_product_state(rng)
    s_a = von_neumann_entropy(rho.reduced_a())
    assert bounds_report(rho, Z, Z).bound_coles_piani == pytest.approx(s_a, abs=1e-9)


def test_bound_pati_werner_equals_ours():
    for p in (0.1, 0.5, 0.9):
        rho = werner(p)
        rep = bounds_report(rho, X, Z, classical_correlation(rho))
        assert rep.bound_pati == pytest.approx(rep.bound_ours, abs=1e-6)


def test_bound_pati_pure_state_equals_berta():
    rng = np.random.default_rng(13)
    rho = pure_schmidt(random_schmidt_coeffs(rng))
    rep = bounds_report(rho, X, Z, classical_correlation(rho))
    assert rep.bound_pati == pytest.approx(rep.bound_berta, abs=1e-6)


def test_bound_pati_bell_diagonal_special_display():
    # berta + max{0, 2 + p log p + (1-p) log((1-p)/2) - 2 max[1-h(p), 1-h((1+p)/2)]}
    h = binary_entropy
    for p in (0.0, 0.2, 0.5, 0.8, 1.0):
        rho = bell_diagonal_special(p)
        corr = classical_correlation(rho)
        s_ab = h(p) + (1.0 - p)
        display = s_ab + max(0.0, 2.0 - s_ab - 2.0 * max(1 - h(p), 1 - h((1 + p) / 2)))
        xx, zz = family_pair_observables("bell_diagonal_special", p, "xz")
        assert bounds_report(rho, xx, zz, corr).bound_pati == pytest.approx(display, abs=1e-6)


def test_bound_ours_pure_schmidt_coincides_with_berta():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = pure_schmidt(random_schmidt_coeffs(rng))
        x, z = random_mub_pair(rng)
        rep = bounds_report(rho, x, z)
        assert abs(rep.bound_ours - rep.bound_berta) <= 1e-12


def test_bound_ours_bell_diagonal_special_xy_closed_form():
    # delta-consistent value: berta + max{0, I(A;B) - max{a,b} - b} with
    # a = 1-h(p), b = 1-h((1+p)/2)
    h = binary_entropy
    for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 0.9, 1.0):
        rho = bell_diagonal_special(p)
        a, b = 1 - h(p), 1 - h((1 + p) / 2)
        s_ab = h(p) + (1.0 - p)
        expected = s_ab + max(0.0, (2.0 - s_ab) - max(a, b) - b)
        xx, yy = family_pair_observables("bell_diagonal_special", p, "xy")
        assert bounds_report(rho, xx, yy).bound_ours == pytest.approx(expected, abs=1e-9)


def test_bound_ours_tight_for_bell_diagonal_mub():
    rng = np.random.default_rng(19)
    for _ in range(20):
        rho = random_bell_diagonal(rng)
        expected = actual_uncertainty(rho, X, Z)
        assert bounds_report(rho, X, Z).bound_ours == pytest.approx(expected, abs=1e-9)


def test_ordering_chain_random_states():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        rho = random_density_matrix(rng)
        x, z = random_mub_pair(rng)
        rep = bounds_report(rho, x, z)
        assert rep.actual >= rep.bound_ours - 1e-9
        assert rep.bound_ours >= rep.bound_berta - 1e-12
        assert rep.bound_coles_piani == pytest.approx(rep.bound_berta, abs=1e-9)


def test_decomposition_identity():
    # actual = H(X) + H(Z) - S(A) + S(A|B) + delta, exactly; actual is taken
    # from the classical-quantum states, since the report derives its own
    # actual from the same Holevo terms as delta.
    rng = np.random.default_rng(29)
    from helpers import random_projective_pair

    for _ in range(50):
        rho = random_density_matrix(rng)
        x, z = random_projective_pair(rng)
        rep = bounds_report(rho, x, z)
        actual_cq = conditional_entropy(post_measurement_state(rho, x)) + conditional_entropy(
            post_measurement_state(rho, z)
        )
        h_x = shannon_entropy(outcome_ensemble(rho, x).probs)
        h_z = shannon_entropy(outcome_ensemble(rho, z).probs)
        s_a = von_neumann_entropy(rho.reduced_a())
        assert actual_cq == pytest.approx(h_x + h_z - s_a + rep.s_cond + rep.delta, abs=1e-9)
        assert rep.actual == pytest.approx(actual_cq, abs=1e-12)


def test_bounds_report_optional_pati_fields():
    rho = werner(0.5)
    rep = bounds_report(rho, X, Z)
    assert rep.bound_pati is None and rep.pati_correction is None
    corr = classical_correlation(rho)
    rep = bounds_report(rho, X, Z, corr)
    assert rep.pati_correction == pytest.approx(
        max(0.0, corr.discord - corr.classical_correlation), abs=1e-12
    )
    assert rep.bound_pati == pytest.approx(rep.bound_berta + rep.pati_correction, abs=1e-12)


def test_second_holevo_never_exceeds_classical_correlation_bell_diagonal():
    # with X the |r|-maximizing axis and Z complementary, I(Z;B) <= J_A
    rng = np.random.default_rng(31)
    from helpers import HADAMARD
    from eurmem.measure import observable_from_basis

    axes = "xyz"
    for _ in range(30):
        r = random_bell_diagonal_r(rng)
        rho = bell_diagonal(r)
        corr = classical_correlation(rho)
        best = pauli_observable(axes[int(np.argmax(np.abs(r)))])
        partner = observable_from_basis(best.basis @ HADAMARD)
        assert holevo(rho, partner) <= corr.classical_correlation + 1e-9


def test_closed_form_endpoints():
    cf = closed_form_curves("bell_diagonal_special", 1.0, "xz")
    assert cf.ours == pytest.approx(0.0, abs=1e-12)
    cf = closed_form_curves("bell_diagonal_special", 0.0, "xz")
    assert cf.ours == pytest.approx(1.0, abs=1e-12)
    assert cf.berta == pytest.approx(1.0, abs=1e-12)
    cf = closed_form_curves("xstate", 1.0, "xz")
    assert cf.ours == pytest.approx(0.0, abs=1e-12)
    assert cf.berta == pytest.approx(0.0, abs=1e-12)


def test_closed_form_validation():
    with pytest.raises(ValueError, match="no closed forms"):
        closed_form_curves("werner", 0.5, "xz")
    with pytest.raises(ValueError, match="pair"):
        closed_form_curves("xstate", 0.5, "yz")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        closed_form_curves("xstate", 1.5, "xz")


def test_oracle_equivalence_spot_checks():
    # full 0.01-step comparison lives in the acceptance suite
    for family, builder in (
        ("bell_diagonal_special", bell_diagonal_special),
        ("xstate", x_state_special),
    ):
        for pair in ("xy", "xz"):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                rho = builder(p)
                x, z = family_pair_observables(family, p, pair)
                corr = classical_correlation(rho)
                rep = bounds_report(rho, x, z, corr)
                cf = closed_form_curves(family, p, pair)
                assert rep.bound_berta == pytest.approx(cf.berta, abs=1e-9)
                assert rep.bound_pati == pytest.approx(cf.pati, abs=1e-9)
                assert rep.bound_ours == pytest.approx(cf.ours, abs=1e-9)


def test_family_pair_observables_sorted_axes():
    # below p = 1/3 the literal axes already sort correctly
    x, y = family_pair_observables("bell_diagonal_special", 0.2, "xy")
    assert (x.label(), y.label()) == ("sigma_x", "sigma_y")
    # above p = 1/3 the y and z axes carry the largest |r|
    x, y = family_pair_observables("bell_diagonal_special", 0.8, "xy")
    assert (x.label(), y.label()) == ("sigma_y", "sigma_z")
    x, z = family_pair_observables("bell_diagonal_special", 0.8, "xz")
    assert (x.label(), z.label()) == ("sigma_y", "sigma_x")
    x, z = family_pair_observables("xstate", 0.8, "xz")
    assert (x.label(), z.label()) == ("sigma_x", "sigma_z")


def test_family_pair_observables_matches_the_stable_argsort_rule():
    ps = list(np.linspace(0.0, 1.0, 1001)) + [1.0 / 3.0]
    ps += [np.nextafter(1.0 / 3.0, 0.0), np.nextafter(1.0 / 3.0, 1.0)]
    for p in ps:
        order = np.argsort(-np.abs(np.array([1.0 - 2.0 * p, -p, -p])), kind="stable")
        want = {"xy": order[[0, 1]], "xz": order[[0, 2]]}
        for pair, axes in want.items():
            got = family_pair_observables("bell_diagonal_special", p, pair)
            assert [obs.label() for obs in got] == [f"sigma_{'xyz'[k]}" for k in axes], (p, pair)


def _sorted_axes_rule(family, p, pair):
    """The rule of one p as first written: Python's stable sort of the axes
    by -|r_i|."""
    if family == "xstate":
        return "x", "y" if pair == "xy" else "z"
    r = {"x": 1.0 - 2.0 * p, "y": -p, "z": -p}
    order = sorted(r, key=lambda axis: -abs(r[axis]))
    return order[0], order[1 if pair == "xy" else 2]


@pytest.mark.parametrize("family", ["bell_diagonal_special", "xstate"])
def test_family_pairs_of_a_block_follow_the_one_p_rule(family):
    third = 1.0 / 3.0
    ps = _sweep_grid(0.0, 1.0, 0.01) + [0.0, 1.0, np.nextafter(third, 0.0), third, np.nextafter(third, 1.0)]
    for pair in ("xy", "xz"):
        xs, zs = family_pairs(family, ps, pair)
        assert len(xs) == len(zs) == len(ps)
        assert len(set(zip(xs, zs))) <= 2
        for p, x, z in zip(ps, xs, zs):
            assert (x, z) == family_pair_observables(family, p, pair), (p, pair)
            want = [pauli_observable(axis) for axis in _sorted_axes_rule(family, p, pair)]
            assert [x, z] == want, (p, pair)
