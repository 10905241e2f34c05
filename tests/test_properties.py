"""Bound orderings on boundary states, and hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eurmem.apps import WITNESS_MARGIN, applications_report
from eurmem.bounds import bounds_report, family_pair_observables
from eurmem.states import DensityMatrix, bell_diagonal_special, x_state_special

from helpers import random_density_matrix, random_observable, random_unitary

ORDER_EPS = 1e-12
# Derandomized so that the suite draws the same examples on every run.
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)


@pytest.mark.parametrize(
    "family,builder",
    [("bell_diagonal_special", bell_diagonal_special), ("xstate", x_state_special)],
)
@pytest.mark.parametrize("pair", ["xy", "xz"])
@pytest.mark.parametrize("p", [0.0, 1e-13, 0.5, 1.0 - 1e-13, 1.0])
def test_bound_ordering_on_boundary_states(family, builder, pair, p):
    x, z = family_pair_observables(family, p, pair)
    rep = bounds_report(builder(p), x, z)
    assert rep.bound_berta <= rep.bound_ours <= rep.actual + ORDER_EPS


# A random state: seed, subsystem dimensions and rank (1 up to full).
states = st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([2, 3, 4]), st.floats(0, 1)
)


def _draw(seed, dA, dB, rank_frac):
    rng = np.random.default_rng(seed)
    rank = 1 + int(rank_frac * (dA * dB - 1))
    return rng, random_density_matrix(rng, dA, dB, rank)


@PROPERTY_SETTINGS
@given(states)
def test_bound_ordering_property(state):
    rng, rho = _draw(*state)
    x, z = random_observable(rng, rho.dA), random_observable(rng, rho.dA)
    rep = bounds_report(rho, x, z)
    assert rep.bound_berta <= rep.bound_ours <= rep.actual + ORDER_EPS
    assert rep.bound_berta <= rep.bound_coles_piani + ORDER_EPS


@PROPERTY_SETTINGS
@given(states)
def test_koashi_winter_property(state):
    seed, _, dB, rank_frac = state
    rng, rho = _draw(seed, 2, dB, rank_frac)
    report = applications_report(rho, random_observable(rng), random_observable(rng))
    assert report["eof_lower_bound"] + report["crand_upper_bound"] == pytest.approx(
        report["s_b"], abs=1e-12
    )


@PROPERTY_SETTINGS
@given(states)
def test_reports_invariant_under_local_unitary_on_b(state):
    seed, _, dB, rank_frac = state
    rng, rho = _draw(seed, 2, dB, rank_frac)
    x, z = random_observable(rng), random_observable(rng)
    u = np.kron(np.eye(2), random_unitary(rng, dB))
    rotated = DensityMatrix(u @ rho.mat @ u.conj().T, 2, dB)
    apps = applications_report(rho, x, z), applications_report(rotated, x, z)
    for before, after in (
        (bounds_report(rho, x, z).to_dict(), bounds_report(rotated, x, z).to_dict()),
        apps,
    ):
        assert list(before) == list(after)
        for key, value in before.items():
            if value is None:
                assert after[key] is None
            elif not isinstance(value, bool):
                assert after[key] == pytest.approx(value, abs=1e-10), key
    # A flag must agree unless its margin sits within the tolerance of its threshold.
    for flag, margin, threshold in (
        ("entangled_by_berta", "margin_berta", WITNESS_MARGIN),
        ("entangled_by_ours", "margin_ours", WITNESS_MARGIN),
        ("eof_vacuous", "eof_lower_bound", 0.0),
    ):
        if abs(apps[0][margin] - threshold) > 1e-10:
            assert apps[0][flag] == apps[1][flag], flag
