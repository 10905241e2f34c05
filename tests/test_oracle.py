"""Spectra and state entropies against a 50-digit mpmath oracle.

The oracle takes the float matrix as given, exactly, and diagonalizes its
Hermitian part with ``mp.eighe`` at 50 digits, so the error measured is
that of the float64 routine alone.  On these corpora the closed form of
2 x 2 spectra errs by at most 1.8e-16 absolute (LAPACK: 8.3e-16).
"""

import mpmath as mp
import numpy as np
import pytest

from eurmem.infoquant import _state_entropies
from eurmem.matops import hermitian_eigvals
from eurmem.states import ONE_PARAMETER_FAMILIES

from helpers import random_unitary

TOL = 4.4e-16  # two ulps of 1
BOUNDARY_PS = [0.0, 1e-13, 1.0 - 1e-13, 1.0]


def _mp_matrix(m):
    return mp.matrix([[mp.mpc(float(v.real), float(v.imag)) for v in row] for row in m])


def _oracle_eigvals(m):
    """Ascending eigenvalues of the Hermitian part of ``m`` at 50 digits."""
    with mp.workdps(50):
        a = _mp_matrix(m)
        return sorted(mp.eighe((a + a.H) / 2, eigvals_only=True))


def _oracle_entropy(w):
    """-sum w log2 w of a spectrum clipped to [0, 1], at 50 digits."""
    with mp.workdps(50):
        clipped = [min(max(x, mp.mpf(0)), mp.mpf(1)) for x in w]
        return -sum(x * mp.log(x, 2) for x in clipped if x > 0)


def _two_by_two_corpus():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        yield "full rank", m / np.trace(m).real
    for _ in range(60):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        yield "rank 1", np.outer(v, v.conj()) / np.vdot(v, v).real
    for _ in range(60):
        u = random_unitary(rng, 2)
        yield "gap 1e-9", u @ np.diag([0.5 - 5e-10, 0.5 + 5e-10]) @ u.conj().T
    for a in (0.0, 1e-13, 0.3, 0.5, 1.0):
        for off in (0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            yield "diagonal", np.array([[a, off], [np.conj(off), 1.0 - a]], dtype=complex)


def test_two_by_two_spectra_match_the_oracle():
    corpus = list(_two_by_two_corpus())
    stacked = hermitian_eigvals(np.array([m for _, m in corpus]))
    for (kind, m), w in zip(corpus, stacked):
        want = _oracle_eigvals(m)
        assert np.array_equal(hermitian_eigvals(m), w), kind
        assert w[0] <= w[1], kind
        for got, exact in zip(w, want):
            assert abs(mp.mpf(float(got)) - exact) <= TOL, (kind, m, w)


def test_diagonal_two_by_two_spectra_are_exact():
    for kind, m in _two_by_two_corpus():
        if kind == "diagonal":
            np.testing.assert_array_equal(hermitian_eigvals(m), np.sort(m.diagonal().real))


def _oracle_state_entropies(rho):
    """S(rho^AB), S(rho^A), S(rho^B) of a two-qubit state at 50 digits, the
    reduced states summed from its float entries."""
    with mp.workdps(50):
        a = _mp_matrix(rho.mat)
        rho_a = mp.matrix([[a[2 * i, 2 * j] + a[2 * i + 1, 2 * j + 1] for j in range(2)] for i in range(2)])
        rho_b = mp.matrix([[a[i, j] + a[2 + i, 2 + j] for j in range(2)] for i in range(2)])
        return [_oracle_entropy(sorted(mp.eighe((x + x.H) / 2, eigvals_only=True))) for x in (a, rho_a, rho_b)]


_BOUNDARY_STATES = [(family, p) for family in sorted(ONE_PARAMETER_FAMILIES) for p in BOUNDARY_PS]


@pytest.mark.parametrize("family, p", _BOUNDARY_STATES)
def test_boundary_state_reduced_entropies_match_the_oracle(family, p):
    rho = ONE_PARAMETER_FAMILIES[family](p)
    _, s_a, s_b = (float(s[0]) for s in _state_entropies(rho.stack))
    _, want_a, want_b = _oracle_state_entropies(rho)
    assert abs(mp.mpf(s_a) - want_a) <= TOL, (family, p, s_a, want_a)
    assert abs(mp.mpf(s_b) - want_b) <= TOL, (family, p, s_b, want_b)


# S(AB) of an X-state comes from the closed form of its two 2 x 2 blocks,
# whose e = |b'|^2 / (hypot(h, |b'|) + |h|) at h = 0 can land an ulp off |b'|:
# a rank-1 block then gets an eigenvalue of ~1e-17, not 0, where -x log2 x
# has slope ~56, and S(AB) of these xstate rows is 8e-16 to 3.2e-15 off
# (p = 0.09 is off by 3.0e-16, inside TOL).
_CLOSED_FORM_S_AB = pytest.mark.xfail(strict=True, reason="closed-form 2 x 2 spectrum at equal diagonals")


@pytest.mark.parametrize(
    "family, p",
    _BOUNDARY_STATES
    + [("xstate", 0.09)]
    + [pytest.param("xstate", p, marks=_CLOSED_FORM_S_AB) for p in (0.18, 0.36, 0.72, 0.79)],
)
def test_boundary_state_entropy_matches_the_oracle(family, p):
    rho = ONE_PARAMETER_FAMILIES[family](p)
    s_ab = float(_state_entropies(rho.stack)[0][0])
    want = _oracle_state_entropies(rho)[0]
    assert abs(mp.mpf(s_ab) - want) <= TOL, (family, p, s_ab, want)
