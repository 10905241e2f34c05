"""Spectra, state entropies and the exact J_A models against a 50-digit
mpmath oracle.

The oracle takes the float matrix as given, exactly, and diagonalizes its
Hermitian part with ``mp.eighe`` at 50 digits, so the error measured is
that of the float64 routine alone.  On these corpora the closed form of
2 x 2 spectra errs by at most 1.8e-16 absolute (LAPACK: 8.3e-16).
"""

import mpmath as mp
import numpy as np
import pytest

from eurmem.infoquant import (
    _FLOAT_CENTRES,
    _general_objective,
    _state_entropies,
    _tangent_frame,
    _two_qubit_objective,
)
from eurmem.matops import hermitian_eigvals
from eurmem.states import ONE_PARAMETER_FAMILIES, DensityMatrix

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


# X-states with an exactly rank-1 2 x 2 block at equal diagonal entries,
# where e = |b'|^2 / (hypot(h, |b'|) + |h|) put an eigenvalue of ~1e-17 in
# place of 0 and S(AB) up to 3.2e-15 off.
@pytest.mark.parametrize(
    "family, p",
    _BOUNDARY_STATES + [("xstate", p) for p in (0.09, 0.18, 0.36, 0.72, 0.79)],
)
def test_boundary_state_entropy_matches_the_oracle(family, p):
    rho = ONE_PARAMETER_FAMILIES[family](p)
    s_ab = float(_state_entropies(rho.stack)[0][0])
    want = _oracle_state_entropies(rho)[0]
    assert abs(mp.mpf(s_ab) - want) <= TOL, (family, p, s_ab, want)


# ---------------------------------------------------------------------------
# The exact J_A models against the objective at 50 digits: its value, and
# central differences of it along the tangent chart at step 1e-12, whose
# truncation and rounding errors both stay below 1e-20.  The state is
# G G^dagger / tr at 50 digits from the Ginibre factor G of the float state,
# so that a rank-2 state is exactly rank 2 and the kernel of its
# conditional states at dB >= 3 is exactly 0.  Measured over 20 seeds of
# this corpus: the derivatives within 1.1e-14 and the values within 1.4e-14
# (the objective's own error, on the rank-2 states at dB >= 3).  Over 40
# seeds the model value came within 1.33e-15 (6 ulps of the value) of the
# float objective's where no conditional state has a kernel, whose rounded
# eigenvalues the two weigh differently (up to 1.3e-14 on rank 2).
# ---------------------------------------------------------------------------

MODEL_DERIVATIVE_TOL = 1e-13
MODEL_VALUE_TOL = 3e-14
MODEL_OBJECTIVE_TOL = 2e-15


def _oracle_halves(g, dB):
    """(rho^B, T_x, T_y, T_z) / 2 of the state G G^dagger / tr at the working
    precision, T_i = Tr_A[(sigma_i (x) I) rho]."""
    big = _mp_matrix(g)
    rho = big * big.H
    rho /= sum(rho[i, i] for i in range(2 * dB)).real
    r = [[mp.matrix([[rho[a * dB + j, b * dB + k] for k in range(dB)] for j in range(dB)]) for b in (0, 1)]
         for a in (0, 1)]
    return [m / 2 for m in (r[0][0] + r[1][1], r[0][1] + r[1][0], (r[0][1] - r[1][0]) * 1j, r[0][0] - r[1][1])]


def _oracle_xlog2x_sum(omega):
    """sum mu log2 mu of the spectrum of omega, 0 log 0 = 0."""
    return sum(x * mp.log(x, 2) for x in mp.eighe((omega + omega.H) / 2, eigvals_only=True) if x > 0)


def _oracle_objective(halves, m):
    """I(P_m;B) at the working precision."""
    b = halves[1] * m[0] + halves[2] * m[1] + halves[3] * m[2]
    total = -_oracle_xlog2x_sum(2 * halves[0])
    for omega in (halves[0] + b, halves[0] - b):
        p = sum(omega[i, i] for i in range(omega.rows)).real
        total -= p * mp.log(p, 2) - _oracle_xlog2x_sum(omega)
    return total


def _oracle_model(halves, frame):
    """Value, gradient and Hessian of the objective along the chart of frame."""
    h = mp.mpf(10) ** -12
    n, u, v = ([mp.mpf(x) for x in t] for t in frame)

    def f(s1, s2):
        m = [a + s1 * b + s2 * c for a, b, c in zip(n, u, v)]
        norm = mp.sqrt(sum(x * x for x in m))
        return _oracle_objective(halves, [x / norm for x in m])

    f0, pu, mu, pv, mv = f(0, 0), f(h, 0), f(-h, 0), f(0, h), f(0, -h)
    cross = f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)
    return [f0, (pu - mu) / (2 * h), (pv - mv) / (2 * h), (pu - 2 * f0 + mu) / h**2, cross / (4 * h**2),
            (pv - 2 * f0 + mv) / h**2]


@pytest.mark.parametrize("dB", [2, 3, 4])
@pytest.mark.parametrize("rank", [None, 2])
def test_exact_models_match_the_oracle(dB, rank):
    rng = np.random.default_rng(180 + 10 * dB + (rank or 0))
    for _ in range(2):
        g = rng.normal(size=(2 * dB, rank or 2 * dB)) + 1j * rng.normal(size=(2 * dB, rank or 2 * dB))
        m = g @ g.conj().T
        states = DensityMatrix(m / np.trace(m).real, 2, dB).stack
        s_b = _state_entropies(states)[2]
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        frame = _tangent_frame(*n.tolist())
        with mp.workdps(50):
            want = [float(x) for x in _oracle_model(_oracle_halves(g, dB), frame)]
        for build in [_general_objective] + ([_two_qubit_objective] if dB == 2 else []):
            objective = build(states, s_b)
            value = objective.values(np.array([0]), n[:, None, None])[0, 0]
            # one centre, and more than the two-qubit plain-float limit
            for size in (1, _FLOAT_CENTRES + 1):
                got = objective.model([0] * size, [frame] * size)[0]
                assert abs(got[0] - want[0]) <= MODEL_VALUE_TOL, (build.__name__, got[0], want[0])
                np.testing.assert_allclose(got[1:], want[1:], rtol=0.0, atol=MODEL_DERIVATIVE_TOL)
                if rank is None or dB == 2:
                    assert abs(got[0] - value) <= MODEL_OBJECTIVE_TOL, (build.__name__, got[0], value)
