"""Entropy, Holevo, delta, and classical-correlation optimizer tests."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from eurmem import infoquant
from eurmem.infoquant import (
    OptimizerConfig,
    binary_entropy,
    classical_correlation,
    classical_correlation_stack,
    evaluate,
    holevo,
    von_neumann_entropy,
)
from eurmem.infoquant import (
    IMPROVE_ATOL,
    _CALL_VALUES,
    _directions,
    _entropies,
    _general_objective,
    _grid_peaks,
    _hemisphere_grid,
    _search,
    _sphere_neighbourhood,
    _state_entropies,
    _tangent_frame,
    _trust_step,
    _two_qubit_objective,
)
from eurmem.matops import tensor
from eurmem.measure import (
    observable_from_bloch,
    outcome_ensemble,
    pauli_observable,
    post_measurement_state,
)
from eurmem.states import (
    DensityMatrix,
    StateStack,
    StateValidationError,
    bell_diagonal,
    bell_diagonal_special,
    family_stack,
    maximally_mixed,
    pure_schmidt,
    pure_state,
    werner,
    x_state_special,
)

from helpers import (
    conditional_blocks,
    brute_force_grid_peaks,
    dense_reference_j_a,
    hard_x_matrices,
    random_bell_diagonal,
    random_bell_diagonal_r,
    random_density_matrix,
    random_observable,
    random_product_state,
    random_schmidt_coeffs,
    random_single_qubit_density,
    random_unitary,
    kernel_reference_two_qubit_objective,
    neighbourhood_cells,
    reference_search,
    reference_two_qubit_objective,
    sphere_objective,
)


X, Z = pauli_observable("x"), pauli_observable("z")


def test_shannon_entropy_values():
    assert _entropies(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert _entropies(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert _entropies(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-15)
    # H(X) of the evaluation pass is the same sum over the outcome probabilities
    ev = evaluate(x_state_special(0.3), X, Z)
    assert ev.h_z == _entropies(ev.z_probs)


def test_binary_entropy_values():
    # +0.0, never -0.0
    assert not np.signbit(binary_entropy(0.0)) and binary_entropy(0.0) == 0.0
    assert not np.signbit(binary_entropy(1.0)) and binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.75) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_binary_entropy_range_check():
    with pytest.raises(ValueError):
        binary_entropy(1.1)
    # NaN, which fails every comparison, is outside too, as a number and in an array
    for x in (np.nan, np.array([0.2, np.nan])):
        with pytest.raises(ValueError, match=re.escape("binary entropy argument nan outside [0, 1]")):
            binary_entropy(x)


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(werner(1.0)) == pytest.approx(0.0, abs=1e-9)
    assert von_neumann_entropy(maximally_mixed()) == pytest.approx(2.0, abs=1e-12)
    for p in (0.2, 0.6, 0.95):
        spectrum = [(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4]
        assert von_neumann_entropy(werner(p)) == pytest.approx(
            _entropies(np.array(spectrum)), abs=1e-12
        )
        # a state and its raw matrix, validated on the way, give the same bits
        assert von_neumann_entropy(werner(p)) == von_neumann_entropy(werner(p).mat)


def test_von_neumann_entropy_trace_check():
    with pytest.raises(ValueError, match="trace"):
        von_neumann_entropy(np.eye(2))


@pytest.mark.parametrize(
    "mat, invariant",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
        ([[0.5, 0.3], [-0.3, 0.5]], "hermitian"),
        (np.diag([0.5, 0.5 + 5e-10]), "trace"),
        (np.diag([1.0 + 2e-10, -2e-10]), "psd"),
    ],
)
def test_von_neumann_entropy_validates_a_raw_matrix_as_a_state(mat, invariant):
    # a raw d x d matrix is held to the invariants of DensityMatrix(m, d, 1)
    with pytest.raises(StateValidationError) as err:
        von_neumann_entropy(mat)
    assert err.value.invariant == invariant


def test_conditional_entropy_values():
    assert evaluate(werner(1.0), X, Z).s_cond == pytest.approx(-1.0, abs=1e-9)
    rng = np.random.default_rng(3)
    a = random_single_qubit_density(rng)
    b = random_single_qubit_density(rng)
    product = DensityMatrix(tensor(a, b), 2, 2)
    assert evaluate(product, X, Z).s_cond == pytest.approx(von_neumann_entropy(a), abs=1e-10)


def test_conditional_entropy_x_state_closed_form():
    h = binary_entropy
    for p in (0.0, 0.3, 0.7, 1.0):
        expected = h(p) - h(p / 2)
        assert evaluate(x_state_special(p), X, Z).s_cond == pytest.approx(expected, abs=1e-10)


def test_mutual_information_values():
    rng = np.random.default_rng(5)
    assert evaluate(random_product_state(rng), X, Z).i_ab == pytest.approx(0.0, abs=1e-10)
    lam = random_schmidt_coeffs(rng)
    pure = pure_schmidt(lam)
    assert evaluate(pure, X, Z).i_ab == pytest.approx(
        2 * von_neumann_entropy(pure.reduced_b()), abs=1e-10
    )
    assert evaluate(x_state_special(1.0), X, Z).i_ab == pytest.approx(2.0, abs=1e-10)


def test_holevo_bell_diagonal_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = random_bell_diagonal_r(rng)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        rho = bell_diagonal(r)
        expected = 1.0 - binary_entropy((1.0 + np.linalg.norm(n * r)) / 2.0)
        assert holevo(rho, observable_from_bloch(n)) == pytest.approx(expected, abs=1e-10)


def test_holevo_pure_schmidt_equals_marginal_entropy():
    rng = np.random.default_rng(11)
    rho = pure_schmidt(random_schmidt_coeffs(rng))
    s_b = von_neumann_entropy(rho.reduced_b())
    for _ in range(5):
        obs = random_observable(rng)
        assert holevo(rho, obs) == pytest.approx(s_b, abs=1e-10)


def test_holevo_product_state_zero():
    rng = np.random.default_rng(13)
    rho = random_product_state(rng)
    for _ in range(5):
        assert holevo(rho, random_observable(rng)) == pytest.approx(0.0, abs=1e-10)


def test_holevo_bounds_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rho = random_density_matrix(rng)
        obs = random_observable(rng)
        value = holevo(rho, obs)
        s_b = von_neumann_entropy(rho.reduced_b())
        h_out = _entropies(outcome_ensemble(rho, obs).probs)
        assert -1e-9 <= value <= min(h_out, s_b) + 1e-9


def test_delta_vanishes_for_pure_and_product_states():
    rng = np.random.default_rng(19)
    x, z = pauli_observable("x"), pauli_observable("z")
    rho = pure_schmidt(random_schmidt_coeffs(rng))
    assert evaluate(rho, x, z)["delta"] == pytest.approx(0.0, abs=1e-9)
    assert evaluate(random_product_state(rng), x, z)["delta"] == pytest.approx(0.0, abs=1e-9)


def test_delta_werner_equals_discord_minus_classical():
    x, z = pauli_observable("x"), pauli_observable("z")
    for p in (0.2, 0.5, 0.9):
        rho = werner(p)
        corr = classical_correlation(rho)
        assert evaluate(rho, x, z)["delta"] == pytest.approx(
            corr.discord - corr.classical_correlation, abs=1e-6
        )


def _complementarity_floor(rho, x, z):
    """log2(dA) + S(rho^A) - H(X) - H(Z), a lower bound on delta for
    complementary observables.

    It vanishes (guaranteeing delta >= 0) when subsystem A is maximally
    mixed, and when one observable leaves A undisturbed while the other is
    unbiased on it.
    """
    ev = evaluate(rho, x, z)
    return float(np.log2(rho.dA)) + ev["s_a"] - ev["h_x"] - ev["h_z"]


def test_delta_floor_zero_cases():
    x, z = pauli_observable("x"), pauli_observable("z")
    rng = np.random.default_rng(23)
    # Bell diagonal with any MUB pair
    assert _complementarity_floor(random_bell_diagonal(rng), x, z) == pytest.approx(0.0, abs=1e-9)
    # maximally mixed
    assert _complementarity_floor(maximally_mixed(), x, z) == pytest.approx(0.0, abs=1e-9)
    # maximally correlated mixed state, Z undisturbing and X unbiased
    tau = random_single_qubit_density(rng)
    mc = np.zeros((4, 4), dtype=complex)
    mc[0, 0], mc[0, 3], mc[3, 0], mc[3, 3] = tau[0, 0], tau[0, 1], tau[1, 0], tau[1, 1]
    rho_mc = DensityMatrix(mc, 2, 2)
    assert _complementarity_floor(rho_mc, x, z) == pytest.approx(0.0, abs=1e-9)
    assert evaluate(rho_mc, x, z)["delta"] >= -1e-9


def test_delta_dominates_floor_for_complementary_observables():
    rng = np.random.default_rng(29)
    x, z = pauli_observable("x"), pauli_observable("z")
    for _ in range(50):
        rho = random_density_matrix(rng)
        assert evaluate(rho, x, z)["delta"] >= _complementarity_floor(rho, x, z) - 1e-9


def test_identity_conditional_plus_holevo_is_outcome_entropy():
    # S(X|B) + I(X;B) = H(X) exactly, for any state and observable
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = random_density_matrix(rng)
        obs = random_observable(rng)
        s_xb = evaluate(post_measurement_state(rho, obs), obs, obs).s_cond
        i_xb = holevo(rho, obs)
        h_x = _entropies(outcome_ensemble(rho, obs).probs)
        assert s_xb + i_xb == pytest.approx(h_x, abs=1e-9)


def test_identity_marginal_entropy_decomposition():
    # S(A) = S(A|B) + I(A;B)
    rng = np.random.default_rng(37)
    for _ in range(50):
        rho = random_density_matrix(rng)
        s_a = von_neumann_entropy(rho.reduced_a())
        ev = evaluate(rho, X, Z)
        assert ev.s_cond + ev.i_ab == pytest.approx(s_a, abs=1e-9)


# ---------------------------------------------------------------------------
# evaluation pass
# ---------------------------------------------------------------------------


def _per_state_terms(rho, obs):
    """Probabilities, conditional blocks, H(X), I(X;B) and S(X|B) of one
    observable, each from explicit projectors and one entropy per state."""
    blocks = conditional_blocks(rho, obs)
    probs = np.array([np.trace(b).real for b in blocks])
    cond = sum(p * von_neumann_entropy(b / p) for p, b in zip(probs, blocks) if p > 1e-14)
    i_b = von_neumann_entropy(rho.reduced_b()) - cond
    cq = post_measurement_state(rho, obs)
    s_xb = von_neumann_entropy(cq) - von_neumann_entropy(cq.reduced_b())
    return probs, np.array(blocks), _entropies(probs), i_b, s_xb


def _incompatibility_by_loops(x, z):
    c = sorted(
        (abs(np.vdot(x.basis[:, i], z.basis[:, j])) ** 2 for i in range(x.d) for j in range(z.d)),
        reverse=True,
    )
    return -np.log2(c[0]), -np.log2(c[0]) + 0.5 * (1.0 - np.sqrt(c[0])) * np.log2(c[0] / c[1])


@pytest.mark.parametrize(
    "dA,dB,rank",
    [(2, 2, 1), (2, 2, 2), (2, 2, 4), (2, 3, 1), (2, 3, 2), (2, 4, 1), (2, 4, 2), (2, 4, 8),
     (3, 2, 1), (3, 2, 2), (3, 3, 2), (3, 3, 9)],
)
def test_evaluation_pass_matches_cq_route(dA, dB, rank):
    rng = np.random.default_rng(100 * dA + 10 * dB + rank)
    for _ in range(4):
        rho = random_density_matrix(rng, dA, dB, rank)
        x, z = random_observable(rng, dA), random_observable(rng, dA)
        ev = evaluate(rho, x, z)
        assert ev["s_ab"] == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
        assert ev["s_a"] == pytest.approx(von_neumann_entropy(rho.reduced_a()), abs=1e-12)
        assert ev["s_b"] == pytest.approx(von_neumann_entropy(rho.reduced_b()), abs=1e-12)
        actual = 0.0
        holevos = []
        for obs, name in ((x, "x"), (z, "z")):
            probs, blocks, h, i_b, s_xb = _per_state_terms(rho, obs)
            np.testing.assert_allclose(ev[f"{name}_probs"], probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ev[f"{name}_omegas"], blocks, rtol=0, atol=1e-12)
            assert ev[f"h_{name}"] == pytest.approx(h, abs=1e-12)
            assert ev[f"i_{name}b"] == pytest.approx(i_b, abs=1e-12)
            assert holevo(rho, obs) == pytest.approx(i_b, abs=1e-12)
            actual += s_xb
            holevos.append(i_b)
        assert ev["actual"] == pytest.approx(actual, abs=1e-12)
        i_ab = von_neumann_entropy(rho.reduced_a()) + ev["s_b"] - ev["s_ab"]
        assert ev["delta"] == pytest.approx(i_ab - sum(holevos), abs=1e-12)
        assert (ev["q_mu"], ev["q_prime"]) == pytest.approx(_incompatibility_by_loops(x, z), abs=1e-12)


def test_evaluate_rejects_mismatched_dimensions_at_entry():
    rho = werner(0.5)
    qubit = pauli_observable("x")
    qutrit = random_observable(np.random.default_rng(43), 3)
    with pytest.raises(ValueError, match="different dimensions: 2 vs 3"):
        evaluate(rho, qubit, qutrit)
    with pytest.raises(ValueError, match="observable dimension 3 does not match dA = 2"):
        evaluate(rho, qutrit, qutrit)
    with pytest.raises(ValueError, match="does not match dA = 2"):
        holevo(rho, qutrit)


# ---------------------------------------------------------------------------
# classical correlation optimizer
# ---------------------------------------------------------------------------


def _unit_directions(rng, count):
    n = rng.normal(size=(3, count))
    return n / np.linalg.norm(n, axis=0)


def _objective(build, rho):
    """An objective builder applied to the one-row stack of ``rho``."""
    return build(rho.stack, _state_entropies(rho.stack)[2])


def _row_search(objective, cfg=None):
    """``_search`` of a one-row objective: (value, direction, grid max, rounds)."""
    return tuple(column[0] for column in _search(objective, 1, cfg or OptimizerConfig()))


def test_direction_objectives_match_holevo():
    rng = np.random.default_rng(41)
    # full rank, then for dB >= 3 rank 1 and rank 2, whose conditional states
    # are rank-deficient
    ranks = {2: [None] * 5, 3: [None] * 5 + [1, 2], 4: [None] * 5 + [1, 2]}
    for dB in (2, 3, 4):
        for rank in ranks[dB]:
            rho = random_density_matrix(rng, dB=dB, rank=rank)
            dirs = _unit_directions(rng, 4)
            slow = [holevo(rho, observable_from_bloch(n)) for n in dirs.T]
            builds = [_general_objective] + ([_two_qubit_objective] if dB == 2 else [])
            for build in builds:
                values = _objective(build, rho).values(slice(0, 1), dirs[:, None])[0]
                np.testing.assert_allclose(values, slow, rtol=0.0, atol=1e-12)


def _two_qubit_corpus():
    rng = np.random.default_rng(43)
    states = [random_density_matrix(rng) for _ in range(12)]
    states += [random_density_matrix(rng, rank=2) for _ in range(4)]
    states += [x_state_special(p) for p in (0.2, 0.7)]
    states += [bell_diagonal(random_bell_diagonal_r(rng)) for _ in range(2)]
    return states


def test_two_qubit_search_matches_general_path():
    for rho in _two_qubit_corpus():
        fast = _row_search(_objective(_two_qubit_objective, rho))
        general = _row_search(_objective(_general_objective, rho))
        # the same rounds, grid maximum and refined value (J_A before its floor at 0)
        assert fast[3] == general[3]
        for k in (2, 0):
            assert fast[k] == pytest.approx(general[k], abs=1e-12)


def _stack_of(states):
    return StateStack(np.array([rho.mat for rho in states]), 2, states[0].dB)


def _kernel_stacks():
    """Random two-qubit states of ranks 1 to 4, and each family at 101
    parameters and at p = 1e-15, 1e-13 and 1 - 1e-13 (at 1e-15 an outcome's
    probability falls below the zero-probability cut without being 0)."""
    rng = np.random.default_rng(131)
    # an outcome of probability 1e-15 whose conditional state is mixed
    faint = DensityMatrix(np.kron(np.diag([1.0 - 1e-15, 1e-15]), np.eye(2) / 2.0), 2, 2)
    yield "random", _stack_of(
        [random_density_matrix(rng, rank=rank) for rank in (1, 2, 3, 4) for _ in range(8)] + [faint]
    )
    for family in ("werner", "bell_diagonal_special", "xstate"):
        yield family, family_stack(family, np.r_[np.linspace(0.0, 1.0, 101), 1e-15, 1e-13, 1.0 - 1e-13])


def _kernel_calls(states):
    """(rows, directions) of the kernel's calls on a stack: the default grid
    in calls of 1, 5 and 16 rows; one row's 60 x 120 grid in one call, above
    the search's call bound (``_CALL_VALUES``); and calls of nine directions
    per row, with rows repeated."""
    grid = _hemisphere_grid(12, 24)[1][:, None]
    for rows in (1, 5, 16):
        for start in range(0, len(states), rows):
            yield slice(start, start + rows), grid
    dense = _hemisphere_grid(60, 120)[1][:, None]
    for row in (0, len(states) - 1):
        yield slice(row, row + 1), dense
    rng = np.random.default_rng(137)
    for count in (3, 300):
        rows = np.repeat(rng.integers(0, len(states), size=count), 3)
        yield rows, _unit_directions(rng, 9 * len(rows)).reshape(3, len(rows), 9)


@pytest.mark.parametrize("name, states", list(_kernel_stacks()), ids=lambda v: v if isinstance(v, str) else "")
def test_two_qubit_kernel_matches_reference_bit_for_bit(name, states):
    s_b = _state_entropies(states)[2]
    kernel = _two_qubit_objective(states, s_b).values
    reference = kernel_reference_two_qubit_objective(states, s_b)
    for rows, dirs in _kernel_calls(states):
        np.testing.assert_array_equal(kernel(rows, dirs), reference(rows, dirs))


# The kernel against the earlier elementwise form of the objective: on this
# corpus they differ by at most 8.9e-15 (measured), in the last bits of the
# sums that the matrix product fuses.
EARLIER_FORM_ATOL = 3e-14


@pytest.mark.parametrize("name, states", list(_kernel_stacks()), ids=lambda v: v if isinstance(v, str) else "")
def test_two_qubit_kernel_matches_the_earlier_form(name, states):
    s_b = _state_entropies(states)[2]
    kernel = _two_qubit_objective(states, s_b).values
    earlier = reference_two_qubit_objective(states, s_b)
    for rows, dirs in _kernel_calls(states):
        np.testing.assert_allclose(kernel(rows, dirs), earlier(rows, dirs), rtol=0.0, atol=EARLIER_FORM_ATOL)


@pytest.mark.parametrize("name, states", list(_kernel_stacks()), ids=lambda v: v if isinstance(v, str) else "")
def test_two_qubit_kernel_rows_do_not_depend_on_their_call(name, states):
    _assert_rows_do_not_depend_on_their_call(_two_qubit_objective(states, _state_entropies(states)[2]).values, len(states))


def _assert_rows_do_not_depend_on_their_call(objective, count):
    """Each row's values alone equal its values inside 5-row and 16-row
    calls, for the grid (directions shared by all rows), for directions of
    its own, and for one direction per row, bit for bit."""
    grid = _hemisphere_grid(12, 24)[1][:, None]
    own = _unit_directions(np.random.default_rng(139), 9 * count).reshape(3, count, 9)
    for dirs in (grid, own, own[:, :, :1]):
        alone = np.concatenate([objective(slice(k, k + 1), dirs[:, k : k + 1] if dirs.shape[1] > 1 else dirs)
                                for k in range(count)])
        for size in (5, 16):
            for start in range(0, count, size):
                rows = slice(start, start + size)
                got = objective(rows, dirs[:, rows] if dirs.shape[1] > 1 else dirs)
                np.testing.assert_array_equal(got, alone[rows])
    # and a direction's value does not depend on the directions beside it:
    # each grid direction of each row alone, one per call row
    rows = np.repeat(np.arange(count), grid.shape[-1])
    alone = objective(rows, np.tile(grid[:, 0], count)[:, :, None])
    np.testing.assert_array_equal(alone.reshape(count, -1), objective(slice(0, count), grid))


@pytest.mark.parametrize("dB", [3, 4])
def test_general_objective_is_even_and_has_one_pole_value(dB):
    # Bit for bit: n and -n are one measurement, the pole directions with
    # +-0 components are one point, and a row's values do not depend on its
    # call.  The corpus has ranks 1, 2 and full, and states whose tables hold
    # exact zeros: a classical-quantum state and diagonal product states.
    rng = np.random.default_rng(160 + dB)
    states = [random_density_matrix(rng, dB=dB, rank=rank) for rank in (1, 2, None, None)]
    states.append(_cq_state(rng, dB, 0.3)[0])
    for b in (np.full(dB, 1.0 / dB), rng.dirichlet(np.ones(dB))):
        states.append(DensityMatrix(np.kron(np.diag([0.4, 0.6]), np.diag(b)), 2, dB))
    stack = _stack_of(states)
    objective = _general_objective(stack, _state_entropies(stack)[2]).values
    rows = slice(0, len(states))
    own = _unit_directions(rng, 9 * len(states)).reshape(3, len(states), 9)
    for dirs in (own, _hemisphere_grid(12, 24)[1][:, None]):
        np.testing.assert_array_equal(objective(rows, -dirs).view(np.int64), objective(rows, dirs).view(np.int64))
    poles = np.array([[x, y, z] for x in (0.0, -0.0) for y in (0.0, -0.0) for z in (1.0, -1.0)]).T[:, None]
    values = objective(rows, poles).view(np.int64)
    np.testing.assert_array_equal(values, np.broadcast_to(values[:, :1], values.shape))
    _assert_rows_do_not_depend_on_their_call(objective, len(states))


@pytest.mark.parametrize("dB", [2, 3, 4])
@pytest.mark.parametrize("shape", [(2, 4), (12, 24), (60, 120)])
def test_search_with_one_pole_value_matches_the_full_grid_reference(monkeypatch, dB, shape):
    # _search evaluates the pole row at one cell and each antipodal equator
    # pair at its first cell; the reference evaluates every cell.  Row 0's
    # optimum is the pole.
    rng = np.random.default_rng(150 + dB)
    states = [_cq_state(rng, dB, 0.3)[0]] + [random_density_matrix(rng, dB=dB) for _ in range(3)]
    stack = _stack_of(states)
    build = _two_qubit_objective if dB == 2 else _general_objective
    objective = build(stack, _state_entropies(stack)[2])
    cfg = OptimizerConfig(*shape)
    grids = []
    monkeypatch.setattr(infoquant, "_grid_peaks", lambda values: grids.append(values.copy()) or _grid_peaks(values))
    got = list(zip(*_search(objective, len(states), cfg)))
    # the peak pass sees every cell's own value, bit for bit, but on the
    # equator's second half, which holds the values of its antipodes
    full = objective.values(slice(0, len(states)), _hemisphere_grid(*shape)[1][:, None])
    seen, half = grids[0].reshape(full.shape), shape[1] // 2
    np.testing.assert_array_equal(seen[:, :-half].view(np.int64), full[:, :-half].view(np.int64))
    np.testing.assert_array_equal(seen[:, -half:].view(np.int64), full[:, -2 * half : -half].view(np.int64))
    np.testing.assert_allclose(full[:, -half:], full[:, -2 * half : -half], rtol=0.0, atol=1e-14)
    for (value, at, grid_best, rounds), (ref_value, ref_at, ref_grid_best, ref_rounds) in zip(
        got, reference_search(objective, len(states), cfg)
    ):
        assert (value, grid_best, rounds) == (ref_value, ref_grid_best, ref_rounds)
        np.testing.assert_array_equal(at, ref_at)
    np.testing.assert_array_equal(got[0][1], [0.0, 0.0, 1.0])
    assert got[0][0] == got[0][2] == objective.values(slice(0, 1), np.array([[[0.0]], [[0.0]], [[1.0]]]))[0, 0]


def _traced_peak(run):
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_qubit_grid_call_stays_under_the_mmap_threshold():
    # glibc serves a request of 128 KB or more (its default mmap threshold)
    # with a fresh mapping, whose pages fault in anew; a call of
    # _CALL_VALUES values keeps each buffer below it, as rows of a grid or
    # as one row's chunk of a larger grid (peaks of ~260 and ~350 KB; a
    # 16-row call of the whole default grid peaks at ~600 KB).
    states = family_stack("bell_diagonal_special", np.linspace(0.0, 1.0, 101))
    objective = _two_qubit_objective(states, _state_entropies(states)[2]).values
    grid, dense = (_hemisphere_grid(*shape)[1][:, None] for shape in ((12, 24), (60, 120)))
    for rows, dirs in ((slice(16, 24), grid[..., :240]), (slice(16, 17), dense[..., :1920])):
        assert objective(rows, dirs).size == _CALL_VALUES
        assert _traced_peak(lambda: objective(rows, dirs)) <= 512 * 1024


@pytest.mark.parametrize("family", ["bell_diagonal_special", "xstate"])
def test_grid_peaks_of_a_preset_block_stay_under_the_mmap_threshold(family):
    # The peak test takes 16 grids at a time, so its padded copies of a
    # 101-row block's grid values stay below the threshold; taken all at
    # once (294 KB each) they put the pass's traced peak at ~930 KB, now
    # ~360 KB.
    states = family_stack(family, np.linspace(0.0, 1.0, 101))
    objective = _two_qubit_objective(states, _state_entropies(states)[2]).values
    grid = _hemisphere_grid(12, 24)[1][:, None]
    values = np.concatenate([objective(slice(k, k + 16), grid) for k in range(0, 101, 16)])
    assert _traced_peak(lambda: _grid_peaks(values.reshape(-1, 12, 24))) <= 512 * 1024


def _ascent_corpora():
    """Seeded stacks with dB = 2, 3, 4 and ranks 1 to full, two pure dB = 4
    states whose ascents have steps rejected and radii cut (five each),
    product states (J_A = 0 on the whole sphere, so a centre may beat the
    peak by rounding alone), and the 303 family states."""
    rng = np.random.default_rng(139)
    for dB in (2, 3, 4):
        states = [random_density_matrix(rng, dB=dB, rank=rank) for rank in range(1, 2 * dB + 1) for _ in range(4)]
        yield f"dB={dB}", _stack_of(states)
    rejecting = [random_density_matrix(np.random.default_rng(seed), dB=4, rank=1) for seed in (28, 81)]
    yield "rejected steps", _stack_of(rejecting)
    yield "product", _stack_of([random_product_state(rng) for _ in range(16)])
    for family in ("werner", "bell_diagonal_special", "xstate"):
        yield family, family_stack(family, np.linspace(0.0, 1.0, 101))


def _row_objective(objective, k):
    """``objective`` seen as a one-row objective of its row k."""
    row = np.array([k])
    return objective._replace(
        values=lambda rows, dirs: objective.values(row[rows], dirs),
        model=lambda rows, frames: objective.model(row[rows], frames),
        seeds=objective.seeds and (lambda rows: objective.seeds(row[rows])),
    )


@pytest.mark.parametrize("name, states", list(_ascent_corpora()), ids=lambda v: v if isinstance(v, str) else "")
def test_climb_matches_generator_reference(name, states):
    build = _two_qubit_objective if states.dB == 2 else _general_objective
    objective = build(states, _state_entropies(states)[2])
    cfg = OptimizerConfig()
    want = reference_search(objective, len(states), cfg)
    stacked = list(zip(*_search(objective, len(states), cfg)))
    rows = [_row_search(_row_objective(objective, k), cfg) for k in range(len(states))]
    # Each result is the objective's value at the direction it reports.
    at = np.array([found[1] for found in stacked])
    np.testing.assert_array_equal(
        objective.values(np.arange(len(states)), at.T[:, :, None])[:, 0], [found[0] for found in stacked]
    )
    for got in (stacked, rows):
        for k, ((value, at, grid_best, rounds), (ref_value, ref_at, ref_grid_best, ref_rounds)) in enumerate(
            zip(got, want)
        ):
            assert abs(value - ref_value) <= 1e-15, (name, k)
            assert np.allclose(at, ref_at, rtol=0.0, atol=1e-12), (name, k)
            assert (grid_best, rounds) == (ref_grid_best, ref_rounds), (name, k)


# J_A of a 60 x 120 search without seeds on rows of hard X-state corpora
# (``hard_x_matrices``), by (rng seed, dB) and row.  A 12 x 24 grid without a
# seed stops short on rows 540 (by 3.0e-5), 445 (2.9e-5) and 1888 (2.2e-5),
# and a 6 x 12 grid without one on all of them, by up to 1.7e-3.
_HARD_ROWS = {
    (31, 4): {540: 0.016752122404408598, 1156: 0.33635105405196214, 1498: 0.04004099155890284},
    (11, 4): {
        445: 0.0027783318024922066,
        1204: 0.027187728979814696,
        1888: 0.007440991959754062,
        1949: 0.03471769977162675,
    },
    (31, 3): {2644: 0.3578764464807409},
}


@pytest.mark.parametrize("seed, dB", list(_HARD_ROWS))
def test_default_search_reaches_a_dense_search_on_hard_rows(seed, dB):
    rows = _HARD_ROWS[seed, dB]
    mats = hard_x_matrices(np.random.default_rng(seed), dB, max(rows) + 1)[list(rows)]
    j_a = classical_correlation_stack(StateStack(mats, 2, dB))["classical_correlation"]
    np.testing.assert_array_less(np.array(list(rows.values())) - 1e-12, j_a)


# The rows of the two-qubit hard X-state corpus of rng 29 on which the
# default search stops short of a 60 x 120 one (by 6.4e-5, 9.6e-7, 8.3e-5,
# 2.0e-4 and 1.2e-5), with that search's J_A: the two-qubit search has no
# seed start yet.
_TWO_QUBIT_MISSES = {
    1523: 0.01145738133023022,
    5471: 0.019453022647555718,
    11862: 0.005046542046978297,
    14211: 0.05170834558151238,
    18285: 0.0020772669306808877,
}


@pytest.fixture(scope="module")
def hard_two_qubit_rows():
    return hard_x_matrices(np.random.default_rng(29), 2, max(_TWO_QUBIT_MISSES) + 1)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the two-qubit search has no seed start")
@pytest.mark.parametrize("row", list(_TWO_QUBIT_MISSES))
def test_default_search_reaches_a_dense_search_on_hard_two_qubit_rows(hard_two_qubit_rows, row):
    j_a = classical_correlation_stack(StateStack(hard_two_qubit_rows[row : row + 1], 2, 2))["classical_correlation"]
    assert j_a[0] > _TWO_QUBIT_MISSES[row] - 1e-12


def _seed_starts(monkeypatch):
    """For each climb, the number of grid peaks climbed, and the start values
    and results of all its ascents, the seed's last where it is climbed."""
    seen = []

    def grid_peaks(values, run=infoquant._grid_peaks):
        peaks = run(values)
        seen.append([len(cells) for cells in peaks])
        return peaks

    def climb(objective, rows, values, frames, radius, run=infoquant._climb):
        best, at, rounds = run(objective, rows, values, frames, radius)
        seen[-1] = (seen[-1][0], values.tolist(), best.tolist())
        return best, at, rounds

    monkeypatch.setattr(infoquant, "_grid_peaks", grid_peaks)
    monkeypatch.setattr(infoquant, "_climb", climb)
    return seen


def test_the_seed_is_climbed_only_where_it_beats_the_grid(monkeypatch):
    seen = _seed_starts(monkeypatch)
    # hard row 540 (rng 31, dB = 4), whose optimum only the seed reaches
    won = DensityMatrix(hard_x_matrices(np.random.default_rng(31), 4, 541)[540], 2, 4)
    report = classical_correlation(won)
    (peaks, starts, ends), = seen
    assert len(starts) == peaks + 1 and starts[-1] > report.grid_best
    assert ends[-1] > max(ends[:-1]) + IMPROVE_ATOL and report.classical_correlation == ends[-1]
    # a random full-rank state whose grid maximum is above every seed's value
    seen.clear()
    beaten = random_density_matrix(np.random.default_rng(7), dB=4)
    report = classical_correlation(beaten)
    (peaks, starts, ends), = seen
    objective = _general_objective(beaten.stack, _state_entropies(beaten.stack)[2])
    scores = objective.values(slice(0, 1), objective.seeds(slice(0, 1)))
    assert len(starts) == peaks and scores.max() <= report.grid_best


def test_a_stack_climbs_each_seed_after_its_row_grid_peaks(monkeypatch):
    # Climb blocks of three dB = 4 rows: hard row 540 (rng 31), whose seed
    # beats the grid, first in the first block, in the middle of the second
    # and last in the third, among random full-rank rows whose grids beat
    # their seeds; the fourth block climbs no seed.
    won = hard_x_matrices(np.random.default_rng(31), 4, 541)[540]
    rng = np.random.default_rng(7)
    draws = [random_density_matrix(rng, dB=4).mat for _ in range(11)]
    beaten = [draws[k] for k in (0, 1, 2, 4, 5, 6, 8, 10)]
    mats = np.array([won, *beaten[:3], won, *beaten[3:6], won, *beaten[6:]])
    singles = [classical_correlation(DensityMatrix(m, 2, 4)) for m in mats]
    peaks, climbs = [], []

    def grid_peaks(values, run=infoquant._grid_peaks):
        found = run(values)
        peaks.extend(cells.tolist() for cells in found)
        return found

    def climb(objective, rows, values, frames, radius, run=infoquant._climb):
        climbs.append((rows.tolist(), frames.copy()))
        return run(objective, rows, values, frames, radius)

    monkeypatch.setattr(infoquant, "_CLIMB_ROWS", 3)
    monkeypatch.setattr(infoquant, "_grid_peaks", grid_peaks)
    monkeypatch.setattr(infoquant, "_climb", climb)
    states = StateStack(mats, 2, 4)
    stacked = classical_correlation_stack(states)
    for k, one in enumerate(singles):
        for key, col in stacked.items():
            assert np.asarray(col[k]).tobytes() == np.asarray(one[key]).tobytes(), (k, key)
    # each row's starts: its grid peaks' frames in order, then its seed
    assert len(climbs) == 4
    rows = [k for block, _ in climbs for k in block]
    frames = np.concatenate([block for _, block in climbs])
    assert rows == sorted(rows)
    objective = _general_objective(states, _state_entropies(states)[2])
    seeds = objective.seeds(slice(None))
    scores = objective.values(slice(None), seeds).max(axis=1)
    grid = infoquant._grid_frames(6, 12)
    at, seeded = 0, []
    for k, cells in enumerate(peaks):
        np.testing.assert_array_equal(frames[at : at + len(cells)], grid[cells])
        at += len(cells)
        if rows.count(k) > len(cells):
            seeded.append(k)
            assert any(np.array_equal(frames[at, 0], n) for n in seeds[:, k].T)
            at += 1
    assert at == len(rows) and seeded == [0, 4, 8]
    assert list(np.flatnonzero(scores > stacked["grid_best"])) == seeded


def test_a_wide_memory_j_a_makes_few_model_calls(monkeypatch):
    # A converged ascent ends without modelling the centre of its last step,
    # and the seed climbs only where it beats the grid: about three model
    # calls a row at dB = 4, where modelling every centre and climbing every
    # seed takes 4.2 to 4.4.
    calls = []

    def build(states, s_b, run=_general_objective):
        objective = run(states, s_b)
        return objective._replace(model=lambda rows, frames: calls.append(len(rows)) or objective.model(rows, frames))

    monkeypatch.setattr(infoquant, "_general_objective", build)
    rng = np.random.default_rng(163)
    for _ in range(64):
        classical_correlation(random_density_matrix(rng, dB=4))
    assert len(calls) / 64 <= 3.3


def test_classical_correlation_wide_memory_never_below_pauli_axes():
    rng = np.random.default_rng(59)
    axes = [pauli_observable(a) for a in "xyz"]
    for _ in range(3):
        rho = random_density_matrix(rng, dB=4)
        report = classical_correlation(rho)
        assert report.classical_correlation >= max(holevo(rho, a) for a in axes) - 1e-9
        assert report.classical_correlation + report.discord == pytest.approx(
            evaluate(rho, X, Z).i_ab, abs=1e-9
        )


def test_classical_correlation_bell_diagonal_closed_form():
    rng = np.random.default_rng(43)
    for _ in range(10):
        r = random_bell_diagonal_r(rng)
        rho = bell_diagonal(r)
        report = classical_correlation(rho)
        expected = 1.0 - binary_entropy((1.0 + np.max(np.abs(r))) / 2.0)
        assert report.classical_correlation == pytest.approx(expected, abs=1e-12)
        assert report.classical_correlation + report.discord == pytest.approx(
            evaluate(rho, X, Z).i_ab, abs=1e-9
        )


def test_classical_correlation_product_state_zero():
    rng = np.random.default_rng(47)
    report = classical_correlation(random_product_state(rng))
    assert report.classical_correlation == pytest.approx(0.0, abs=1e-9)
    assert report.discord == pytest.approx(0.0, abs=1e-9)
    assert report.classical_correlation >= 0.0
    assert report.discord >= -1e-9


def test_classical_correlation_x_state_attained_by_sigma_x():
    for p in (0.1, 0.5, 0.9):
        rho = x_state_special(p)
        report = classical_correlation(rho)
        assert report.classical_correlation == pytest.approx(
            holevo(rho, pauli_observable("x")), abs=1e-12
        )


def test_classical_correlation_never_below_pauli_axes():
    rng = np.random.default_rng(53)
    axes = [pauli_observable(a) for a in "xyz"]
    for _ in range(10):
        rho = random_density_matrix(rng)
        report = classical_correlation(rho)
        best_axis = max(holevo(rho, a) for a in axes)
        assert report.classical_correlation >= best_axis - 1e-9
        assert report.refined_best >= report.grid_best - 1e-15


def test_classical_correlation_werner_singlet():
    report = classical_correlation(werner(1.0))
    assert report.classical_correlation == pytest.approx(1.0, abs=1e-9)
    assert report.discord == pytest.approx(1.0, abs=1e-9)


def test_classical_correlation_requires_qubit_a():
    rho = maximally_mixed(3, 3)
    with pytest.raises(ValueError, match="dA = 2"):
        classical_correlation(rho)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_theta=1)
    with pytest.raises(ValueError, match="grid_phi must be even, got 25"):
        OptimizerConfig(grid_phi=25)
    OptimizerConfig(60, 120)
    OptimizerConfig(256, 256)
    with pytest.raises(ValueError, match="258 = 66048 points is above the limit of 65536"):
        OptimizerConfig(256, 258)
    # each field an integer, named when it is not; numpy integers pass as ints
    for args, message in (
        ((12.5, 24), "grid_theta must be an integer, got 12.5"),
        ((12, 24.0), "grid_phi must be an integer, got 24.0"),
        (("12", 24), "grid_theta must be an integer, got '12'"),
        ((True, 24), "grid_theta must be an integer, got True"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimizerConfig(*args)
    cfg = OptimizerConfig(np.int64(12), np.int32(24))
    assert cfg == OptimizerConfig() and type(cfg.grid_theta) is type(cfg.grid_phi) is int


@pytest.mark.parametrize("config", ["12", (12, 24)])
def test_classical_correlation_rejects_a_config_that_is_not_an_optimizer_config(config):
    with pytest.raises(TypeError, match="config must be an OptimizerConfig or None"):
        classical_correlation(werner(0.5), config)
    with pytest.raises(TypeError, match="config must be an OptimizerConfig or None"):
        classical_correlation_stack(werner(0.5).stack, config)


def test_classical_correlation_coarse_grid_still_converges():
    cfg = OptimizerConfig(grid_theta=10, grid_phi=20)
    rho = bell_diagonal((0.5, 0.3, 0.1))
    report = classical_correlation(rho, cfg)
    assert report.classical_correlation == pytest.approx(
        1.0 - binary_entropy(0.75), abs=1e-6
    )


def _synthetic_grids(shape):
    """Named test landscapes on a hemisphere grid, with the flat index of
    the first equator cell."""
    dirs = _hemisphere_grid(*shape)[1]
    nx, ny, nz = dirs
    equator_row = (shape[0] - 1) * shape[1]
    rng = np.random.default_rng(67)
    phi = 2.0 * np.pi * 3 / shape[1]
    inner = equator_row - 3 * shape[1] + 3
    grids = {
        "plateau": 0.3 + 1e-15 * rng.standard_normal(nx.size),
        "pole": nz**2,
        "equator": (np.cos(phi) * nx + np.sin(phi) * ny) ** 2,
        "pole saddle": nx**2 - ny**2,
        "inner bump": (dirs[:, inner] @ dirs) ** 2,
        "equator ridge": nx**2 + ny**2,
        "meridian ridge": ny**2 + nz**2,
        "two bumps": np.maximum(np.exp(-8.0 * (1.0 - nz**2)), 0.9 * np.exp(-8.0 * (1.0 - nx**2))),
    }
    # the pole copies rounded apart, so that only some of them pass the peak test
    pole_noise = np.zeros(nx.size)
    pole_noise[: shape[1]] = 1e-12 * rng.standard_normal(shape[1])
    grids["two bumps, pole rounded"] = grids["two bumps"] + pole_noise
    # an equator cell below its next cell by 1e-12, and its antipode level
    # with that cell, so that only the antipode passes the peak test
    pair = np.zeros(nx.size)
    pair[equator_row + 3 : equator_row + 5] = 1.0, 1.0 + 1e-12
    pair[equator_row + shape[1] // 2 + 3] = 1.0 + 1e-12
    grids["equator pair rounded"] = pair
    return {name: v.reshape(shape) for name, v in grids.items()}, equator_row


def _peaks(values):
    """``_grid_peaks`` of one grid, as a one-grid stack."""
    return _grid_peaks(values[None])[0]


def test_sphere_neighbourhood_reduces_every_neighbour():
    rng = np.random.default_rng(29)
    for rows, cols in ((12, 24), (5, 8)):
        grids = rng.normal(size=(3, rows, cols))
        got = _sphere_neighbourhood(grids)
        for grid, out in zip(grids, got):
            want = np.array(
                [[max(grid[c] for c in neighbourhood_cells(i, j, rows, cols)) for j in range(cols)]
                 for i in range(rows)]
            )
            # the pole row is one cell, whose neighbourhood is rows 0 and 1
            want[0] = want[0].max()
            np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(_sphere_neighbourhood(grids[0]), got[0])


def test_grid_peaks_follow_the_sphere():
    cfg = OptimizerConfig()
    shape = (cfg.grid_theta, cfg.grid_phi)
    grids, equator_row = _synthetic_grids(shape)

    def best_first(values, peaks):
        # _MAX_STARTS maxima, within the peak tolerance of the grid's best
        tops = values.flat[peaks]
        full = len(peaks) == infoquant._MAX_STARTS
        return full and (np.diff(tops) <= 0.0).all() and tops[-1] >= values.max() - IMPROVE_ATOL

    # a plateau at the noise level: every cell is a maximum, the best first
    assert best_first(grids["plateau"], _peaks(grids["plateau"]))
    # the pole row is one cell
    np.testing.assert_array_equal(_peaks(grids["pole"]), [0])
    # an equator maximum and its antipode are one peak
    np.testing.assert_array_equal(_peaks(grids["equator"]), [equator_row + 3])
    # a saddle at the pole is no peak
    np.testing.assert_array_equal(_peaks(grids["pole saddle"]), [equator_row])
    # a bump three rows above the equator is one peak: the equator cells
    # across the wrap from it see its slope
    inner = equator_row - 3 * shape[1] + 3
    np.testing.assert_array_equal(_peaks(grids["inner bump"]), [inner])
    # ridges along the equator and along a meridian through the pole: the
    # best of their cells, with the pole row and each equator pair once
    for ridge in ("equator ridge", "meridian ridge"):
        assert best_first(grids[ridge], _peaks(grids[ridge]))
    np.testing.assert_array_equal(_peaks(grids["equator ridge"]), equator_row + np.arange(3))
    np.testing.assert_array_equal(_peaks(grids["meridian ridge"]), [0, 3 * shape[1] + 6, 4 * shape[1] - 6])
    # two separated bumps: two peaks, the higher first
    np.testing.assert_array_equal(_peaks(grids["two bumps"]), [0, equator_row])
    # the pole is one peak, at its first cell, where rounding lets only
    # some of its copies pass the peak test
    pole_row = grids["two bumps, pole rounded"][0]
    assert not (pole_row >= pole_row.max() - IMPROVE_ATOL).all()
    np.testing.assert_array_equal(_peaks(grids["two bumps, pole rounded"]), [0, equator_row])
    # an equator pair counts at its first cell when only its antipode passes
    np.testing.assert_array_equal(_peaks(grids["equator pair rounded"])[:2], [equator_row + 4, equator_row + 3])


@pytest.mark.parametrize("shape", [(12, 24), (60, 120)])
def test_grid_peaks_match_a_brute_force_reference(shape):
    grids = list(_synthetic_grids(shape)[0].values())
    dirs = _hemisphere_grid(*shape)[1]
    for family in ("werner", "bell_diagonal_special", "xstate"):
        states = family_stack(family, np.linspace(0.0, 1.0, 101))
        objective = _two_qubit_objective(states, _state_entropies(states)[2]).values
        for k in range(len(states)):
            grids.append(objective(slice(k, k + 1), dirs[:, None]).reshape(shape))
    # one grid at a time, and stacks of 16 grids, as the peak test's chunks
    want = [brute_force_grid_peaks(values) for values in grids]
    for values, peaks in zip(grids, want):
        np.testing.assert_array_equal(_peaks(values), peaks)
    for start in range(0, len(grids), 16):
        for got, peaks in zip(_grid_peaks(np.array(grids[start : start + 16])), want[start:]):
            np.testing.assert_array_equal(got, peaks)


@pytest.mark.parametrize("lift", [-1e-3, 0.5 * IMPROVE_ATOL, 10.0 * IMPROVE_ATOL])
def test_search_keeps_first_start_unless_a_later_one_gains_beyond_noise(lift):
    # A grid maximum at the pole, and a bump of height 1 + lift half a grid
    # step off the grid in both angles.
    cfg = OptimizerConfig()
    angles, _ = _hemisphere_grid(cfg.grid_theta, cfg.grid_phi)
    st, sp = (np.pi / 2.0) / (cfg.grid_theta - 1), (2.0 * np.pi) / cfg.grid_phi
    theta, phi = angles[9 * cfg.grid_phi + 6]
    centre = _directions(np.array([[theta + 0.5 * st, phi + 0.5 * sp]]))[:, 0]

    # Each bump is h exp(-8 |c x n|^2), |c x n|^2 = 1 - (c.n)^2 on the sphere
    # but rounded to well under 1e-15 near its peak.
    bumps = [(1.0, np.array([0.0, 0.0, 1.0])), (1.0 + lift, centre)]

    def function(dirs):
        n = np.moveaxis(dirs, 0, -1)
        return np.maximum(*(h * np.exp(-8.0 * (np.cross(c, n) ** 2).sum(axis=-1)) for h, c in bumps))

    def derivatives(n):
        # on R^3, s = |c x n|^2 has gradient 2 (n - (c.n) c) and Hessian
        # 2 (I - c c^T); f = h exp(-8 s) those of the larger bump
        fits = []
        for h, c in bumps:
            f = h * np.exp(-8.0 * (np.cross(c, n) ** 2).sum(axis=-1))
            ds = 2.0 * (n - (n @ c)[:, None] * c)
            hess = f[:, None, None] * (64.0 * ds[:, :, None] * ds[:, None, :] - 16.0 * (np.eye(3) - np.outer(c, c)))
            fits.append((f, -8.0 * f[:, None] * ds, hess))
        pick = fits[1][0] > fits[0][0]
        return tuple(np.where(pick.reshape((-1,) + (1,) * (a.ndim - 1)), b, a) for a, b in zip(*fits))

    value, direction, grid_best, _ = _row_search(sphere_objective(function, derivatives), cfg)
    assert grid_best == 1.0
    if lift > IMPROVE_ATOL:
        assert value == pytest.approx(1.0 + lift, abs=1e-15)
        np.testing.assert_allclose(direction, centre, atol=1e-12)
    else:
        assert value == 1.0
        np.testing.assert_array_equal(direction, [0.0, 0.0, 1.0])


def test_ascent_converges_quadratically_on_a_quadratic_form():
    # n.M n peaks at the top eigenvector of M; its tangent Hessian there has
    # two different curvatures, and a cross term in a generic chart.
    rng = np.random.default_rng(97)
    for _ in range(10):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        m = q @ np.diag([1.0, 0.6, 0.2]) @ q.T
        objective = sphere_objective(
            lambda dirs: np.einsum("i...,ij,j...->...", dirs, m, dirs),
            lambda n: (np.einsum("ai,ij,aj->a", n, m, n), 2.0 * n @ m, np.broadcast_to(2.0 * m, (len(n), 3, 3))),
        )
        value, direction, _, rounds = _row_search(objective)
        assert rounds <= 4
        assert value == pytest.approx(1.0, abs=1e-15)
        assert abs(direction @ q[:, 0]) == pytest.approx(1.0, abs=1e-12)


def _two_peak_state():
    """dB = 4, rank 3: grid maxima 0.47362 and 0.47304, and J_A 0.475575 is
    reached only from the second (one start ends at 0.474446)."""
    rng = np.random.default_rng(99)
    for dB in (2, 3, 4):
        for rank in (1, 2, 3, None):
            d = 2 * dB
            for i in range(60):
                g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
                if (dB, rank, i) == (4, 3, 56):
                    m = g @ g.conj().T
                    return DensityMatrix(m / np.trace(m).real, 2, dB)


def test_classical_correlation_reaches_dense_reference():
    rng = np.random.default_rng(71)
    per_rank = {2: 13, 3: 4, 4: 4}
    states = [
        random_density_matrix(rng, dB=dB, rank=rank)
        for dB, count in per_rank.items()
        for rank in (1, 2, 3, None)
        for _ in range(count)
    ]
    states.append(_two_peak_state())
    for rho in states:
        report = classical_correlation(rho)
        assert report.classical_correlation >= dense_reference_j_a(rho) - 1e-12


def _tangent_circle(n, angle, count):
    """``count`` unit vectors at ``angle`` from the unit vector n, evenly spread."""
    axis = np.eye(3)[np.argmin(np.abs(n))]
    u = np.cross(n, axis)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    turns = 2.0 * np.pi * np.arange(count) / count
    ring = np.outer(np.cos(turns), u) + np.outer(np.sin(turns), v)
    return np.cos(angle) * n + np.sin(angle) * ring


def test_classical_correlation_is_locally_optimal():
    # Checked through ``holevo`` on explicit observables, not the model.
    rng = np.random.default_rng(73)
    for dB in (2, 3, 4):
        for rank in range(1, 2 * dB + 1):
            for _ in range(3 if dB == 2 else 1):
                rho = random_density_matrix(rng, dB=dB, rank=rank)
                report = classical_correlation(rho)
                for n in _tangent_circle(report.optimal_direction, 1e-3, 16):
                    n /= np.linalg.norm(n)
                    assert holevo(rho, observable_from_bloch(n)) <= (
                        report.classical_correlation + 1e-13
                    )


def _cq_state(rng, dB, p):
    """p |0><0| (x) sigma_0 + (1 - p) |1><1| (x) sigma_1 and its J_A, the
    Holevo quantity of {p, sigma_0; 1 - p, sigma_1}, reached at the pole."""
    sigmas = [random_density_matrix(rng, 1, dB).mat for _ in range(2)]
    cq = np.zeros((2 * dB, 2 * dB), dtype=complex)
    cq[:dB, :dB], cq[dB:, dB:] = p * sigmas[0], (1.0 - p) * sigmas[1]
    rho = DensityMatrix(cq, 2, dB)
    chi = von_neumann_entropy(rho.reduced_b()) - sum(
        w * von_neumann_entropy(sigma) for w, sigma in zip((p, 1.0 - p), sigmas)
    )
    return rho, chi


def _degenerate_states():
    rng = np.random.default_rng(79)
    states = []
    for dB in (2, 3, 4):
        vec = rng.normal(size=2 * dB) + 1j * rng.normal(size=2 * dB)
        states.append(pure_state(vec, 2, dB))
        states.append(maximally_mixed(2, dB))
        b = random_density_matrix(rng, 1, dB).mat
        states.append(DensityMatrix(np.kron(random_single_qubit_density(rng), b), 2, dB))
        states.append(_cq_state(rng, dB, 0.3)[0])
    for family in (werner, bell_diagonal_special, x_state_special):
        states += [family(p) for p in (0.0, 1e-13, 1.0 - 1e-13, 1.0)]
    return states


def test_classical_correlation_degenerate_inputs_stay_finite():
    for rho in _degenerate_states():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classical_correlation(rho)
        fields = (report.classical_correlation, report.discord, report.refined_best)
        assert np.all(np.isfinite(fields)) and np.all(np.isfinite(report.optimal_direction))
        assert report.classical_correlation >= dense_reference_j_a(rho) - 1e-12


def _model_in_calls(objective, rows, frames, size):
    """``objective.model`` of the centres of ``rows`` and ``frames`` (A, 3, 3),
    in calls of ``size`` centres, as one (A, 6) array."""
    calls = range(0, len(rows), size)
    return np.array([m for k in calls for m in objective.model(rows[k : k + size], frames[k : k + size])])


def test_two_qubit_scalar_model_matches_the_array_form():
    # The two forms run the same operations in the same order, with numpy's
    # log2 in both, so they agree bit for bit, NaN in the same places: on
    # 270 centres of random states of ranks 2 to 4 and the three families,
    # and on the two-qubit cusp states at 16 directions and the pole.
    rng = np.random.default_rng(149)
    states = [random_density_matrix(rng, rank=rank) for rank in (2, 3, 4) for _ in range(20)]
    for family in ("werner", "bell_diagonal_special", "xstate"):
        stack = family_stack(family, rng.random(10))
        states += [DensityMatrix(mat, 2, 2) for mat in stack.mats]
    cusps = [rho for _, rho, _ in _cusp_states() if rho.dB == 2]
    stack = _stack_of(states + cusps)
    objective = _two_qubit_objective(stack, _state_entropies(stack)[2])
    rows = np.concatenate([np.repeat(np.arange(len(states)), 3), np.repeat(np.arange(len(states), len(stack)), 17)])
    dirs = _unit_directions(rng, len(rows)).T
    dirs[3 * len(states) + 16 :: 17] = (0.0, 0.0, 1.0)
    frames = np.array([_tangent_frame(*n) for n in dirs.tolist()])
    array = _model_in_calls(objective, rows, frames, len(rows))
    assert len(rows) > infoquant._FLOAT_CENTRES and len(cusps) == 5
    assert np.isfinite(array[: 3 * len(states)]).all() and np.isnan(array[3 * len(states) :]).any()
    for size in (1, infoquant._FLOAT_CENTRES):
        np.testing.assert_array_equal(_model_in_calls(objective, rows, frames, size), array)


@pytest.mark.parametrize("dB", [2, 3, 4])
def test_model_values_are_the_objective_values(dB):
    # The ascent accepts or rejects each step on model values, so a model
    # value must be the objective's value at its centre: measured within
    # 7.8e-16 for two qubits, and within 1.33e-15
    # (3 ulps of S(rho^B) <= 2) for the LAPACK form, whose eigh and
    # eigvalsh round the same spectrum differently, on full-rank states.
    rng = np.random.default_rng(163 + dB)
    stack = _stack_of([random_density_matrix(rng, dB=dB) for _ in range(256)])
    dirs = _unit_directions(rng, len(stack))
    frames = [_tangent_frame(*n) for n in dirs.T.tolist()]
    rows = np.arange(len(stack))
    builds = [(_general_objective, 2e-15)] + ([(_two_qubit_objective, 1e-15)] if dB == 2 else [])
    for build, tol in builds:
        objective = build(stack, _state_entropies(stack)[2])
        values = objective.values(rows, dirs[:, :, None])[:, 0]
        for size in (len(rows), 1):
            model = _model_in_calls(objective, rows, np.array(frames), size)
            np.testing.assert_array_less(np.abs(model[:, 0] - values), tol, err_msg=build.__name__)


def _cusp_states():
    """States where an exact model meets a cusp or a kernel, with whether
    its model at every direction is finite: pure states (e- = 0 for two
    qubits, a kernel of omega at dB >= 3), the singlet, Werner at p = 0
    (x = 0), product states with a pure rho^A (an outcome of probability 0
    at the pole), and rank-1 and rank-2 states at dB >= 3."""
    rng = np.random.default_rng(151)
    yield "singlet", werner(1.0), False
    yield "werner 0", werner(0.0), False
    for dB in (2, 3, 4):
        vec = rng.normal(size=2 * dB) + 1j * rng.normal(size=2 * dB)
        yield f"pure dB={dB}", pure_state(vec, 2, dB), dB > 2
        b = random_density_matrix(rng, 1, dB).mat
        yield f"pure A dB={dB}", DensityMatrix(np.kron(np.diag([1.0, 0.0]), b), 2, dB), None
        yield f"product dB={dB}", DensityMatrix(np.kron(random_single_qubit_density(rng), b), 2, dB), True
    for dB in (3, 4):
        for rank in (1, 2):
            yield f"rank {rank} dB={dB}", random_density_matrix(rng, dB=dB, rank=rank), True


def _climbed_rows(monkeypatch):
    """The state row of every start that ``_climb`` is given."""
    rows = []

    def climb(objective, starts, values, frames, radius, run=infoquant._climb):
        rows.extend(starts.tolist())
        return run(objective, starts, values, frames, radius)

    monkeypatch.setattr(infoquant, "_climb", climb)
    return rows


@pytest.mark.parametrize("name, rho, finite", list(_cusp_states()), ids=lambda v: v if isinstance(v, str) else "")
def test_exact_models_at_cusps_and_kernels(monkeypatch, name, rho, finite):
    # No warning; a model that is not finite where it meets a cusp, so that
    # the ascent stops at its grid peak; a finite model at a kernel, whose
    # dropped terms cancel.  Where the objective is constant (all but the
    # rank-2 states) each start on the grid's plateau stops in round 1 at its
    # grid value, and for dB >= 3 no seed beats it, so none is climbed.
    states = rho.stack
    build = _two_qubit_objective if rho.dB == 2 else _general_objective
    objective = build(states, _state_entropies(states)[2])
    frames = np.array([_tangent_frame(*n) for n in _unit_directions(np.random.default_rng(157), 16).T.tolist()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        models = objective.model(np.zeros(len(frames), dtype=int), frames)
        pole = objective.model([0], [_tangent_frame(0.0, 0.0, 1.0)])
        starts = _climbed_rows(monkeypatch)
        report = classical_correlation(rho)
    if finite is not None:
        assert np.isfinite(models).all() == finite
    else:
        # pure rho^A: finite off the pole, not at it (probability 0 there)
        assert np.isfinite(models).all() and not np.isfinite(pole).all()
    if not name.startswith("rank 2"):
        assert report.iterations == len(starts)
        assert report.refined_best == report.grid_best


@pytest.mark.parametrize("family", ["werner", "bell_diagonal_special", "xstate"])
def test_preset_family_rows_stop_in_round_one(monkeypatch, family):
    # each start stops in round 1, at its grid value: a row's model rounds
    # are its starts
    starts = _climbed_rows(monkeypatch)
    corr = classical_correlation_stack(family_stack(family, np.linspace(0.0, 1.0, 101)))
    np.testing.assert_array_equal(corr["iterations"], np.bincount(starts, minlength=101))
    np.testing.assert_array_equal(corr["refined_best"], corr["grid_best"])


@pytest.mark.parametrize("dB, shape", [(2, None), (2, (6, 12)), (3, None), (4, None)])
def test_j_a_is_invariant_under_local_unitaries(dB, shape):
    # The families conjugated by U_A (x) U_B, with B embedded in C^dB for
    # dB > 2 (U_B an isometry): their plateaus and ridges tilt off the grid,
    # where each gives several grid maxima.  Worst gaps when this test was
    # written: 7.4e-15 at dB = 2 (9 090 rows), 6.1e-15 with 6 x 12, 5.6e-14
    # with B embedded.
    rng = np.random.default_rng(173 + dB)
    cfg = shape and OptimizerConfig(*shape)
    rotations = 30 if dB == 2 else 4
    for family in ("werner", "bell_diagonal_special", "xstate"):
        states = family_stack(family, np.linspace(0.0, 1.0, 101))
        want = classical_correlation_stack(states)["classical_correlation"]
        mats = []
        for _ in range(rotations):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, dB)[:, :2])
            mats.append(u @ states.mats @ u.conj().T)
        got = classical_correlation_stack(StateStack(np.concatenate(mats), 2, dB), cfg)["classical_correlation"]
        np.testing.assert_allclose(got, np.tile(want, rotations), rtol=0.0, atol=1e-12, err_msg=family)


def test_classical_correlation_classical_quantum_state_at_the_pole():
    rng = np.random.default_rng(83)
    for dB in (2, 3, 4):
        rho, chi = _cq_state(rng, dB, 0.4)
        assert classical_correlation(rho).classical_correlation == pytest.approx(chi, abs=1e-12)


def _quadratic(g, hess, s):
    return g @ s + 0.5 * s @ hess @ s


@pytest.mark.parametrize("case", range(60))
def test_trust_step_maximises_the_quadratic_model(case):
    rng = np.random.default_rng(89 + case)
    radius = 10.0 ** rng.uniform(-6, 0)
    q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    curvatures = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 2, size=2)
    if case % 4 == 1:
        curvatures = -np.abs(curvatures)
    hess = q @ np.diag(curvatures) @ q.T
    g = rng.normal(size=2) * 10.0 ** rng.uniform(-6, 1)
    if case % 4 == 2:
        # the hard case: g has no component along the top eigenvector
        g = q[:, np.argmin(curvatures)] * rng.normal()
    if case % 4 == 3:
        g = np.zeros(2)
    s1, s2, gain, boundary = _trust_step(*g, hess[0, 0], hess[0, 1], hess[1, 1], radius)
    s = np.array([s1, s2])
    assert np.hypot(s1, s2) <= radius * (1.0 + 1e-12)
    assert gain == pytest.approx(_quadratic(g, hess, s), rel=1e-12, abs=1e-300)
    # the best point of a fine ring at the boundary, and the interior Newton step
    turns = np.linspace(0.0, 2.0 * np.pi, 20001)
    candidates = list(radius * np.column_stack([np.cos(turns), np.sin(turns)]))
    if np.all(curvatures < 0.0):
        newton = np.linalg.solve(-hess, g)
        if np.hypot(*newton) <= radius:
            candidates.append(newton)
    best = max(_quadratic(g, hess, c) for c in candidates)
    scale = np.linalg.norm(g) * radius + np.abs(curvatures).max() * radius**2
    assert gain >= best - 1e-9 * scale
    if np.max(curvatures) >= 0.0:
        assert boundary and np.hypot(s1, s2) == pytest.approx(radius, rel=1e-9)
