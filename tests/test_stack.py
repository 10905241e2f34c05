"""The stacked evaluation: row k of a stack equals the one-row call on state k.

Every field is compared bit for bit: the one-row calls are views of the
stacked functions, and a row's per-element arithmetic does not depend on
the rows around it (no reduction or BLAS call mixes rows, and each row's
matrix products go through the same kernel).
"""

import copy
import itertools
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from eurmem import infoquant
from eurmem.apps import _verdict, applications_report, applications_table, witness
from eurmem.bounds import actual_uncertainty, bounds_report, bounds_table, closed_form_curves
from eurmem.infoquant import (
    _CALL_VALUES,
    _CLIMB_ROWS,
    OptimizerConfig,
    _canonical_directions,
    _hemisphere_grid,
    classical_correlation,
    classical_correlation_stack,
    evaluate,
    evaluate_stack,
)
from eurmem.matops import hermitian_eigvals
from eurmem.measure import ProjectiveObservable, pauli_observable
from eurmem.states import (
    ONE_PARAMETER_FAMILIES,
    DensityMatrix,
    Row,
    StateStack,
    StateValidationError,
    family_stack,
    validate,
    werner,
)

from helpers import random_density_matrix, random_observable

FAMILY_PS = [0.0, 1e-13] + [0.01 * k for k in range(1, 100)] + [1.0 - 1e-13, 1.0]


def _random_corpus(dB, count, seed, dA=2):
    rng = np.random.default_rng(seed)
    ranks = [None, 1, 2, 3]
    return [random_density_matrix(rng, dA, dB, ranks[k % 4]) for k in range(count)]


def _corpora():
    yield "random dB=2", _random_corpus(2, 40, 3)
    yield "random dB=4", _random_corpus(4, 12, 5)
    for name, build in ONE_PARAMETER_FAMILIES.items():
        yield name, [build(p) for p in FAMILY_PS]


def _stack(states):
    return StateStack(np.array([rho.mat for rho in states]), states[0].dA, states[0].dB)


def _assert_rows_match(stacked, single, where):
    for key, want in single.items():
        got = stacked[key]
        if want is None:
            assert got is None, (where, key)
        elif isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want, err_msg=f"{where} {key}")
        else:
            assert got == want, (where, key, got, want)


def _table_row(table, k):
    return {key: col[k] for key, col in table.items()}


def _correlation_fields(report):
    return {
        "classical_correlation": report.classical_correlation,
        "discord": report.discord,
        "grid_best": report.grid_best,
        "refined_best": report.refined_best,
        "iterations": report.iterations,
        "optimal_direction": report.optimal_direction,
    }


@pytest.mark.parametrize("name, states", list(_corpora()), ids=lambda v: v if isinstance(v, str) else "")
def test_stack_rows_equal_one_row_calls(name, states):
    rng = np.random.default_rng(len(states))
    x, z = random_observable(rng), random_observable(rng)
    # one observable pair for all rows, and one pair per row
    per_row = [(random_observable(rng), random_observable(rng)) for _ in states]
    xs, zs = [list(t) for t in zip(*per_row)]
    stack = _stack(states)
    corr = classical_correlation_stack(stack)
    shared = bounds_table(stack, x, z, corr)
    varying = bounds_table(stack, xs, zs, corr)
    apps = applications_table(stack, x, z)
    for k, rho in enumerate(states):
        one = classical_correlation(rho)
        _assert_rows_match(_table_row(corr, k), _correlation_fields(one), f"{name} row {k}")
        for table, (xk, zk) in ((shared, (x, z)), (varying, (xs[k], zs[k]))):
            row = {key: None if col is None else float(col[k]) for key, col in table.items()}
            _assert_rows_match(row, bounds_report(rho, xk, zk, one).to_dict(), f"{name} row {k}")
        row = {key: col[k].item() for key, col in apps.items()}
        _assert_rows_match(row, applications_report(rho, x, z), f"{name} row {k}")


def test_random_two_qubit_stack_models_round_one_as_arrays(monkeypatch):
    # The row test above compares the two-qubit array model (round 1 of the
    # stack, over all its grid peaks) with the plain-float one (every
    # one-row call) only while the stack has more grid peaks than the
    # plain-float limit.
    calls, array_model = [], infoquant._two_qubit_model
    monkeypatch.setattr(
        infoquant, "_two_qubit_model", lambda q, rows, *rest: calls.append(len(rows)) or array_model(q, rows, *rest)
    )
    states = dict(_corpora())["random dB=2"]
    classical_correlation_stack(_stack(states))
    assert calls and calls[0] > infoquant._FLOAT_CENTRES
    calls.clear()
    for rho in states:
        classical_correlation(rho)
    assert calls == []


@pytest.mark.parametrize("name, states", list(_corpora()), ids=lambda v: v if isinstance(v, str) else "")
def test_stack_rows_do_not_depend_on_row_order(name, states):
    x, z = pauli_observable("x"), pauli_observable("z")
    forward, backward = (
        {
            **bounds_table(s, x, z, classical_correlation_stack(s)),
            **applications_table(s, x, z),
        }
        for s in (_stack(states), _stack(states[::-1]))
    )
    for key, column in forward.items():
        np.testing.assert_array_equal(column, backward[key][::-1], err_msg=key)


@pytest.mark.parametrize("dB", [2, 3])
def test_qutrit_stack_rows_equal_one_row_calls(dB):
    # J_A and the application bounds take dA = 2 only.  Qutrit X and Z, one
    # pair for all rows, one pair per row, or a mix, give conditional_stack's
    # product complex weights on k d = 6 outcomes.
    states = _random_corpus(dB, 16, 40 + dB, dA=3)
    rng = np.random.default_rng(dB)
    x, z = random_observable(rng, 3), random_observable(rng, 3)
    xs, zs = ([random_observable(rng, 3) for _ in states] for _ in range(2))
    stack = _stack(states)
    for xa, za in ((x, z), (xs, zs), (x, zs)):
        ev, bounds = evaluate_stack(stack, xa, za), bounds_table(stack, xa, za)
        for k, rho in enumerate(states):
            xk, zk = (o[k] if isinstance(o, list) else o for o in (xa, za))
            where = f"dA=3 dB={dB} row {k}"
            _assert_rows_match(_table_row(ev, k), evaluate(rho, xk, zk), where)
            row = {key: None if col is None else float(col[k]) for key, col in bounds.items()}
            _assert_rows_match(row, bounds_report(rho, xk, zk).to_dict(), where)


@pytest.mark.parametrize("dB", [2, 3])
def test_every_stacked_call_on_an_empty_stack_returns_empty_columns(dB):
    # the same keys as on one row, each column of 0 rows (None stays None)
    one = _random_corpus(dB, 1, 29)[0].stack
    empty = family_stack("werner", []) if dB == 2 else StateStack(np.zeros((0, 2 * dB, 2 * dB)), 2, dB)
    x, z = pauli_observable("x"), pauli_observable("z")
    calls = [
        lambda states: evaluate_stack(states, x, z),
        lambda states: bounds_table(states, x, z),
        lambda states: bounds_table(states, x, z, classical_correlation_stack(states)),
        lambda states: applications_table(states, x, z),
        classical_correlation_stack,
    ]
    for call in calls:
        want, got = call(one), call(empty)
        assert list(got) == list(want)
        for key, col in got.items():
            if want[key] is None:
                assert col is None, key
            else:
                assert col.shape == (0,) + want[key].shape[1:], key


def test_an_empty_stack_takes_empty_observable_lists():
    # one observable per row, none for no rows: columns of 0 rows, shaped as
    # those of one row with one observable each
    one, empty = werner(0.5).stack, family_stack("werner", [])
    x, z = pauli_observable("x"), pauli_observable("z")
    calls = [
        lambda states, xs, zs: evaluate_stack(states, xs, zs),
        lambda states, xs, zs: bounds_table(states, xs, zs, classical_correlation_stack(states)),
        lambda states, xs, zs: applications_table(states, xs, zs),
    ]
    for call in calls:
        want, got = call(one, [x], [z]), call(empty, [], [])
        assert list(got) == list(want)
        for key, col in got.items():
            assert col.shape == (0,) + want[key].shape[1:], key


def _counted_search(monkeypatch):
    """Count the J_A search's work: the shape (rows, directions) of each
    objective call, the ``_grid_peaks`` and ``_climb`` passes, and the
    starts of each ``_climb`` pass."""
    seen = {"calls": [], "_grid_peaks": 0, "_climb": 0, "starts": []}
    for name in ("_two_qubit_objective", "_general_objective"):

        def build(states, s_b, build=getattr(infoquant, name)):
            objective = build(states, s_b)

            def counted(rows, dirs):
                values = objective.values(rows, dirs)
                seen["calls"].append(values.shape)
                return values

            return objective._replace(values=counted)

        monkeypatch.setattr(infoquant, name, build)
    for name in ("_grid_peaks", "_climb"):

        def counted(*args, name=name, run=getattr(infoquant, name)):
            seen[name] += 1
            if name == "_climb":
                seen["starts"].append(len(args[1]))
            return run(*args)

        monkeypatch.setattr(infoquant, name, counted)
    return seen


def _largest_call(seen):
    return max(rows * directions for rows, directions in seen["calls"])


@pytest.mark.parametrize("family", ["bell_diagonal_special", "xstate", "werner"])
def test_a_preset_stack_takes_one_peak_pass_and_one_ascent_loop(monkeypatch, family):
    seen = _counted_search(monkeypatch)
    classical_correlation_stack(family_stack(family, np.linspace(0.0, 1.0, 101)))
    assert seen["_grid_peaks"] == seen["_climb"] == 1
    # fifteen grid calls of at most 7 rows, each row's pole and each of its
    # antipodal equator pairs evaluated once (288 - 23 - 12 directions), then
    # the ascent rounds
    assert seen["calls"][:15] == [(7, 253)] * 14 + [(3, 253)]
    assert _largest_call(seen) <= _CALL_VALUES


def test_climb_blocks_keep_every_row_of_a_long_stack(monkeypatch):
    states = _random_corpus(2, 400, 17)
    singles = [_correlation_fields(classical_correlation(rho)) for rho in states]
    seen = _counted_search(monkeypatch)
    corr = classical_correlation_stack(_stack(states))
    assert _CLIMB_ROWS == 170
    assert seen["_grid_peaks"] == seen["_climb"] == 3
    assert _largest_call(seen) <= _CALL_VALUES
    for k, one in enumerate(singles):
        _assert_rows_match(_table_row(corr, k), one, f"row {k}")


@pytest.mark.parametrize("dB", [2, 4])
def test_a_grid_above_the_call_cap_is_split(monkeypatch, dB):
    cfg = OptimizerConfig(60, 120)
    states = _random_corpus(dB, 8, 19)
    singles = [_correlation_fields(classical_correlation(rho, cfg)) for rho in states]
    seen = _counted_search(monkeypatch)
    classical_correlation(states[0], cfg)
    # the pole row's 120 cells take one direction, the equator's 120 take
    # 60, and the row's other 6 960 and, for dB >= 3, its 4 seeds go in
    # calls of at most _CALL_VALUES
    assert seen["calls"][:4] == [(1, 1920)] * 3 + [(1, 1261 if dB == 2 else 1265)]
    assert _largest_call(seen) <= _CALL_VALUES
    corr = classical_correlation_stack(_stack(states), cfg)
    assert _largest_call(seen) <= _CALL_VALUES
    for k, one in enumerate(singles):
        _assert_rows_match(_table_row(corr, k), one, f"row {k}")


@pytest.mark.parametrize("dB", [2, 3, 4])
def test_every_objective_call_holds_at_most_call_values(monkeypatch, dB):
    # A full climb block and part of the next, whose ascents leave their
    # grid peaks, so that each block's closing call (the best and the
    # unmodelled last centre of each ascent, one direction each) runs too.
    seen = _counted_search(monkeypatch)
    classical_correlation_stack(_stack(_random_corpus(dB, 200, 23)))
    assert seen["_climb"] == 2
    closing = [rows for rows, directions in seen["calls"] if directions == 1]
    # the rule that _CALL_VALUES is sized by: at most two directions per start
    assert len(closing) == 2
    for rows, starts in zip(closing, seen["starts"]):
        assert rows <= 2 * starts
    assert _largest_call(seen) <= _CALL_VALUES


def test_a_one_row_wide_memory_j_a_makes_two_objective_calls(monkeypatch):
    # the grid call, which scores the seeds too, and the closing call
    seen = _counted_search(monkeypatch)
    classical_correlation(_random_corpus(4, 1, 29)[0])
    # the 6 x 12 grid's 55 evaluated cells (one pole cell, four rows of 12,
    # half the equator) and the row's 4 seeds
    assert len(seen["calls"]) == 2 and seen["calls"][0] == (1, 59)


# 2.5 times the traced J_A peak of a 128-row bell_diagonal_special stack
# when this bound was set (765.6 kB at 12 x 24, 808.6 kB at 60 x 120), in
# bytes.  Werner then peaked at 1 542 and 1 827 kB, and at 1 405 and
# 1 781 kB once each grid's starts were its best maxima, unmerged.
_WERNER_J_A_PEAK = {(12, 24): 1_914_000, (60, 120): 2_021_000}


@pytest.mark.parametrize("shape", [(12, 24), (60, 120)])
def test_werner_j_a_memory_stays_near_that_of_a_family_with_few_maxima(shape):
    # Every cell of a Werner grid is a maximum, so a Werner climb block
    # sorts the most maxima of any; its J_A peak memory stays within a
    # fixed bound, so that a smaller peak elsewhere cannot fail it.
    cfg = OptimizerConfig(*shape)
    states = family_stack("werner", np.linspace(0.0, 1.0, 128))
    classical_correlation_stack(states, cfg)  # the spectra and grid caches
    tracemalloc.start()
    try:
        classical_correlation_stack(states, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _WERNER_J_A_PEAK[shape]


@pytest.mark.parametrize("dB", [2, 3, 4])
def test_validation_computes_the_state_spectrum_once(monkeypatch, dB):
    mats = np.array([rho.mat for rho in _random_corpus(dB, 12, 31)])
    # a row inside the Hermiticity tolerance, but not Hermitian
    mats[3, 0, 1] += 1e-12
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    monkeypatch.setattr(np.linalg, "eigh", None)
    states = StateStack(mats, 2, dB)
    assert calls == [mats.shape]
    spectra = states.spectra
    # LAPACK once more for rho^B of side >= 3, and never for a 2 x 2 state
    # (closed form); the validation spectrum is reused as rho^AB's.
    assert calls == [mats.shape] + [(12, dB, dB)] * (dB >= 3)
    assert spectra[0] is states._spectrum
    monkeypatch.undo()
    for w, m in zip(spectra, (mats, states.reduced_a(), states.reduced_b())):
        np.testing.assert_array_equal(w, hermitian_eigvals(m))
        assert not w.flags.writeable


def _canonical_row(n):
    """The per-row rule: normalize, then the representative of {n, -n} in
    the upper closed hemisphere."""
    n = n / np.linalg.norm(n)
    eps = 1e-12
    if n[2] < -eps or abs(n[2]) <= eps and (n[0] < -eps or abs(n[0]) <= eps and n[1] < 0.0):
        return -n
    return n


def test_canonical_directions_equal_the_per_row_rule():
    rng = np.random.default_rng(23)
    random = rng.normal(size=(20000, 3))
    unit = random / np.sqrt((random * random).sum(axis=1, keepdims=True))
    near_zero = (-1e-11, -1e-12, -1e-13, -0.0, 0.0, 1e-13, 1e-12, 1e-11)
    edges = [[x, y, z] for x in near_zero + (-1.0, 1.0) for y in (-1.0, 0.0, 1.0)
             for z in near_zero if abs(x) + abs(y) > 0.0]
    grid = _hemisphere_grid(12, 24)[1].T
    for directions in (random, unit, np.array(edges), grid, -grid):
        got = _canonical_directions(directions)
        want = np.array([_canonical_row(n) for n in directions])
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_evaluate_is_the_row_of_a_one_row_stack():
    rho = _random_corpus(2, 1, 11)[0]
    ev = evaluate(rho, pauli_observable("x"), pauli_observable("y"))
    assert ev["x_probs"].shape == (2,) and ev["x_omegas"].shape == (2, 2, 2)
    assert all(isinstance(ev[key], float) for key in ("s_ab", "delta", "actual", "q_mu"))


_ONE_ROW_VIEWS = {
    "evaluate": evaluate,
    "bounds_report": bounds_report,
    "applications_report": applications_report,
    "witness": witness,
    "actual_uncertainty": actual_uncertainty,
}


def _first_row(table):
    return {key: None if col is None else col[0] for key, col in table.items()}


def _counted_evaluations(monkeypatch):
    calls = []

    def counted(states, x, z):
        calls.append(states)
        return evaluate_stack(states, x, z)

    monkeypatch.setattr(infoquant, "evaluate_stack", counted)
    return calls


def test_one_row_views_of_one_triple_share_one_evaluation(monkeypatch):
    rng = np.random.default_rng(41)
    rho, other = random_density_matrix(rng), random_density_matrix(rng)
    x, z = random_observable(rng), random_observable(rng)
    calls = _counted_evaluations(monkeypatch)
    for order in itertools.permutations(_ONE_ROW_VIEWS):
        before = len(calls)
        evaluate(other, x, z)
        for name in order:
            _ONE_ROW_VIEWS[name](rho, x, z)
        assert calls[before:] == [other.stack, rho.stack], order
    # a view of another triple in between evaluates both again
    for triple in ((other, x, z), (rho, x, z), (rho, z, x), (rho, x, z), (other, x, z), (rho, x, z)):
        before = len(calls)
        bounds_report(*triple)
        applications_report(*triple)
        assert calls[before:] == [triple[0].stack]


def test_a_new_object_of_the_same_state_or_basis_is_evaluated_again(monkeypatch):
    rng = np.random.default_rng(43)
    rho = random_density_matrix(rng)
    x, z = random_observable(rng), random_observable(rng)
    calls = _counted_evaluations(monkeypatch)
    twins = (
        (rho, x, z),
        (DensityMatrix(rho.mat, 2, 2), x, z),
        (rho, ProjectiveObservable(x.basis, x.name), z),
        (rho, x, ProjectiveObservable(z.basis, z.name)),
    )
    reports = [bounds_report(*triple) for triple in twins]
    assert len(calls) == len(twins)
    assert all(report == reports[0] for report in reports)


def test_one_row_views_are_row_zero_of_their_tables_on_a_shared_evaluation():
    rng = np.random.default_rng(47)
    for rho in (random_density_matrix(rng), random_density_matrix(rng, 2, 3), werner(0.4)):
        x, z = random_observable(rng), random_observable(rng)
        corr = classical_correlation(rho)
        corr_rows = classical_correlation_stack(rho.stack)
        ev = evaluate_stack(rho.stack, x, z)
        # the first view evaluates; every later one reads the shared table
        views = {
            "evaluate": (evaluate(rho, x, z), ev),
            "bounds_report": (bounds_report(rho, x, z), bounds_table(rho.stack, x, z)),
            "bounds_report with J_A": (bounds_report(rho, x, z, corr), bounds_table(rho.stack, x, z, corr_rows)),
            "applications_report": (applications_report(rho, x, z), applications_table(rho.stack, x, z)),
            "witness": (witness(rho, x, z), _verdict(ev)),
        }
        for name, (row, table) in views.items():
            assert list(row) == list(table), name
            _assert_rows_match(row, _first_row(table), name)
        assert actual_uncertainty(rho, x, z) == ev["actual"][0]


def test_the_arrays_of_an_evaluate_row_are_read_only():
    rng = np.random.default_rng(53)
    rho = random_density_matrix(rng)
    x, z = random_observable(rng), random_observable(rng)
    ev = evaluate(rho, x, z)
    for key in ("x_probs", "x_omegas", "z_probs", "z_omegas"):
        assert not ev[key].flags.writeable, key
        with pytest.raises(ValueError, match="read-only"):
            ev[key][0] = 0.0
    np.testing.assert_equal(evaluate(rho, x, z), _first_row(evaluate_stack(rho.stack, x, z)))


def test_a_failing_one_row_view_leaves_the_next_call_correct(monkeypatch):
    rng = np.random.default_rng(59)
    rho = random_density_matrix(rng)
    x, z = random_observable(rng), random_observable(rng)
    qutrit_a = random_density_matrix(rng, 3, 2)
    calls = _counted_evaluations(monkeypatch)
    want = _first_row(bounds_table(rho.stack, x, z))
    for _ in range(2):
        before = len(calls)
        with pytest.raises(ValueError, match="supports dA = 2 only"):
            applications_report(qutrit_a, random_observable(rng, 3), random_observable(rng, 3))
        # the dA check comes before any evaluation
        assert len(calls) == before
        with pytest.raises(ValueError, match="observable dimension 3 does not match dA = 2"):
            bounds_report(rho, random_observable(rng, 3), z)
        _assert_rows_match(bounds_report(rho, x, z), want, "after a failure")


def test_one_row_views_take_a_one_observable_sequence(monkeypatch):
    rng = np.random.default_rng(61)
    rho = random_density_matrix(rng)
    x, z = random_observable(rng), random_observable(rng)
    calls = _counted_evaluations(monkeypatch)
    want = bounds_report(rho, x, z)
    assert bounds_report(rho, [x], [z]) == bounds_report(rho, (x,), z) == want
    assert applications_report(rho, [x], [z]) == applications_report(rho, x, z)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="got 2 observables for a stack of 1 states"):
        bounds_report(rho, [x, z], [z, x])
    assert bounds_report(rho, [x], [z]) == want


@pytest.mark.parametrize("family", sorted(ONE_PARAMETER_FAMILIES))
def test_family_stack_rows_are_the_family_states(family):
    stack = family_stack(family, FAMILY_PS)
    assert len(stack) == len(FAMILY_PS)
    for row, p in zip(stack.mats, FAMILY_PS):
        np.testing.assert_array_equal(row, ONE_PARAMETER_FAMILIES[family](p).mat)


def test_family_stack_rejects_a_parameter_outside_the_unit_interval():
    with pytest.raises(ValueError, match=r"x_state_special parameter p must lie in \[0, 1\], got 1.5"):
        family_stack("xstate", [0.0, 0.5, 1.5, -1.0])
    with pytest.raises(ValueError, match="unknown one-parameter family 'bell_diagonal'"):
        family_stack("bell_diagonal", [0.5])


def test_stack_validation_names_the_first_failing_row_invariant():
    good = np.eye(4) / 4
    skewed = good.copy()
    skewed[0, 1] = 0.1
    negative = np.diag([0.5, 0.5, 0.25, -0.25]).astype(complex)
    nonfinite = good.copy()
    nonfinite[2, 2] = np.nan
    for bad, invariant in ((skewed, "hermitian"), (negative, "psd"), (nonfinite, "finite")):
        with pytest.raises(StateValidationError) as one:
            DensityMatrix(bad, 2, 2)
        with pytest.raises(StateValidationError) as stacked:
            StateStack(np.array([good, bad, 0.5 * good]), 2, 2)
        assert stacked.value.invariant == one.value.invariant == invariant
        assert str(stacked.value) == str(one.value)
    with pytest.raises(StateValidationError, match="invariant 'shape'"):
        StateStack(np.array([good]), 2, 3)


def test_stack_rejects_an_observable_list_of_the_wrong_length():
    stack = family_stack("werner", [0.2, 0.4])
    x = pauli_observable("x")
    with pytest.raises(ValueError, match="got 3 observables for a stack of 2 states"):
        bounds_table(stack, [x, x, x], [x, x, x])


def _one_row_results():
    """Each one-row result of a random two-qubit state and a non-Pauli pair,
    with the keys of the table it is a row of."""
    rng = np.random.default_rng(107)
    rho = random_density_matrix(rng)
    x, z = random_observable(rng), random_observable(rng)
    corr = classical_correlation(rho)
    yield "evaluate", evaluate(rho, x, z), list(evaluate_stack(rho.stack, x, z))
    yield "classical_correlation", corr, [*classical_correlation_stack(rho.stack), "search_space"]
    yield "bounds_report", bounds_report(rho, x, z), list(bounds_table(rho.stack, x, z))
    yield "bounds_report with J_A", bounds_report(rho, x, z, corr), list(bounds_table(rho.stack, x, z))
    yield "applications_report", applications_report(rho, x, z), list(applications_table(rho.stack, x, z))
    yield "witness", witness(rho, x, z), list(_verdict(evaluate_stack(rho.stack, x, z)))
    yield "closed_form_curves", closed_form_curves("xstate", 0.3, "xz"), ["berta", "pati", "ours"]
    report = validate(rho.mat + 0.01, 2, 2)
    yield "validate", report, ["passed", "checks"]
    for check in report.checks:
        yield "validate check", check, ["name", "passed", "residual", "tolerance"]


@pytest.mark.parametrize("name, row, keys", list(_one_row_results()), ids=lambda v: v if isinstance(v, str) else "")
def test_one_row_results_are_rows_of_their_tables_keys(name, row, keys):
    assert type(row) is Row
    assert list(row) == keys
    for key in keys:
        assert getattr(row, key) is row[key]
    assert not hasattr(row, "nope")
    for twin in (copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
        assert type(twin) is Row
        np.testing.assert_equal(twin, row)
    plain = row.to_dict()
    assert type(plain) is dict and list(plain) == keys
    if name != "evaluate":  # its conditional states are complex matrices, which JSON has no form for
        assert json.loads(json.dumps(plain)) == plain
    if name == "classical_correlation":
        assert plain["optimal_direction"] == row.optimal_direction.tolist()
    if name == "validate":
        assert not row.passed and all(type(check) is dict for check in plain["checks"])
