"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from eurmem.bounds import (
    actual_uncertainty,
    bounds_report,
    closed_form_curves,
    family_pair_observables,
)
from eurmem.cli import main
from eurmem.infoquant import (
    binary_entropy,
    classical_correlation,
    shannon_entropy,
    von_neumann_entropy,
)
from eurmem.measure import outcome_ensemble, pauli_observable
from eurmem.states import (
    bell_diagonal_special,
    pure_schmidt,
    werner,
    x_state_special,
)
from eurmem.apps import applications_report, witness

from helpers import (
    random_bell_diagonal,
    random_density_matrix,
    random_mub_pair,
    random_product_state,
    random_projective_pair,
    random_schmidt_coeffs,
)

SIGMA_X = pauli_observable("x")
SIGMA_Z = pauli_observable("z")

P_GRID = [k * 0.01 for k in range(101)]


def _report(num: int, description: str, ok: bool):
    print(f"\n[acceptance {num:02d}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]


def test_criterion_01_figure1_reproduction(tmp_path):
    t0 = time.perf_counter()
    fig1b = tmp_path / "fig1b.csv"
    fig1a = tmp_path / "fig1a.csv"
    assert main(["sweep", "--preset", "fig1b", "--out", str(fig1b)]) == 0
    assert main(["sweep", "--preset", "fig1a", "--out", str(fig1a)]) == 0

    ok = True
    rows_b = _read_rows(fig1b)
    for row in rows_b:
        ok &= row["bound_ours"] >= row["bound_pati"] - 1e-9
        ok &= row["bound_pati"] >= row["bound_berta"] - 1e-9
    interior = [r for r in rows_b if 0.0 < r["p"] < 1.0]
    ok &= max(r["bound_ours"] - r["bound_pati"] for r in interior) > 1e-6

    rows_a = _read_rows(fig1a)
    for row in rows_a:
        ok &= row["bound_ours"] >= row["bound_pati"] - 1e-9
        ok &= row["bound_pati"] >= row["bound_berta"] - 1e-9
        if row["p"] >= 1.0 / 3.0:
            ok &= abs(row["bound_ours"] - row["bound_pati"]) <= 1e-9

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(
        1,
        f"fig1b ordering + strict interior separation, fig1a region C overlap "
        f"({elapsed:.2f} s)",
        ok,
    )


def test_criterion_02_figure2_reproduction(tmp_path):
    t0 = time.perf_counter()
    fig2 = tmp_path / "fig2.csv"
    assert main(["sweep", "--preset", "fig2", "--out", str(fig2)]) == 0
    rows = _read_rows(fig2)

    ok = True
    for row in rows:
        ok &= row["bound_ours"] >= row["bound_pati"] - 1e-9
        ok &= row["bound_pati"] >= row["bound_berta"] - 1e-9
        cf = closed_form_curves("xstate", row["p"], "xz")
        ok &= abs(row["bound_berta"] - cf.berta) <= 1e-9
        ok &= abs(row["bound_pati"] - cf.pati) <= 1e-9
        ok &= abs(row["bound_ours"] - cf.ours) <= 1e-9
    ok &= abs(rows[0]["bound_berta"] - 1.0) <= 1e-9
    ok &= abs(rows[-1]["bound_ours"] - 0.0) <= 1e-9

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(2, f"fig2 ordering, endpoints, independent closed forms ({elapsed:.2f} s)", ok)


def test_criterion_03_closed_form_oracle_equivalence():
    t0 = time.perf_counter()
    builders = {
        "bell_diagonal_special": bell_diagonal_special,
        "xstate": x_state_special,
    }
    worst = 0.0
    comparisons = 0
    for family, builder in builders.items():
        for pair in ("xy", "xz"):
            for p in P_GRID:
                rho = builder(p)
                x, z = family_pair_observables(family, p, pair)
                rep = bounds_report(rho, x, z, classical_correlation(rho))
                cf = closed_form_curves(family, p, pair)
                worst = max(
                    worst,
                    abs(rep.bound_berta - cf.berta),
                    abs(rep.bound_pati - cf.pati),
                    abs(rep.bound_ours - cf.ours),
                )
                comparisons += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and comparisons >= 301 and elapsed < 10.0
    _report(
        3,
        f"closed forms vs generic pipeline, {comparisons} rows, "
        f"worst residual {worst:.2e} ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_04_new_bound_validity_random_states():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20160422)
    violations = 0
    for _ in range(1000):
        rep = bounds_report(random_density_matrix(rng), SIGMA_X, SIGMA_Z)
        if rep.actual < rep.bound_ours - 1e-9:
            violations += 1
    for _ in range(100):
        rho = random_density_matrix(rng)
        x, z = random_projective_pair(rng)
        rep = bounds_report(rho, x, z)
        if rep.actual < rep.bound_ours - 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _report(
        4,
        f"actual >= bound_ours on 1000 random states + 100 random pairs, "
        f"{violations} violations ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_05_tightness_bell_diagonal():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        rho = random_bell_diagonal(rng)
        worst = max(
            worst,
            abs(
                actual_uncertainty(rho, SIGMA_X, SIGMA_Z)
                - bounds_report(rho, SIGMA_X, SIGMA_Z).bound_ours
            ),
        )
    ok = worst <= 1e-9
    _report(
        5,
        f"|actual - bound_ours| on 200 random Bell-diagonal states, worst {worst:.2e}",
        ok,
    )


def test_criterion_06_pure_state_coincidence():
    rng = np.random.default_rng(6)
    worst_delta = 0.0
    worst_gap = 0.0
    for _ in range(100):
        rho = pure_schmidt(random_schmidt_coeffs(rng))
        x, z = random_projective_pair(rng)
        rep = bounds_report(rho, x, z)
        worst_delta = max(worst_delta, abs(rep.delta))
        worst_gap = max(worst_gap, abs(rep.bound_ours - rep.bound_berta))
    ok = worst_delta <= 1e-9 and worst_gap <= 1e-12
    _report(
        6,
        f"pure Schmidt states: |delta| <= 1e-9 (worst {worst_delta:.2e}), "
        f"|ours - berta| <= 1e-12 (worst {worst_gap:.2e})",
        ok,
    )


def test_criterion_07_werner_coincidence():
    worst_delta_gap = 0.0
    worst_bound_gap = 0.0
    for k in range(11):
        p = k * 0.1
        rho = werner(p)
        corr = classical_correlation(rho)
        rep = bounds_report(rho, SIGMA_X, SIGMA_Z)
        worst_delta_gap = max(
            worst_delta_gap, abs(rep.delta - (corr.discord - corr.classical_correlation))
        )
        pati = rep.bound_berta + max(0.0, corr.discord - corr.classical_correlation)
        worst_bound_gap = max(worst_bound_gap, abs(rep.bound_ours - pati))
    ok = worst_delta_gap <= 1e-6 and worst_bound_gap <= 1e-6
    _report(
        7,
        f"Werner: |delta - (D-J)| (worst {worst_delta_gap:.2e}) and "
        f"|ours - pati| (worst {worst_bound_gap:.2e}) within 1e-6",
        ok,
    )


def test_criterion_08_discord_optimizer_correctness():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        rho = random_bell_diagonal(rng)
        r = [
            np.real(np.trace(rho.mat @ np.kron(s, s)))
            for s in (
                np.array([[0, 1], [1, 0]]),
                np.array([[0, -1j], [1j, 0]]),
                np.array([[1, 0], [0, -1]]),
            )
        ]
        expected = 1.0 - binary_entropy((1.0 + max(abs(v) for v in r)) / 2.0)
        got = classical_correlation(rho).classical_correlation
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-6
    _report(
        8,
        f"J_A vs Bell-diagonal closed form on 100 random states, worst {worst:.2e}",
        ok,
    )


def test_criterion_09_exact_identities():
    rng = np.random.default_rng(9)
    worst_chain = 0.0
    worst_decomp = 0.0
    from eurmem.infoquant import conditional_entropy, holevo
    from eurmem.measure import post_measurement_state

    for _ in range(500):
        rho = random_density_matrix(rng)
        x, z = random_projective_pair(rng)
        h_x = shannon_entropy(outcome_ensemble(rho, x).probs)
        s_xb = conditional_entropy(post_measurement_state(rho, x))
        worst_chain = max(worst_chain, abs(s_xb + holevo(rho, x) - h_x))

        # The report computes actual as H - I(.;B) itself, so the left side
        # comes from the explicit classical-quantum states instead.
        rep = bounds_report(rho, x, z)
        actual_cq = s_xb + conditional_entropy(post_measurement_state(rho, z))
        h_z = shannon_entropy(outcome_ensemble(rho, z).probs)
        s_a = von_neumann_entropy(rho.reduced_a())
        worst_decomp = max(
            worst_decomp,
            abs(actual_cq - (h_x + h_z - s_a + rep.s_cond + rep.delta)),
            abs(actual_cq - rep.actual),
        )
    ok = worst_chain <= 1e-9 and worst_decomp <= 1e-9
    _report(
        9,
        f"identities on 500 random draws: S(X|B)+I(X;B)=H(X) (worst {worst_chain:.2e}), "
        f"decomposition and report actual against the cq states (worst {worst_decomp:.2e})",
        ok,
    )


def test_criterion_10_applications():
    singlet = werner(1.0)
    report = applications_report(singlet, SIGMA_X, SIGMA_Z)
    ok = abs(report["eof_lower_bound"] - 1.0) <= 1e-9
    ok &= abs(report["crand_upper_bound"]) <= 1e-9

    rng = np.random.default_rng(10)
    for _ in range(200):
        rho = random_density_matrix(rng)
        x, z = random_mub_pair(rng)
        report = applications_report(rho, x, z)
        eof, crand = report["eof_lower_bound"], report["crand_upper_bound"]
        ok &= abs(eof + crand - von_neumann_entropy(rho.reduced_b())) <= 1e-12
        verdict = witness(rho, x, z)
        ok &= (not verdict.entangled_by_berta) or verdict.entangled_by_ours

    for _ in range(500):
        verdict = witness(random_product_state(rng), SIGMA_X, SIGMA_Z)
        ok &= not verdict.entangled_by_berta
        ok &= not verdict.entangled_by_ours
    _report(
        10,
        "applications: singlet E_f/C_D values, Koashi-Winter identity, witness "
        "monotonicity, no false positives on 500 product states",
        ok,
    )
