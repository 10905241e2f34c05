"""The four benchmark workloads: seeded inputs, one op each, and per-op checks.

Each workload class is built from the seed (and a scratch directory inside
the checkout).  It has ``size`` distinct inputs, numbered 0..size-1, the
grid kernel's weight in its speed probe (``probe_grid_weight``, see
calibration.py), and three steps:

    prepare_checks()  reference values for the checks; untimed, untraced
    run_op(k)         one op on input k, the only timed step
    check(k, result)  True if that op's output is right; untimed, untraced

The random-state generators are this benchmark's own copy, so it does not
depend on the test suite.  Ops call ``eurmem`` through module attributes
(``eurmem.bounds_report``, ``cli.main``) so that the tracer's wrappers are
the ones called.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import eurmem
import eurmem.cli as cli

import reference

# figure_sweeps: preset -> (family, observable pair) of its closed forms.
PRESETS = {
    "fig1a": ("bell_diagonal_special", "xy"),
    "fig1b": ("bell_diagonal_special", "xz"),
    "fig2": ("xstate", "xz"),
}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Corpus sizes.  The loop runs whole passes over the inputs, so every run
# weighs the inputs equally.
BOUNDS_CORPUS = 256
DISCORD_CORPUS = 128
WIDE_CORPUS = 64

CLOSED_FORM_TOL = 1e-9
GOLDEN_TOL = 1e-9
ORDER_EPS = 1e-9
KOASHI_WINTER_TOL = 1e-12
CONSISTENCY_TOL = 1e-12
J_A_TOL = 1e-9

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def _haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _corpus(seed, size, dB, mub_every_other):
    """(rho, x, z) triples: HS-random states with Haar or MUB qubit pairs."""
    rng = np.random.default_rng(seed)
    items = []
    for k in range(size):
        rho = eurmem.DensityMatrix(reference.hilbert_schmidt_state(rng, 2, dB), 2, dB)
        u = _haar_unitary(rng, 2)
        if mub_every_other and k % 2 == 1:
            x, z = eurmem.observable_from_basis(u), eurmem.observable_from_basis(u @ _HADAMARD)
        else:
            x, z = eurmem.observable_from_basis(u), eurmem.observable_from_basis(_haar_unitary(rng, 2))
        items.append((rho, x, z))
    return items


# ---------------------------------------------------------------------------
# figure_sweeps
# ---------------------------------------------------------------------------


class FigureSweeps:
    """One op is one ``eurmem sweep --preset P``; the inputs are the presets,
    so this workload does not depend on the seed."""

    name = "figure_sweeps"
    size = len(PRESETS)
    probe_grid_weight = 0.5

    def __init__(self, seed: int, scratch: Path):
        self.presets = sorted(PRESETS)
        self.scratch = scratch

    def run_op(self, k: int):
        preset = self.presets[k]
        return cli.main(["sweep", "--preset", preset, "--out", str(self.scratch / f"{preset}.csv")])

    def prepare_checks(self):
        """Golden rows captured at the seed commit, and the closed forms at each p."""
        self.golden = {}
        self.closed = {}
        for preset, (family, pair) in PRESETS.items():
            rows = _parse_csv((REFERENCE_DIR / f"{preset}.csv").read_text(encoding="utf-8"))
            self.golden[preset] = rows
            self.closed[preset] = [
                eurmem.closed_form_curves(family, row[0], pair) for row in rows[1:]
            ]

    def check(self, k: int, code) -> bool:
        preset = self.presets[k]
        if code != 0:
            return False
        rows = _parse_csv((self.scratch / f"{preset}.csv").read_text(encoding="utf-8"))
        golden = self.golden[preset]
        if rows is None or rows[0] != golden[0] or len(rows) != len(golden):
            return False
        col = {key: k for k, key in enumerate(rows[0])}
        for got, want, cf in zip(rows[1:], golden[1:], self.closed[preset]):
            if any(not abs(a - b) <= GOLDEN_TOL for a, b in zip(got, want)):
                return False
            for field, value in (("bound_berta", cf.berta), ("bound_pati", cf.pati), ("bound_ours", cf.ours)):
                if not abs(got[col[field]] - value) <= CLOSED_FORM_TOL:
                    return False
        return True


def _parse_csv(text: str):
    lines = text.splitlines()
    if not lines:
        return None
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError:
        return None
    return [lines[0].split(",")] + rows


# ---------------------------------------------------------------------------
# random_bounds
# ---------------------------------------------------------------------------


class RandomBounds:
    """One op is ``bounds_report`` plus ``applications_report`` on one triple."""

    name = "random_bounds"
    size = BOUNDS_CORPUS
    probe_grid_weight = 0.0

    def __init__(self, seed: int, scratch: Path):
        self.corpus = _corpus(seed, self.size, dB=2, mub_every_other=True)

    def run_op(self, k: int):
        rho, x, z = self.corpus[k]
        return eurmem.bounds_report(rho, x, z), eurmem.applications_report(rho, x, z)

    def prepare_checks(self):
        pass

    def check(self, k: int, result) -> bool:
        rep, apps = result
        values = [v for v in rep.to_dict().values() if v is not None]
        values += [v for v in apps.values() if isinstance(v, float)]
        if not all(np.isfinite(v) for v in values):
            return False
        # The Holevo correction max{0, delta} must be the same number in the
        # bound and in the witness, whichever code computes it.
        correction = max(0.0, rep.delta)
        return bool(
            rep.bound_berta <= rep.bound_ours <= rep.actual + ORDER_EPS
            and abs(apps["eof_lower_bound"] + apps["crand_upper_bound"] - apps["s_b"])
            <= KOASHI_WINTER_TOL
            and apps["margin_ours"] >= apps["margin_berta"]
            and abs(rep.bound_ours - rep.bound_berta - correction) <= CONSISTENCY_TOL
            and abs(apps["margin_ours"] - apps["margin_berta"] - correction) <= CONSISTENCY_TOL
        )


# ---------------------------------------------------------------------------
# random_discord and wide_memory
# ---------------------------------------------------------------------------


class RandomDiscord:
    """One op is ``classical_correlation`` plus ``bounds_report`` with it."""

    name = "random_discord"
    size = DISCORD_CORPUS
    probe_grid_weight = 0.5
    dB = 2

    def __init__(self, seed: int, scratch: Path):
        self.corpus = _corpus(seed, self.size, dB=self.dB, mub_every_other=False)

    def run_op(self, k: int):
        rho, x, z = self.corpus[k]
        corr = eurmem.classical_correlation(rho)
        return corr, eurmem.bounds_report(rho, x, z, corr)

    def prepare_checks(self):
        # One-sided: the library must reach the frozen seed search's J_A
        # (see reference.py); an optimizer that finds more still passes.
        self.j_ref = [reference.classical_correlation_seed(r.mat, 2, self.dB) for r, _, _ in self.corpus]
        self.s_b = [reference.entropy_b(r.mat, 2, self.dB) for r, _, _ in self.corpus]

    def check(self, k: int, result) -> bool:
        corr, rep = result
        j_a = corr.classical_correlation
        return bool(
            self.j_ref[k] - J_A_TOL <= j_a <= min(1.0, self.s_b[k]) + J_A_TOL
            and corr.discord >= -J_A_TOL
            and rep.bound_pati is not None
            and np.isfinite(rep.bound_pati)
        )


class WideMemory(RandomDiscord):
    """The random_discord op on dA = 2, dB = 4 states (general-dB J_A path)."""

    name = "wide_memory"
    size = WIDE_CORPUS
    dB = 4


WORKLOADS = {cls.name: cls for cls in (FigureSweeps, RandomBounds, RandomDiscord, WideMemory)}
