"""Preset sweeps against the golden CSVs in tests/golden/.

The golden files are the output of ``eurmem sweep --preset P`` before the
evaluation core computed each spectrum once.  Every field must agree within
1e-12 * max(1, |golden|); fields whose text differs are counted and
reported, since a refactor may move the last printed digit.
"""

from pathlib import Path

import pytest

from eurmem.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TOL = 1e-12


def _rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("preset", ["fig1a", "fig1b", "fig2"])
def test_preset_sweep_matches_golden(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    assert main(["sweep", "--preset", preset, "--out", str(out)]) == 0
    header, rows = _rows(out)
    golden_header, golden_rows = _rows(GOLDEN_DIR / f"{preset}.csv")
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    differ = []
    beyond = []
    for row, golden in zip(rows, golden_rows):
        for key, got, want in zip(header, row, golden):
            if got == want:
                continue
            differ.append((golden[0], key, got, want))
            a, b = float(got), float(want)
            if not abs(a - b) <= TOL * max(1.0, abs(b)):
                beyond.append((golden[0], key, got, want))
    print(
        f"\n[golden {preset}] {len(differ)} of {len(rows) * len(header)} fields differ in text, "
        f"{len(beyond)} beyond {TOL:.0e} relative"
    )
    assert not beyond, f"{len(beyond)} fields beyond tolerance, first: {beyond[:5]}"
