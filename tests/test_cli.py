"""CLI behavior: formats, exit codes, presets, determinism, round trips."""

import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from eurmem import cli
from eurmem.bounds import bounds_report
from eurmem.cli import (
    MAX_SWEEP_ROWS,
    SWEEP_BLOCK_ROWS,
    SWEEP_HEADER,
    VALIDATE_CSV_HEADER,
    _fmt,
    _sweep_grid,
    build_parser,
    main,
)
from eurmem.infoquant import MAX_GRID_POINTS, binary_entropy, classical_correlation
from eurmem.measure import pauli_observable
from eurmem.states import from_spec, to_spec, werner

from helpers import random_density_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_bounds_werner_with_discord(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 0.5}})
    code, out, _ = run_cli(
        capsys, "bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z", "--with-discord"
    )
    assert code == 0
    record = json.loads(out)
    assert record["family"] == "werner"
    assert record["p"] == 0.5
    assert record["observables"] == ["sigma_x", "sigma_z"]
    assert record["bound_ours"] == pytest.approx(record["bound_pati"], abs=1e-6)
    assert record["actual"] >= record["bound_ours"] - 1e-9


def test_bounds_singlet(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 1.0}})
    code, out, _ = run_cli(capsys, "bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z")
    assert code == 0
    record = json.loads(out)
    assert record["actual"] == pytest.approx(0.0, abs=1e-9)
    assert record["bound_berta"] == pytest.approx(0.0, abs=1e-9)
    assert record["bound_pati"] is None


def test_bounds_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "bounds", "--state", str(path), "--x", "sigma_x", "--z", "sigma_z"
    )
    assert code == 2
    assert "error" in err


def test_bounds_invalid_state_exits_2_names_invariant(capsys, tmp_path):
    doc = {"explicit": {"dA": 2, "dB": 2, "re": (np.eye(4) * 0.375).tolist()}}
    state = write_state(tmp_path, doc)
    code, _, err = run_cli(capsys, "bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z")
    assert code == 2
    assert "trace" in err


def test_bounds_table_and_csv_formats(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "xstate", "p": 0.5}})
    code, out, _ = run_cli(
        capsys, "bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z",
        "--format", "table",
    )
    assert code == 0 and "bound_ours" in out
    code, out, _ = run_cli(
        capsys, "bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[0] == "q_mu"
    assert len(header.split(",")) == len(row.split(","))


def test_bounds_echo_state_round_trip(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "bell_diagonal_special", "p": 0.37}})
    code, out, _ = run_cli(
        capsys, "bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z", "--echo-state"
    )
    assert code == 0
    record = json.loads(out)
    reingested = from_spec(record["state"])
    original = from_spec({"family": {"name": "bell_diagonal_special", "p": 0.37}})
    assert np.max(np.abs(reingested.mat - original.mat)) <= 1e-12


def test_sweep_preset_fig1b_endpoints_and_format(tmp_path, capsys):
    out = tmp_path / "fig1b.csv"
    code = main(["sweep", "--preset", "fig1b", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 102
    first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert first["p"] == 0.0
    assert first["bound_berta"] == pytest.approx(1.0, abs=1e-9)
    assert first["bound_ours"] == pytest.approx(1.0, abs=1e-9)
    last = dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))
    assert last["p"] == 1.0


def test_sweep_preset_fig2_endpoint(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code = main(["sweep", "--preset", "fig2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    last = dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))
    assert last["p"] == 1.0
    assert last["bound_berta"] == pytest.approx(0.0, abs=1e-9)
    assert last["bound_ours"] == pytest.approx(0.0, abs=1e-9)


def test_sweep_deterministic_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--preset", "fig2", "--out", str(out1)]) == 0
    assert main(["sweep", "--preset", "fig2", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rows_monotone_consistent(tmp_path, capsys):
    out = tmp_path / "fig1a.csv"
    assert main(["sweep", "--preset", "fig1a", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    keys = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(keys, map(float, line.split(","))))
        assert row["bound_ours"] >= row["bound_berta"] - 1e-9
        assert row["actual"] >= row["bound_ours"] - 1e-9


def test_sweep_custom_family_and_range(tmp_path, capsys):
    out = tmp_path / "werner.csv"
    code = main(
        [
            "sweep", "--family", "werner", "--x", "sigma_x", "--z", "sigma_z",
            "--p-start", "0", "--p-end", "0.1", "--p-step", "0.05", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4  # header + 0, 0.05, 0.1
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.05", "0.1"]


def test_sweep_spec_file_multiple_pairs(tmp_path, capsys):
    spec = {
        "family": "xstate",
        "p_start": 0.0,
        "p_end": 0.2,
        "p_step": 0.1,
        "pairs": [["sigma_x", "sigma_z"], ["sigma_x", "sigma_y"]],
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "xs.csv"
    code = main(["sweep", "--spec", str(spec_path), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "xs_pair1.csv").exists()
    assert (tmp_path / "xs_pair2.csv").exists()


def test_sweep_invalid_range_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--family", "werner", "--x", "sigma_x", "--z", "sigma_z",
        "--p-start", "0.5", "--p-end", "0.2", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert not (tmp_path / "x.csv").exists()  # no partial file


def test_discord_bell_diagonal_closed_form(capsys, tmp_path):
    state = write_state(
        tmp_path, {"family": {"name": "bell_diagonal", "r": [0.5, 0.3, 0.1]}}
    )
    code, out, _ = run_cli(capsys, "discord", "--state", state)
    assert code == 0
    record = json.loads(out)
    assert record["classical_correlation"] == pytest.approx(
        1.0 - binary_entropy(0.75), abs=1e-6
    )
    assert record["search_space"].startswith("rank-1 projective")


def test_discord_product_state(capsys, tmp_path):
    state = write_state(
        tmp_path,
        {"explicit": {"dA": 2, "dB": 2, "re": np.diag([0.25, 0.25, 0.25, 0.25]).tolist()}},
    )
    code, out, _ = run_cli(capsys, "discord", "--state", state)
    record = json.loads(out)
    assert code == 0
    assert record["classical_correlation"] == pytest.approx(0.0, abs=1e-9)
    assert record["discord"] == pytest.approx(0.0, abs=1e-9)


def test_discord_singlet(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 1.0}})
    code, out, _ = run_cli(capsys, "discord", "--state", state)
    record = json.loads(out)
    assert record["classical_correlation"] == pytest.approx(1.0, abs=1e-6)
    assert record["discord"] == pytest.approx(1.0, abs=1e-6)


def test_discord_odd_grid_phi_exits_2_at_entry(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 0.5}})
    code, out, err = run_cli(capsys, "discord", "--state", state, "--grid-phi", "25")
    assert code == 2
    assert out == ""
    assert "optimizer grid_phi must be even, got 25" in err


def test_discord_oversized_grid_exits_2_at_entry(tmp_path):
    # The cap is checked before the grid is built; the address-space limit
    # turns a missing check into a fast failure instead of an exhausted host.
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 0.5}})
    result = subprocess.run(
        [sys.executable, "-m", "eurmem", "discord", "--state", state,
         "--grid-theta", "100000", "--grid-phi", "100000"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: optimizer grid of 100000 x 100000 = 10000000000 points is above "
        f"the limit of {MAX_GRID_POINTS}\n"
    )


def test_apps_singlet(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 1.0}})
    code, out, _ = run_cli(capsys, "apps", "--state", state, "--x", "sigma_x", "--z", "sigma_z")
    assert code == 0
    record = json.loads(out)
    assert record["eof_lower_bound"] == pytest.approx(1.0, abs=1e-9)
    assert record["crand_upper_bound"] == pytest.approx(0.0, abs=1e-9)
    assert record["entangled_by_berta"] and record["entangled_by_ours"]


def test_apps_maximally_mixed_vacuous(capsys, tmp_path):
    state = write_state(
        tmp_path,
        {"explicit": {"dA": 2, "dB": 2, "re": np.diag([0.25] * 4).tolist()}},
    )
    code, out, _ = run_cli(capsys, "apps", "--state", state, "--x", "sigma_x", "--z", "sigma_z")
    record = json.loads(out)
    assert record["eof_vacuous"] is True
    assert record["eof_lower_bound"] == pytest.approx(-1.0, abs=1e-9)


def test_apps_qutrit_exits_2_at_entry(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "pure_schmidt", "lambdas": [0.5, 0.3, 0.2]}})
    x = json.dumps({"basis": {"re": np.eye(3).tolist()}})
    z = json.dumps({"basis": {"re": np.eye(3)[:, [1, 2, 0]].tolist()}})
    code, out, err = run_cli(capsys, "apps", "--state", state, "--x", x, "--z", z)
    assert code == 2
    assert out == ""
    assert "applications_report supports dA = 2 only" in err
    assert "got dA = 3" in err


def test_validate_command_pass_and_fail(capsys, tmp_path):
    good = write_state(
        tmp_path, {"explicit": {"dA": 2, "dB": 2, "re": np.diag([0.25] * 4).tolist()}}, "good.json"
    )
    code, out, _ = run_cli(capsys, "validate", "--state", good)
    assert code == 0
    assert json.loads(out)["passed"] is True

    bad = write_state(
        tmp_path,
        {"explicit": {"dA": 2, "dB": 2, "re": (np.eye(4) * 0.375).tolist()}},
        "bad.json",
    )
    code, out, _ = run_cli(capsys, "validate", "--state", bad)
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    names = {c["name"]: c for c in report["checks"]}
    assert not names["trace"]["passed"]
    assert names["trace"]["residual"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("dims", [{"dA": int("9" * 400), "dB": 2}, {"dA": 2, "dB": 1e300}, {"dA": -2, "dB": -2}, {"dA": 0, "dB": 4}])
def test_explicit_dimension_out_of_range_exits_2_naming_the_field(capsys, dims):
    # A 400-digit dA once reached float() in the shape check (OverflowError,
    # exit 1), and dA = dB = -2 passed the shape check of a 4 x 4 matrix.
    state = json.dumps({"explicit": {**dims, "re": (np.eye(4) / 4).tolist()}})
    field = "dA" if dims["dA"] != 2 else "dB"
    for args in (["validate"], ["bounds", "--x", "x", "--z", "z"]):
        code, out, err = run_cli(capsys, args[0], "--state", state, *args[1:])
        assert code == 2 and out == ""
        assert f"explicit state field '{field}' must lie in [1, 1048576]" in err


_PAST_FLOAT = 10**400  # a 401-digit JSON integer, beyond float range
_PAST_FLOAT_MESSAGE = "must lie in float range, got a 401-digit integer"


@pytest.mark.parametrize(
    "state, x, message",
    [
        ({"family": {"name": "werner", "p": _PAST_FLOAT}}, "x", f"werner parameter 'p' {_PAST_FLOAT_MESSAGE}"),
        (
            {"family": {"name": "bell_diagonal", "r": [_PAST_FLOAT, 0, 0]}},
            "x",
            f"bell_diagonal parameter 'r' {_PAST_FLOAT_MESSAGE}",
        ),
        (
            {"family": {"name": "pure_schmidt", "lambdas": [_PAST_FLOAT, 0]}},
            "x",
            f"pure_schmidt parameter 'lambdas' {_PAST_FLOAT_MESSAGE}",
        ),
        (
            {"family": {"name": "werner", "p": 0.5}},
            json.dumps({"bloch": [_PAST_FLOAT, 0, 0]}),
            f"observable 'bloch' entry {_PAST_FLOAT_MESSAGE}",
        ),
        (
            {"explicit": {"dA": 2, "dB": 2, "re": [[_PAST_FLOAT, 0, 0, 0]] + [[0] * 4] * 3}},
            "x",
            "explicit state 're' and 'im' fields must be arrays of numbers",
        ),
    ],
    ids=["p", "r", "lambdas", "bloch", "re"],
)
def test_integer_past_float_range_exits_2_naming_the_field(capsys, state, x, message):
    # Such an integer once reached float() (OverflowError, a traceback and exit 1).
    code, out, err = run_cli(capsys, "bounds", "--state", json.dumps(state), "--x", x, "--z", "z")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# A JSON integer literal above Python's 4 300-digit limit for text conversion;
# json.dumps cannot write one, so it replaces the string "LONG" in a document.
_LONG = "-1" + "0" * 5000
_LONG_MESSAGE = "must lie in float range, got a 5001-digit integer"


_QUARTER = (np.eye(4) / 4).tolist()


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("state", {"family": {"name": "werner", "p": "LONG"}}, f"werner parameter 'p' {_LONG_MESSAGE}"),
        (
            "state",
            {"family": {"name": "bell_diagonal", "r": [0, "LONG", 0]}},
            f"bell_diagonal parameter 'r' {_LONG_MESSAGE}",
        ),
        (
            "state",
            {"family": {"name": "pure_schmidt", "lambdas": [1, "LONG"]}},
            f"pure_schmidt parameter 'lambdas' {_LONG_MESSAGE}",
        ),
        ("x", {"bloch": [0, 0, "LONG"]}, f"observable 'bloch' entry {_LONG_MESSAGE}"),
        (
            "state",
            {"explicit": {"dA": 2, "dB": 2, "re": _QUARTER, "im": [[0, 0, 0, "LONG"]] + [[0] * 4] * 3}},
            "explicit state 're' and 'im' fields must be arrays of numbers",
        ),
        (
            "state",
            {"explicit": {"dA": 2, "dB": "LONG", "re": _QUARTER}},
            "explicit state field 'dB' must lie in [1, 1048576], got a 5001-digit integer",
        ),
        (
            "spec",
            {"family": "werner", "p_start": 0, "p_end": 1.0, "p_step": "LONG", "pairs": ["xz"]},
            f"sweep spec field 'p_step' {_LONG_MESSAGE}",
        ),
        (
            "spec",
            {"family": "werner", "p_start": 0, "p_end": 1, "p_step": 0.5, "pairs": [[{"bloch": ["LONG", 0, 0]}, "z"]]},
            f"observable 'bloch' entry {_LONG_MESSAGE}",
        ),
    ],
    ids=["p", "r", "lambdas", "bloch", "im", "dB", "p_step", "sweep bloch"],
)
def test_integer_literal_above_the_digit_limit_exits_2_naming_the_field(
    capsys, tmp_path, command, doc, message
):
    # Such a literal once failed in json.loads, whose message names no field.
    text = json.dumps(doc).replace('"LONG"', _LONG)
    args = {"state": ["bounds", "--state", text, "--x", "x", "--z", "z"]}
    args["x"] = ["bounds", "--state", '{"family": {"name": "werner", "p": 0.5}}', "--x", text, "--z", "z"]
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    args["spec"] = ["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]
    code, out, err = run_cli(capsys, *args[command])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_validate_unparseable_exits_2(capsys, tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("[[", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", "--state", str(path))
    assert code == 2


def test_module_entry_point_subprocess(tmp_path):
    state = tmp_path / "w.json"
    state.write_text(json.dumps({"family": {"name": "werner", "p": 0.5}}), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "eurmem", "bounds", "--state", str(state),
         "--x", "sigma_x", "--z", "sigma_z"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    record = json.loads(result.stdout)
    assert record["q_mu"] == pytest.approx(1.0, abs=1e-9)


def test_bounds_output_deterministic(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "xstate", "p": 0.3}})
    args = ["bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z", "--with-discord"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_non_finite_entry_fails_as_finite(capsys, tmp_path, entry):
    real = (np.eye(4) * 0.25).tolist()
    real[1][2] = entry
    state = write_state(tmp_path, {"explicit": {"dA": 2, "dB": 2, "re": real}})
    code, out, _ = run_cli(capsys, "validate", "--state", state)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["shape", "finite"]
    assert checks[1]["passed"] is False
    code, _, err = run_cli(capsys, "bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z")
    assert code == 2
    assert "invariant 'finite' violated" in err


def _limit_memory():
    # Without the cap this sweep would build a 1e9-entry list; fail fast instead.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_sweep_row_count_capped(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "eurmem", "sweep", "--family", "werner", "--x", "sigma_x",
         "--z", "sigma_z", "--p-step", "1e-9", "--out", str(tmp_path / "x.csv")],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert result.returncode == 2
    assert re.fullmatch(
        rf"error: sweep would have 1\d{{9}} rows, above the limit of {MAX_SWEEP_ROWS}\n",
        result.stderr,
    )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("field", ["family", "p_start", "p_end", "p_step"])
def test_sweep_spec_missing_field_named(capsys, tmp_path, field):
    spec = {"family": "xstate", "p_start": 0.0, "p_end": 0.2, "p_step": 0.1,
            "pairs": [["sigma_x", "sigma_z"]]}
    del spec[field]
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert err == f"error: sweep spec is missing field '{field}'\n"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"pairs": [["sigma_x"]]}, "sweep spec pairs[0] must be an [X, Z] list of two observables"),
        (
            {"pairs": [["sigma_x", "sigma_z"], ["sigma_x", "sigma_y", "sigma_z"]]},
            "sweep spec pairs[1] must be an [X, Z] list of two observables",
        ),
        ({"pairs": ["yz"]}, "sweep spec pairs[0] must be an [X, Z] list of two observables"),
        ({"pairs": "xz"}, "sweep spec needs a nonempty 'pairs' list of [X, Z] entries"),
        ({"p_start": "0"}, "sweep spec field 'p_start' must be a number, got '0'"),
        ({"p_step": None}, "sweep spec field 'p_step' must be a number, got None"),
        ({"p_end": True}, "sweep spec field 'p_end' must be a number, got True"),
        ({"out": 5}, "sweep spec field 'out' must be a string, got 5"),
    ],
)
def test_sweep_spec_malformed_entry_named(capsys, tmp_path, change, message):
    spec = {"family": "xstate", "p_start": 0.0, "p_end": 0.2, "p_step": 0.1,
            "pairs": [["sigma_x", "sigma_z"]], **change}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not list(tmp_path.glob("x*.csv"))


def test_sweep_spec_out_checked_without_out_flag(capsys, tmp_path, monkeypatch):
    spec = {"family": "xstate", "p_start": 0.0, "p_end": 0.2, "p_step": 0.1,
            "pairs": [["sigma_x", "sigma_z"]], "out": 5}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "sweep", "--spec", str(spec_path))
    assert (code, err) == (2, "error: sweep spec field 'out' must be a string, got 5\n")
    assert not list(tmp_path.glob("*.csv"))


def _near_boundary_states():
    """Two states inside the validation tolerances whose clipped spectra leave
    the outcome terms slightly off: (a) a conditional state whose smallest
    eigenvalue is -1.5 times its outcome probability, (b) outcome
    probabilities that sum to 1 + 1.44e-9 once the negative one is clamped."""
    d, e = 1.5e-10, 0.9e-10
    a = np.diag([1.0 - d + e, 0.0, d, -e])
    b = np.diag([1.0 + 16 * e] + [0.0] * 15 + [-e] * 16)
    return [(2, a), (16, b)]


@pytest.mark.parametrize("dB, mat", _near_boundary_states(), ids=["dB2", "dB16"])
def test_state_that_passes_validation_is_evaluated(capsys, tmp_path, dB, mat):
    doc = {"explicit": {"dA": 2, "dB": dB, "re": mat.tolist(), "im": np.zeros_like(mat).tolist()}}
    state = write_state(tmp_path, doc)
    commands = {
        "validate": (),
        "discord": (),
        "bounds": ("--x", "x", "--z", "z", "--with-discord"),
        "apps": ("--x", "x", "--z", "z"),
    }
    records = {}
    for command, flags in commands.items():
        code, out, err = run_cli(capsys, command, "--state", state, *flags, "--format", "json")
        assert (code, err) == (0, ""), command
        records[command] = json.loads(out)
    for command in ("discord", "bounds", "apps"):
        for key, value in records[command].items():
            if isinstance(value, float):
                assert np.isfinite(value), (command, key)
    bounds = records["bounds"]
    assert bounds["bound_berta"] <= bounds["bound_ours"] + 1e-8
    assert bounds["bound_ours"] <= bounds["actual"] + 1e-8


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"named": 5}, "observable 'named' entry must be a Pauli name, got 5"),
        ({"basis": {"im": [[1, 0], [0, 1]]}}, "observable basis needs an object with field 're'"),
        ({"basis": [[1, 0], [0, 1]]}, "observable basis needs an object with field 're'"),
        (
            {"basis": {"re": [[1, 0], ["a", 1]]}},
            "observable basis 're' and 'im' fields must be arrays of numbers",
        ),
        (
            {"basis": {"re": [[1, 0], [0, 1]], "im": [[0]]}},
            "observable basis 're' and 'im' parts have different shapes",
        ),
        ({"bloch": "abc"}, "observable 'bloch' entry must be a list of numbers, got 'abc'"),
        ({"bloch": [0, "0", 1]}, "observable 'bloch' entry must be a list of numbers, got [0, '0', 1]"),
        ({"bloch": [0, 0, True]}, "observable 'bloch' entry must be a list of numbers, got [0, 0, True]"),
        ({"bloch": [float("nan"), 0, 1]}, "observable 'bloch' entry must be finite, got [nan, 0, 1]"),
        (
            {"basis": {"re": [[1, 0], [0, float("nan")]]}},
            "observable basis 're' and 'im' fields must be finite",
        ),
    ],
)
def test_malformed_observable_spec_exits_2_naming_the_field(capsys, tmp_path, spec, message):
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 0.5}})
    code, out, err = run_cli(
        capsys, "bounds", "--state", state, "--x", json.dumps(spec), "--z", "sigma_z"
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    # the same observable as an entry of a sweep spec's pairs
    sweep = {"family": "xstate", "p_start": 0.0, "p_end": 0.2, "p_step": 0.1,
             "pairs": [["sigma_x", "sigma_z"], ["sigma_x", spec]]}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(sweep), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not list(tmp_path.glob("x*.csv"))


@pytest.mark.parametrize(
    "explicit, message",
    [
        (
            {"dA": 2, "dB": 2, "im": np.zeros((4, 4)).tolist()},
            "explicit state needs an object with field 're'",
        ),
        ([[1.0]], "explicit state needs an object with field 're'"),
        ({"dA": 2, "re": (np.eye(4) / 4).tolist()}, "explicit state is missing field 'dB'"),
        (
            {"dA": 2.7, "dB": 2, "re": (np.eye(4) / 4).tolist()},
            "explicit state field 'dA' must be an integer, got 2.7",
        ),
        (
            {"dA": 2, "dB": "2", "re": (np.eye(4) / 4).tolist()},
            "explicit state field 'dB' must be an integer, got '2'",
        ),
        (
            {"dA": True, "dB": 4, "re": (np.eye(4) / 4).tolist()},
            "explicit state field 'dA' must be an integer, got True",
        ),
    ],
)
def test_malformed_explicit_state_exits_2_naming_the_field(capsys, tmp_path, explicit, message):
    state = write_state(tmp_path, {"explicit": explicit})
    for command in ("validate", "discord"):
        code, out, err = run_cli(capsys, command, "--state", state)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


def test_integral_float_dimensions_are_accepted(capsys, tmp_path):
    outputs = []
    for dims in ({"dA": 2, "dB": 2}, {"dA": 2.0, "dB": 2.0}):
        state = write_state(tmp_path, {"explicit": {**dims, "re": (np.eye(4) / 4).tolist()}})
        outputs.append(run_cli(capsys, "validate", "--state", state))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("p", [[0.5], "0.5", True, None])
def test_non_numeric_family_parameter_exits_2_naming_the_field(capsys, tmp_path, p):
    # p as the number p, as an entry of a vector parameter, and as the whole vector
    cases = [
        ("werner", "p", p, "a number"),
        ("bell_diagonal", "r", [0.0, p, 0.0], "a list of numbers"),
        ("pure_schmidt", "lambdas", [p, 0.5], "a list of numbers"),
    ]
    if not isinstance(p, list):
        cases += [
            ("bell_diagonal", "r", p, "a list of numbers"),
            ("pure_schmidt", "lambdas", p, "a list of numbers"),
        ]
    for name, key, value, kind in cases:
        state = write_state(tmp_path, {"family": {"name": name, key: value}})
        code, out, err = run_cli(capsys, "bounds", "--state", state, "--x", "sigma_x", "--z", "sigma_z")
        assert (code, out) == (2, "")
        assert err == f"error: {name} parameter {key!r} must be {kind}, got {value!r}\n"


@pytest.mark.parametrize("name", ["X", "sigma_Z"])
def test_bare_pauli_names_parse_as_the_named_form(capsys, tmp_path, name):
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 0.5}})
    named = json.dumps({"named": name})
    bare = run_cli(capsys, "bounds", "--state", state, "--x", name, "--z", "sigma_x")
    assert bare[0] == 0
    assert bare == run_cli(capsys, "bounds", "--state", state, "--x", named, "--z", "sigma_x")


def test_unparseable_observable_exits_2(capsys, tmp_path):
    state = write_state(tmp_path, {"family": {"name": "werner", "p": 0.5}})
    code, out, err = run_cli(capsys, "bounds", "--state", state, "--x", "sigma_w", "--z", "z")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse observable 'sigma_w': expected sigma_x|sigma_y|sigma_z")


def test_sweep_spec_pair_label_matches_preset(capsys, tmp_path):
    spec = {"family": "xstate", "p_start": 0.0, "p_end": 1.0, "p_step": 0.01,
            "pairs": ["xz", ["sigma_x", "sigma_y"]]}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "xs.csv")]) == 0
    assert main(["sweep", "--preset", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "xs_pair1.csv").read_bytes() == (tmp_path / "fig2.csv").read_bytes()
    assert (tmp_path / "xs_pair2.csv").exists()


def test_validate_csv_format(capsys, tmp_path):
    bad = write_state(
        tmp_path, {"explicit": {"dA": 2, "dB": 2, "re": (np.eye(4) * 0.375).tolist()}}
    )
    code, out, _ = run_cli(capsys, "validate", "--state", bad, "--format", "csv")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == VALIDATE_CSV_HEADER
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert list(rows) == ["shape", "finite", "hermitian", "trace", "psd"]
    assert rows["trace"][1:] == ["false", "0.5", "1e-10"]
    assert rows["psd"][1] == "true"


def test_sweep_spanning_row_blocks_matches_per_row_reports(tmp_path, capsys):
    import tracemalloc

    pairs = [["sigma_x", "sigma_z"], ["sigma_x", "sigma_y"]]

    def sweep(step, name):
        spec = {"family": "werner", "p_start": 0.0, "p_end": 1.0, "p_step": step, "pairs": pairs}
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / f"{name}.csv")]) == 0
        capsys.readouterr()
        return [tmp_path / f"{name}_pair{k}.csv" for k in (1, 2)]

    def traced_peak(step, name):
        tracemalloc.start()
        try:
            sweep(step, name)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fine = sweep(0.001, "fine")
    tables = [path.read_text(encoding="utf-8").splitlines()[1:] for path in fine]
    ps = _sweep_grid(0.0, 1.0, 0.001)
    assert len(ps) == len(tables[0]) == 1001 > 2 * SWEEP_BLOCK_ROWS
    for k, p in enumerate(ps):
        rho = werner(p)
        corr = classical_correlation(rho)
        for pair, lines in zip(pairs, tables):
            want = {"p": p, **bounds_report(rho, *map(pauli_observable, pair), corr).to_dict()}
            # the same numbers as the one-row calls, printed the same way
            assert lines[k] == ",".join(_fmt(want[key]) for key in SWEEP_HEADER.split(",")), k
    again = sweep(0.001, "again")
    assert [p.read_bytes() for p in fine] == [p.read_bytes() for p in again]
    # Memory stays that of one row block, whatever the sweep's length: a
    # 2001-row sweep peaks at most 1.5 times as high as the 1001-row one
    # (both span several blocks, so a smaller block peak lowers both).
    assert traced_peak(0.0005, "longer") <= 1.5 * traced_peak(0.001, "long")


def test_parser_is_built_once_and_keeps_no_parsed_state(capsys):
    # a generic state, whose grid maximum depends on the grid
    state = json.dumps(to_spec(random_density_matrix(np.random.default_rng(3))))
    assert build_parser() is build_parser()
    code, wide, _ = run_cli(capsys, "discord", "--state", state, "--grid-theta", "20", "--grid-phi", "40")
    assert code == 0
    code, default, _ = run_cli(capsys, "discord", "--state", state)
    assert code == 0
    build_parser.cache_clear()
    code, fresh, _ = run_cli(capsys, "discord", "--state", state)
    assert code == 0
    assert default == fresh != wide
    assert json.loads(wide)["grid_best"] != json.loads(fresh)["grid_best"]


def test_sweep_pair_label_for_a_family_without_presets_fails_at_entry(
    capsys, tmp_path, monkeypatch
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep ran before its pairs were checked")

    monkeypatch.setattr(cli, "classical_correlation_stack", unreachable)
    monkeypatch.setattr(cli, "family_stack", unreachable)
    spec = {"family": "werner", "p_start": 0.0, "p_end": 1.0, "p_step": 0.01, "pairs": ["xy"]}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert err == "error: no preset observables for family 'werner'\n"
    assert not list(tmp_path.glob("x*.csv"))
