"""Command-line surface: bound reports, figure-data sweeps, discord and
application reports, and state validation.

Commands
--------
bounds    all uncertainty bounds for one (state, X, Z) triple
sweep     CSV of bounds along a one-parameter family (presets fig1a,
          fig1b, fig2 regenerate the reference figure data)
discord   classical correlation / discord via the Bloch-sphere optimizer
apps      entanglement witness, E_f lower bound, common-randomness upper bound
validate  density-matrix invariant report for a state file

States are JSON documents (see states.from_spec), observables are bare
Pauli names, inline JSON specs, or @file references.  All output is
deterministic: identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .apps import applications_report
from .bounds import bounds_report, bounds_table, family_pairs
from .infoquant import OptimizerConfig, classical_correlation, classical_correlation_stack
from .measure import observable_from_spec
from .states import (
    ONE_PARAMETER_FAMILIES,
    StateValidationError,
    _LongInt,
    family_stack,
    from_spec,
    is_number,
    parse_explicit,
    to_float,
    to_spec,
    validate,
)

SWEEP_HEADER = "p,q_mu,s_cond,i_ab,i_xb,i_zb,delta,bound_berta,bound_pati,bound_ours,actual"
_SWEEP_FIELDS = SWEEP_HEADER.split(",")
_SWEEP_LINE = ",".join(["%.12g"] * len(_SWEEP_FIELDS)) + "\n"
# Largest sweep accepted, in rows: p_step 1e-5 over [0, 1].  Each row runs
# the J_A optimizer and the bounds, about 0.1-0.13 ms on a family state with
# one pair (10 001-row sweeps take 1.3-1.6 s, start-up included, on a 2-vCPU
# x86-64 host), so this is already 10-13 s of work.
MAX_SWEEP_ROWS = 100_001
# A sweep is evaluated as stacks of this many states (one spectra pass each),
# so that its memory does not grow with its length.
SWEEP_BLOCK_ROWS = 128
VALIDATE_CSV_HEADER = "name,passed,residual,tolerance"

# Canned sweep specs over p in [0, 1] in steps of 0.01.  A string pair is
# a bounds.family_pairs label, resolved at each p of a block.
PRESETS = {
    "fig1a": {"family": "bell_diagonal_special", "pairs": ["xy"]},
    "fig1b": {"family": "bell_diagonal_special", "pairs": ["xz"]},
    "fig2": {"family": "xstate", "pairs": ["xz"]},
}


def _fmt(value: float) -> str:
    """Shortest decimal capped at 12 significant digits (-0.0 normalized)."""
    return format(float(value) + 0.0, ".12g")


def _load_doc(arg: str):
    """A JSON document given inline (starting with "{") or by file path."""
    text = arg if arg.strip().startswith("{") else Path(arg).read_text(encoding="utf-8")
    return json.loads(text, parse_int=_LongInt)


def _load_state_arg(arg: str):
    """State from a file path or inline JSON; returns (state, echo-fields)."""
    doc = _load_doc(arg)
    rho = from_spec(doc)
    echo: dict = {}
    if isinstance(doc, dict) and "family" in doc:
        family = doc["family"]
        echo["family"] = family.get("name")
        if "p" in family:
            echo["p"] = family["p"]
    return rho, echo


def _load_observable_arg(arg: str):
    text = arg.strip()
    if text.startswith(("{", "@")):
        return observable_from_spec(_load_doc(text.removeprefix("@")))
    try:
        return observable_from_spec(text)
    except ValueError:
        raise ValueError(
            f"cannot parse observable {arg!r}: expected sigma_x|sigma_y|sigma_z, "
            "inline JSON, or @file"
        ) from None


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(grid_theta=args.grid_theta, grid_phi=args.grid_phi)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _plain(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return "/".join(_plain(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def _render_flat(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    if fmt == "table":
        width = max(len(k) for k in record)
        lines = [f"{k:<{width}}  {_plain(v)}" for k, v in record.items()]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        keys = list(record)
        return ",".join(keys) + "\n" + ",".join(_plain(v) for v in record.values()) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def cmd_bounds(args) -> int:
    rho, echo = _load_state_arg(args.state)
    x = _load_observable_arg(args.x)
    z = _load_observable_arg(args.z)
    corr = classical_correlation(rho, _optimizer_config(args)) if args.with_discord else None
    report = bounds_report(rho, x, z, corr)
    record = report.to_dict()
    record.update(echo)
    record["observables"] = [x.label(), z.label()]
    if args.echo_state:
        record["state"] = to_spec(rho)
    _emit(_render_flat(record, args.format), args.out)
    return 0


def _sweep_grid(p_start: float, p_end: float, p_step: float) -> list[float]:
    if not (0.0 <= p_start <= p_end <= 1.0):
        raise ValueError("sweep requires 0 <= p_start <= p_end <= 1")
    if not p_step > 0.0:
        raise ValueError("sweep requires p_step > 0")
    span = (p_end - p_start) / p_step + 1e-9
    if span >= MAX_SWEEP_ROWS:
        rows = math.floor(span) + 1 if math.isfinite(span) else span
        raise ValueError(f"sweep would have {rows} rows, above the limit of {MAX_SWEEP_ROWS}")
    count = int(span)
    ps = [p_start + k * p_step for k in range(count + 1)]
    if ps[-1] > p_end:
        ps[-1] = p_end
    elif p_end - ps[-1] > 1e-12:
        ps.append(p_end)
    return ps


def _indexed_path(path: Path, index: int, total: int) -> Path:
    if total == 1:
        return path
    return path.with_name(f"{path.stem}_pair{index + 1}{path.suffix}")


def _sweep_spec(args) -> tuple[dict, Path]:
    """The sweep named by --preset, --spec or --family as a spec, and its path."""
    if args.preset:
        spec = {**PRESETS[args.preset], "p_start": 0.0, "p_end": 1.0, "p_step": 0.01}
        return spec, Path(args.out or f"{args.preset}.csv")
    if args.spec:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"), parse_int=_LongInt)
        if not isinstance(spec, dict):
            raise ValueError("sweep spec must be a JSON object")
        for field in ("family", "p_start", "p_end", "p_step"):
            if field not in spec:
                raise ValueError(f"sweep spec is missing field {field!r}")
        for field in ("p_start", "p_end", "p_step"):
            value = spec[field]
            if not is_number(value):
                raise ValueError(f"sweep spec field {field!r} must be a number, got {value!r}")
            spec[field] = to_float(value, f"sweep spec field {field!r}")
        if not isinstance(spec.get("out", ""), str):
            raise ValueError(f"sweep spec field 'out' must be a string, got {spec['out']!r}")
        return spec, Path(args.out or spec.get("out") or f"{spec['family']}_sweep.csv")
    if not (args.family and args.x and args.z):
        raise ValueError("sweep needs --preset, --spec, or --family with --x and --z")
    spec = dict(family=args.family, p_start=args.p_start, p_end=args.p_end, p_step=args.p_step)
    spec["pairs"] = [[args.x, args.z]]
    return spec, Path(args.out or f"{args.family}_sweep.csv")


def _sweep_pairs(family: str, pairs) -> list:
    """One function of a block of p values giving (X, Z) per spec ``pairs``
    entry: an observable each for all rows, or a list each of one per row."""
    if not isinstance(pairs, list) or not pairs:
        raise ValueError("sweep spec needs a nonempty 'pairs' list of [X, Z] entries")
    resolved = []
    for i, entry in enumerate(pairs):
        if entry in ("xy", "xz"):
            # Resolved once here, so that a family without preset
            # observables fails before any state is built.
            family_pairs(family, [0.0], entry)
            resolved.append(lambda ps, label=entry: family_pairs(family, ps, label))
        elif isinstance(entry, list) and len(entry) == 2:
            xz = [_load_observable_arg(r) if isinstance(r, str) else observable_from_spec(r) for r in entry]
            resolved.append(lambda ps, xz=xz: xz)
        else:
            raise ValueError(
                f"sweep spec pairs[{i}] must be an [X, Z] list of two observables "
                f"or a pair label 'xy' or 'xz', got {entry!r}"
            )
    return resolved


def cmd_sweep(args) -> int:
    spec, out = _sweep_spec(args)
    ps = _sweep_grid(spec["p_start"], spec["p_end"], spec["p_step"])
    family = spec["family"]
    if not isinstance(family, str) or family not in ONE_PARAMETER_FAMILIES:
        names = sorted(ONE_PARAMETER_FAMILIES)
        raise ValueError(f"sweep family must be one of {names}, got {family!r}")
    pairs = _sweep_pairs(family, spec.get("pairs"))
    cfg = _optimizer_config(args)
    with contextlib.ExitStack() as stack:
        # Each block's rows go out as they come, so a sweep's memory is that of one block.
        files = [
            stack.enter_context(_indexed_path(out, i, len(pairs)).open("w", encoding="utf-8", newline=""))
            for i in range(len(pairs))
        ]
        for file in files:
            file.write(SWEEP_HEADER + "\n")
        for start in range(0, len(ps), SWEEP_BLOCK_ROWS):
            block = ps[start : start + SWEEP_BLOCK_ROWS]
            states = family_stack(family, block)
            corr = classical_correlation_stack(states, cfg)
            for file, observables_for in zip(files, pairs):
                columns = {"p": block, **bounds_table(states, *observables_for(block), corr)}
                # _fmt of every entry: "%" formats a float as format() does
                rows = zip(*((np.asarray(columns[key], dtype=float) + 0.0).tolist() for key in _SWEEP_FIELDS))
                file.writelines(_SWEEP_LINE % row for row in rows)
    return 0


def cmd_discord(args) -> int:
    rho, echo = _load_state_arg(args.state)
    report = classical_correlation(rho, _optimizer_config(args))
    record = report.to_dict()
    record.update(echo)
    _emit(_render_flat(record, args.format), args.out)
    return 0


def cmd_apps(args) -> int:
    rho, echo = _load_state_arg(args.state)
    x = _load_observable_arg(args.x)
    z = _load_observable_arg(args.z)
    record = applications_report(rho, x, z)
    record.update(echo)
    record["observables"] = [x.label(), z.label()]
    _emit(_render_flat(record, args.format), args.out)
    return 0


def cmd_validate(args) -> int:
    doc = _load_doc(args.state)
    if isinstance(doc, dict) and "explicit" in doc:
        mat, dA, dB = parse_explicit(doc["explicit"])
        report = validate(mat, dA, dB)
    else:
        rho = from_spec(doc)  # family docs validate during construction
        report = validate(rho.mat, rho.dA, rho.dB)
    _emit(_render_flat_report(report, args.format), args.out)
    return 0 if report.passed else 1


def _render_flat_report(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if fmt == "csv":
        rows = [VALIDATE_CSV_HEADER] + [
            f"{c.name},{str(c.passed).lower()},{_fmt(c.residual)},{_fmt(c.tolerance)}"
            for c in report.checks
        ]
        return "\n".join(rows) + "\n"
    lines = [f"passed: {report.passed}"]
    for c in report.checks:
        lines.append(
            f"{c.name:<10} {'pass' if c.passed else 'FAIL'}  "
            f"residual={_fmt(c.residual)}  tolerance={_fmt(c.tolerance)}"
        )
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="eurmem",
        description="Entropic uncertainty lower bounds in the presence of quantum memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, state=True, observables=False, optimizer=False):
        if state:
            p.add_argument("--state", required=True, help="state JSON file (or inline JSON)")
        if observables:
            p.add_argument("--x", required=True, help="first observable spec")
            p.add_argument("--z", required=True, help="second observable spec")
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if optimizer:
            p.add_argument("--grid-theta", type=int, default=OptimizerConfig.grid_theta)
            p.add_argument("--grid-phi", type=int, default=OptimizerConfig.grid_phi)

    p_bounds = sub.add_parser("bounds", help="bound report for one (state, X, Z) triple")
    add_common(p_bounds, observables=True, optimizer=True)
    p_bounds.add_argument(
        "--with-discord",
        action="store_true",
        help="run the correlation optimizer and fill bound_pati",
    )
    p_bounds.add_argument(
        "--echo-state",
        action="store_true",
        help="include the state in re-ingestible explicit form",
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a one-parameter family")
    p_sweep.add_argument("--preset", choices=sorted(PRESETS))
    p_sweep.add_argument("--spec", help="sweep specification JSON file")
    p_sweep.add_argument("--family", choices=sorted(ONE_PARAMETER_FAMILIES))
    p_sweep.add_argument("--p-start", type=float, default=0.0)
    p_sweep.add_argument("--p-end", type=float, default=1.0)
    p_sweep.add_argument("--p-step", type=float, default=0.01)
    p_sweep.add_argument("--x", help="first observable spec (custom sweeps)")
    p_sweep.add_argument("--z", help="second observable spec (custom sweeps)")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.add_argument("--grid-theta", type=int, default=OptimizerConfig.grid_theta)
    p_sweep.add_argument("--grid-phi", type=int, default=OptimizerConfig.grid_phi)
    p_sweep.set_defaults(func=cmd_sweep)

    p_discord = sub.add_parser("discord", help="classical correlation and discord")
    add_common(p_discord, optimizer=True)
    p_discord.set_defaults(func=cmd_discord)

    p_apps = sub.add_parser("apps", help="witness and application bounds")
    add_common(p_apps, observables=True)
    p_apps.set_defaults(func=cmd_apps)

    p_validate = sub.add_parser("validate", help="density-matrix invariant report")
    add_common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StateValidationError as exc:
        print(f"error: invariant '{exc.invariant}' violated: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
