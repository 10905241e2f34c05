"""Benchmark entry point: one workload, end-to-end or traced.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/eurmem`` must exist).  With
``--trace 0`` it times ``setup_s`` over several fresh interpreters, then
runs the workload's closed loop in one more fresh interpreter and reports
the end-to-end metrics.  With ``--trace 1`` it reports the per-layer
metrics from a traced loop instead.  Human-readable lines come first; the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("figure_sweeps", "random_bounds", "random_discord", "wide_memory")
# setup_s is the median of this many set-up runs, half before the timed run
# and half after it, so that they sample the machine at different moments.
SETUP_RUNS = 6
SETUP_TIMEOUT_S = 30.0
# The loop may overrun --seconds by one pass; checks and references add more.
RUN_TIMEOUT_EXTRA_S = 60.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="eurmem benchmark (see benchmarks/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    """Single-threaded BLAS/OpenMP, whatever the caller's environment says."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker_cmd(args, setup_only=False):
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    return cmd + ["--setup-only"] if setup_only else cmd


def _finish(proc, timeout):
    """Wait for proc; kill it if it outlives timeout.  Returns (stdout, stderr)."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s") from None


def time_setup(args, env) -> tuple[float, float]:
    """(plain, scaled) seconds from spawning a fresh interpreter to the end
    of its warm-up op; scaled by the speed probe the process runs next."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd(args, setup_only=True), cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        out, err = _finish(proc, SETUP_TIMEOUT_S)
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"setup run failed (exit {proc.returncode}): {err.strip()}")
    return elapsed, elapsed * float(out.strip())


def run_worker(args, env) -> dict:
    proc = subprocess.Popen(
        worker_cmd(args), cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = _finish(proc, args.seconds + RUN_TIMEOUT_EXTRA_S)
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"workload run failed (exit {proc.returncode}): {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def environment(env, numpy_version) -> dict:
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split() or ("", "")
    except (OSError, ValueError, subprocess.TimeoutExpired):
        top, commit = "", ""
    if not top or Path(top).resolve() != ROOT:
        commit = ""
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {var: env.get(var) for var in THREAD_VARS},
    }


def metric_units(trace: int) -> dict:
    """name -> unit of the metrics this mode must report, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, env):
    """Run the workload; returns (worker result, metric values, notes)."""
    if args.trace:
        run = run_worker(args, env)
        return run, dict(run["layers"]), {"span_file": run["span_file"]}
    before = [time_setup(args, env) for _ in range(SETUP_RUNS // 2)]
    run = run_worker(args, env)
    after = [time_setup(args, env) for _ in range(SETUP_RUNS - len(before))]
    setups = before + after
    values = {name: run[name] for name in ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
    values["setup_s"] = statistics.median(scaled for _, scaled in setups)
    values["ok_ops_frac"] = 1.0 - run["failed"] / run["attempted"]
    notes = {
        "ops": run["ops"],
        "op_tail_percentile": run["op_tail_pct"],
        "failed_ops_frac": run["failed"] / run["attempted"],
        "speed_scale": run["speed_scale"],
        "plain_ops_per_s": run["plain_ops_per_s"],
        "plain_op_p50_ms": run["plain_op_p50_ms"],
        "plain_setup_s": statistics.median(plain for plain, _ in setups),
    }
    return run, values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eurmem" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a source checkout with src/eurmem and {SPEC.name}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    env = child_env()
    try:
        units = metric_units(args.trace)
        run, values, notes = measure(args, env)
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchmarkError(f"metrics not produced: {', '.join(missing)}")
        env_record = environment(env, run["numpy"])
    except (BenchmarkError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, notes=notes, environment=env_record, all_values=values)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for key, value in notes.items():
        print(f"  {key:<54} {value}")
    for name, unit in units.items():
        print(f"  {name:<54} {values[name]:.6g} {unit}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
