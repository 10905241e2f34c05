"""One workload in one fresh interpreter: set up, warm up, time, check.

    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace T [--setup-only]

With ``--setup-only`` the process imports ``eurmem.cli``, builds the inputs,
runs one warm-up op and prints ``ready``; ``run.py`` times that from
process start to the printed line (``setup_s``).  It then prints one speed
probe reading (see ``calibration.py``) and exits.  Otherwise it runs the
closed loop (one client, no threads) and prints one JSON line with the
loop's figures.  With ``--trace 1`` the loop is split in two halves, the
first untraced and the second traced, so the difference in throughput is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Candidate tail percentiles, highest first.  The ladder stops at p95:
# even scaled, p99 moved by a sixth of its median between runs of the same
# code, more than a third of any bound this benchmark may set.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# How often the speed probe (1-3 ms) runs between ops.
CALIBRATE_EVERY_S = 0.05


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def import_library():
    """Import eurmem from this checkout's src/ only, never from elsewhere."""
    if not (SRC / "eurmem" / "__init__.py").is_file():
        raise SystemExit(f"error: no eurmem sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import eurmem.cli  # noqa: F401  (the import every CLI call pays)
    import eurmem

    if Path(eurmem.__file__).resolve().parent != SRC / "eurmem":
        raise SystemExit(f"error: eurmem imported from {eurmem.__file__}, not {SRC}")


def timed_loop(workload, seconds, probe, tracer=None):
    """Closed loop over whole passes of the inputs until ``seconds`` have passed.

    The speed probe runs between ops, at most every CALIBRATE_EVERY_S; each
    op's latency is scaled by the mean of the probe readings just before
    and just after it.  Returns the scaled and the plain latencies
    (seconds) and the count of failed checks.  Checks also run between
    ops, outside the timed region; they call nothing in ``eurmem``, so they
    add no spans.
    """
    scaled, plain = [], []
    failed = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    before = probe.scale()
    last_probe = clock()
    pending = 0
    while clock() < deadline:
        for k in range(workload.size):
            if tracer is not None:
                tracer.op = len(plain)
            t0 = clock()
            result = workload.run_op(k)
            t1 = clock()
            plain.append(t1 - t0)
            pending += 1
            failed += not workload.check(k, result)
            if clock() - last_probe >= CALIBRATE_EVERY_S:
                after = probe.scale()
                last_probe = clock()
                factor = 0.5 * (before + after)
                scaled.extend(v * factor for v in plain[len(plain) - pending:])
                before, pending = after, 0
    if pending:
        factor = 0.5 * (before + probe.scale())
        scaled.extend(v * factor for v in plain[len(plain) - pending:])
    return scaled, plain, failed


def tail(sorted_values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 20 samples."""
    n = len(sorted_values)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return q, sorted_values[rank - 1]
    return 100.0, sorted_values[-1]


def loop_figures(scaled, plain):
    """End-to-end figures of one loop from its scaled op latencies; the
    plain figures are kept alongside for reference."""
    lat = sorted(scaled)
    q, tail_value = tail(lat)
    return {
        "ops": len(lat),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_value,
        "op_tail_pct": q,
        "plain_ops_per_s": len(plain) / sum(plain),
        "plain_op_p50_ms": 1e3 * statistics.median(plain),
        "speed_scale": sum(scaled) / sum(plain),
    }


def layer_figures(tracer, ops):
    """Per-op calls, self time and failures of every traced function, plus
    the optimizer trace fields (per ``classical_correlation`` call)."""
    out = {}
    failures = 0
    for label, (calls, self_s, failed) in sorted(tracer.layer_totals().items()):
        out[f"{label}.calls_per_op"] = calls / ops
        out[f"{label}.self_ms_per_op"] = 1e3 * self_s / ops
        out[f"{label}.failures_per_op"] = failed / ops
        failures += failed
    calls = tracer.correlation_calls
    n = max(1, len(calls))
    out["infoquant.classical_correlation.grid_points_per_call"] = sum(c[0] for c in calls) / n
    out["infoquant.classical_correlation.refine_iters_per_call"] = sum(c[1] for c in calls) / n
    out["infoquant.classical_correlation.refine_gain"] = sum(c[2] for c in calls) / n
    out["trace.span_failures_per_op"] = failures / ops
    out["trace.spans_per_op"] = len(tracer.spans) / ops
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads
    from calibration import SpeedProbe
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.run_op(0)
        probe = SpeedProbe(workload.probe_grid_weight)
        if args.setup_only:
            # setup_s ends here; the probe reading after it scales it.
            print("ready", flush=True)
            print(statistics.median(probe.scale() for _ in range(3)), flush=True)
            return 0

        workload.prepare_checks()
        result = {}
        if args.trace:
            half = args.seconds / 2.0
            scaled_u, plain_u, failed_u = timed_loop(workload, half, probe)
            tracer = Tracer()
            tracer.install()
            try:
                scaled_t, plain_t, failed_t = timed_loop(workload, half, probe, tracer)
            finally:
                tracer.uninstall()
            span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(span_file)
            untraced = loop_figures(scaled_u, plain_u)
            traced = loop_figures(scaled_t, plain_t)
            result["layers"] = layer_figures(tracer, len(plain_t))
            result["layers"]["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
            result["layers"]["trace.ops_per_s_traced"] = traced["ops_per_s"]
            result["layers"]["trace.overhead_frac"] = 1.0 - traced["ops_per_s"] / untraced["ops_per_s"]
            result["span_file"] = str(span_file.relative_to(ROOT))
            result["attempted"] = len(plain_u) + len(plain_t)
            result["failed"] = failed_u + failed_t
        else:
            scaled, plain, failed = timed_loop(workload, args.seconds, probe)
            result.update(loop_figures(scaled, plain))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["attempted"] = len(plain)
            result["failed"] = failed
        result["numpy"] = sys.modules["numpy"].__version__
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
