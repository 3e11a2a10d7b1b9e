"""Benchmark of the certification stack: one workload per process.

    python3 perfbench/run.py --workload hcas-sweep --seed 1 --seconds 10 --trace 0

Workloads: ``fcx40-tighten``, ``hcas-sweep``, ``hcas-service`` (see
``perfbench/workloads.py`` and ``BENCHMARK.json`` for why each exists).
Run it from the repository root; it imports the library from ``src/``.

``--trace 0`` sets the workload up several times (``setup_s`` is their
median), measures it for ``--seconds`` with tracing off, runs the
correctness check and reports the end-to-end metrics, plus request
latency and ``failed_share`` in the text output.  ``--trace 1``
measures half the time untraced and half traced (fresh stacks, same
inputs), checks that both runs gave identical verdicts, writes the spans
to ``.perfbench-out/`` and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    # One BLAS thread, set before numpy loads: on a small host the BLAS
    # threads compete with each other and with the service workload's
    # worker processes, which made pass times swing from run to run.
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_variable] = "1"

import numpy as np  # noqa: E402

from perfbench import checks, inputs, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def end_to_end(setups, run):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "regions_per_s": (run.regions_per_s, "1/s"),
        "certified": (run.certified, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def latency_line(latencies):
    """Median and p90 latency, plus the highest percentile that still has
    ten requests beyond it."""
    count = len(latencies)
    line = (
        f"latency over {count} requests: p50 {np.percentile(latencies, 50):.4f} s, "
        f"p90 {np.percentile(latencies, 90):.4f} s"
    )
    if count >= 20:
        share = 100 * (1 - 10 / count)
        line += f", p{share:.1f} {np.percentile(latencies, share):.4f} s"
    return line


def run_checked(workload, model, run, seed):
    """Correctness check on a seeded subsample; returns failure lines."""
    picks = inputs.subsample(len(run.queries), workloads.CHECK_SIZES[workload.name], seed)
    return checks.check(model, workload.config, [run.queries[i] for i in picks], seed)


def measure(workload, seconds, trace, seed, setup_repeats=SETUP_REPEATS):
    """Set up, run, check; returns ``(result dict, report lines)``."""
    lines = []
    setups = []
    for _ in range(setup_repeats):
        start = time.perf_counter()
        model = workload.setup()
        setups.append(time.perf_counter() - start)

    if not trace:
        run = workload.run(model, seconds)
        failures = run_checked(workload, model, run, seed)
        attempted, failed = run.tally.attempted, run.tally.failed + len(failures)
        metrics = end_to_end(setups, run)
        lines.append(f"setup runs: {', '.join(f'{s:.3f}' for s in setups)} s")
        lines.append(latency_line(run.latencies))
    else:
        untraced = workload.run(model, seconds / 2)
        observed = workloads.Observations()
        tracer = Tracer(observed.observers())
        run = workload.run(model, seconds / 2, tracer=tracer)
        failures = run_checked(workload, model, run, seed)
        compared, flips = workloads.flips(untraced.tally, run.tally)
        attempted = untraced.tally.attempted + run.tally.attempted
        failed = untraced.tally.failed + run.tally.failed + len(failures) + flips
        values = workloads.layer_metrics(tracer, observed, run)
        values["trace.overhead_regions_per_s"] = run.regions_per_s - untraced.regions_per_s
        metrics = {name: (values[name], unit) for name, unit in workloads.PER_LAYER}
        lines.extend(trace_report(tracer, run, untraced, flips, compared, workload.name))

    for error in run.errors[:5]:
        lines.append(f"error: {error}")
    for failure in failures:
        lines.append(f"check failed: {failure}")
    lines.append(f"correctness check: {len(failures)} of the sampled queries failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def trace_report(tracer, run, untraced, flips, compared, name):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.spans.jsonl.gz")
    tracer.write(path)
    # Summed request latency: pass time for the sweeps; for the service,
    # the two clients' requests overlap, so shares are of request-seconds.
    total = sum(run.latencies)
    lines = [
        f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}",
        f"{'span':34s} {'calls':>9s} {'incl s':>9s} {'self s':>9s} {'% of request time':>18s}",
    ]
    summary = tracer.summary()
    for span, row in sorted(summary.items(), key=lambda item: -item[1]["self_seconds"]):
        lines.append(
            f"{span:34s} {row['calls']:9d} {row['seconds']:9.4f} {row['self_seconds']:9.4f} "
            f"{100 * row['self_seconds'] / total:17.1f}%"
        )
    if "craft.phase2" in summary:
        lines.append(f"craft.phase2 share of the timed passes: {summary['craft.phase2']['seconds'] / total:.3f}")
    lines.append(
        f"traced verdicts identical to untraced: {'yes' if flips == 0 else 'NO'} "
        f"({compared} queries compared, {flips} differ)"
    )
    lines.append(
        f"tracing overhead: {run.regions_per_s - untraced.regions_per_s:+.2f} regions/s "
        f"(traced {run.regions_per_s:.2f}, untraced {untraced.regions_per_s:.2f})"
    )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, OUT_DIR)
    result, lines = measure(workload, args.seconds, bool(args.trace), args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_share {result['failed'] / result['attempted']:.4f} ratio")
    for name, metric in result["metrics"].items():
        print(f"{name:38s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
