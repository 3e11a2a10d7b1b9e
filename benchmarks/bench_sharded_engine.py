"""Sharded certification scheduler — throughput vs the single-process engine.

A 256-region HCAS sweep (small scale, unclipped epsilon 2.0 so the
outcome mix contains hard cells, as the Fig. 11 splitting frontier does).
A 4-worker :class:`ShardedScheduler` is compared against the
single-process batched engine; verdicts must be identical region by
region.  The ≥3x wall-clock acceptance assertion arms only when the host
actually offers ≥4 CPUs — on fewer cores the row is still measured and
reported (the speedup is then physically capped below 1).

The row dictionaries are appended to ``BENCH_sharded_engine.json``
(``$BENCH_OUTPUT_DIR`` or the working directory), which CI uploads as an
artifact so the performance trajectory accumulates run over run.
"""

import time

import numpy as np

from _harness import append_trajectory, run_once

from repro.core.config import CraftConfig
from repro.engine import BatchCertificationScheduler, ShardedScheduler
from repro.engine.sharded import default_num_workers
from repro.experiments.model_zoo import get_model


def _workload(model_name, scale, regions):
    model, dataset = get_model(model_name, scale)
    repeats = regions // len(dataset.x_test) + 1
    xs = np.vstack([dataset.x_test] * repeats)[:regions]
    ys = np.concatenate([dataset.y_test] * repeats)[:regions].astype(int)
    return model, xs, ys


def _assert_identical_verdicts(reference, candidate):
    mismatches = sum(
        r.outcome != c.outcome or r.certified != c.certified or r.contained != c.contained
        for r, c in zip(reference, candidate)
    )
    return mismatches


def _sharded_row():
    model, xs, ys = _workload("HCAS-FCx100", "small", regions=256)
    config = CraftConfig(slope_optimization="none")
    epsilon, clip = 2.0, None
    workers = 4
    # The scheduler is constructed (and its pool forked) before any
    # parent-side BLAS work — the fork-before-BLAS ordering the scheduler's
    # eager spawn exists for.
    with ShardedScheduler(
        model, config, num_workers=workers, keep_abstractions=False,
        timeout_seconds=600.0,
    ) as scheduler:
        # Warm-up: first-touch BLAS initialisation must not bias either side.
        BatchCertificationScheduler(model, config, batch_size=2).certify(
            xs[:2], ys[:2], epsilon, clip_min=clip, clip_max=clip
        )

        start = time.perf_counter()
        batched = BatchCertificationScheduler(model, config).certify(
            xs, ys, epsilon, clip_min=clip, clip_max=clip
        )
        batched_time = time.perf_counter() - start

        start = time.perf_counter()
        sharded = scheduler.certify(xs, ys, epsilon, clip_min=clip, clip_max=clip)
        sharded_time = time.perf_counter() - start

    return {
        "workload": "HCAS-FCx100 sharded sweep",
        "regions": len(xs),
        "epsilon": epsilon,
        "workers": workers,
        "cpus": default_num_workers(),
        "shards": sharded.num_batches,
        "batched_time": round(batched_time, 3),
        "sharded_time": round(sharded_time, 3),
        "speedup": round(batched_time / sharded_time, 2),
        "certified": sharded.num_certified,
        "verdict_mismatches": _assert_identical_verdicts(batched.results, sharded.results),
    }


def test_sharded_engine_throughput(benchmark, record_rows):
    def experiment():
        return [_sharded_row()]

    rows = run_once(benchmark, experiment)
    record_rows("Sharded scheduler (small scale)", rows)
    append_trajectory("sharded_engine", {"rows": rows})

    (sharded,) = rows
    # Verdict parity is unconditional: sharding must never change a verdict.
    assert sharded["verdict_mismatches"] == 0
    assert sharded["regions"] == 256
    # Acceptance: ≥3x wall-clock with 4 workers — only meaningful when the
    # host can actually run 4 workers concurrently.
    if sharded["cpus"] >= 4:
        assert sharded["speedup"] >= 3.0
