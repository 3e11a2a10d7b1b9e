"""Certification-service soak: sustained QPS, tail latency, verdicts under faults.

The service PR's quantitative claims, measured end to end: jittered
repeat traffic streams through the asyncio admission frontend into a
real two-worker :class:`~repro.service.cluster.ClusterScheduler` over
the TCP transport, while seeded faults (one scripted kill plus
rate-based kills/delays/drops) take workers down mid-traffic.  The run
records

* sustained throughput (``qps``) and per-cell latency tails
  (``p50_time`` / ``p99_time`` — the ``_time`` suffix arms the
  ``--check`` trailing-median regression gate of
  ``scripts/plot_bench_trajectory.py``),
* the cache hit rate of repeat traffic (``hit_rate`` joins the graphed
  trajectory),
* ``verdict_flips`` against a fault-free inline reference sweep —
  **hard-asserted zero**: faults may cost latency, never verdicts.

A second scenario measures the concurrent-sweep pipeline itself:
mixed-model traffic (two registered models, two epsilons each, jittered
repeat queries burst-submitted together) runs once serialised
(``max_concurrent_batches=1``) and once concurrent
(``max_concurrent_batches=4``), on identical traffic and a fixed
2-worker cluster per model.  It records ``aggregate_qps`` and
``concurrent_batches_peak``; certified counts must be equal across the
arms with zero flips in both — concurrency may buy throughput, never
verdicts.

Rows append to ``BENCH_service.json``.  Hard gates are counter- and
verdict-based only; wall-clock/qps columns are policed across runs by
the trajectory gate, not in-test (shared CI runners are too noisy) —
except the concurrent-vs-serialised speedup, asserted only on runners
with enough cores for the parallelism to be physical.
"""

import asyncio
import os
import time

import numpy as np

from _harness import append_trajectory, run_once

from repro.core.config import CraftConfig, ServiceConfig
from repro.engine.sharded import ShardedScheduler
from repro.service import CertificationFrontend, ClusterScheduler, FaultSpec

BENCH_SECONDS = 8.0
EPSILON = 0.03
POOL = 24


def _workload():
    from repro.mondeq.model import MonDEQ

    model = MonDEQ.random(
        input_dim=5, latent_dim=6, output_dim=3, monotonicity=8.0, seed=3
    )
    rng = np.random.default_rng(2023)
    xs = rng.uniform(0.2, 0.8, size=(POOL, 5))
    labels = np.array([int(p) for p in model.predict_batch(xs)])
    config = CraftConfig(slope_optimization="none")
    return model, xs, labels, config


async def _drive(frontend, fingerprint, xs, labels):
    handles, handle_rows = [], []
    rng = np.random.default_rng(99)
    deadline = time.monotonic() + BENCH_SECONDS
    while time.monotonic() < deadline:
        cells = int(rng.integers(2, 6))
        rows = rng.choice(POOL, size=cells, replace=False)
        handles.append(
            await frontend.submit(fingerprint, xs[rows], labels[rows], EPSILON)
        )
        handle_rows.append(rows)
        await asyncio.sleep(float(rng.uniform(0.05, 0.2)))
    events, event_rows = [], []
    for handle, rows in zip(handles, handle_rows):
        for event in await handle.collect():
            events.append(event)
            event_rows.append(int(rows[event.index]))
    stats = frontend.stats
    await frontend.close()
    return events, event_rows, stats


def _service_soak_row(tmp_dir):
    model, xs, labels, config = _workload()

    # Fault-free reference verdicts: the flip baseline.
    reference = [
        r.outcome
        for r in ShardedScheduler(
            model, config, num_workers=1, start_method="inline"
        ).certify(xs, labels, EPSILON).results
    ]

    service = ServiceConfig(
        coalesce_window_seconds=0.02,
        max_batch_cells=16,
        shard_timeout_seconds=1.5,
        retry_backoff_seconds=0.05,
        retry_backoff_factor=1.5,
    )
    faults = FaultSpec(
        seed=7,
        kill_rate=0.05,
        delay_rate=0.03,
        drop_rate=0.02,
        delay_seconds=0.4,
        scripted=((0, 0, "kill"),),
    )

    start = time.perf_counter()
    with ClusterScheduler(
        model, config, num_workers=2, batch_size=4, cache_dir=tmp_dir,
        service=service, faults=faults, timeout_seconds=300.0,
    ) as scheduler:
        frontend = CertificationFrontend(service=service)
        # The scheduler is concurrent-caller-safe (sweep multiplexing);
        # no serialising wrapper between the frontend and the cluster.
        fingerprint = frontend.register_model(
            model, config, backend=scheduler, cache_dir=tmp_dir
        )
        events, event_rows, stats = asyncio.run(
            _drive(frontend, fingerprint, xs, labels)
        )
        cluster = scheduler.cluster_stats
    elapsed = time.perf_counter() - start

    flips = sum(
        1
        for event, row in zip(events, event_rows)
        if event.result is None or event.result.outcome != reference[row]
    )
    latencies = sorted(event.latency_seconds for event in events)
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return {
        "workload": f"{POOL}-region pool, jittered repeats, 2-worker cluster",
        "soak_seconds": BENCH_SECONDS,
        "submitted": stats.submitted,
        "served": stats.served,
        "lost": stats.submitted - stats.served,
        "qps": round(stats.submitted / elapsed, 2),
        "p50_time": round(p50, 4),
        "p99_time": round(p99, 4),
        "hit_rate": stats.hit_rate,
        "cache_hits": stats.cache_hits,
        "engine_batches": stats.engine_batches,
        "verdict_flips": flips,
        "worker_respawns": cluster.respawns,
        "task_retries": cluster.retries,
        "duplicates_dropped": cluster.duplicates_dropped,
        "dead_workers": len(cluster.dead_workers),
    }


def test_service_soak(benchmark, record_rows, tmp_path):
    def experiment():
        return _service_soak_row(str(tmp_path / "cache"))

    row = run_once(benchmark, experiment)
    record_rows("Certification service under faults (2-worker cluster)", [row])
    append_trajectory("service", row)

    # Deterministic gates only; p50/p99 ride the trajectory --check gate.
    assert row["verdict_flips"] == 0
    assert row["lost"] == 0
    assert row["submitted"] > 0
    assert row["worker_respawns"] >= 1  # the scripted kill really landed
    assert row["hit_rate"] > 0.0


# ----------------------------------------------------------------------
# Mixed-model concurrent traffic: the sweep-multiplexing scenario
# ----------------------------------------------------------------------

MIXED_POOL = 16
MIXED_REQUESTS_PER_MODEL = 8
MIXED_EPSILONS = (0.02, 0.05)


def _mixed_workloads():
    from repro.mondeq.model import MonDEQ

    specs = []
    for seed in (3, 11):
        model = MonDEQ.random(
            input_dim=5, latent_dim=6, output_dim=3, monotonicity=8.0, seed=seed
        )
        rng = np.random.default_rng(seed + 100)
        xs = rng.uniform(0.2, 0.8, size=(MIXED_POOL, 5))
        labels = np.array([int(p) for p in model.predict_batch(xs)])
        specs.append((model, CraftConfig(slope_optimization="none"), xs, labels))
    return specs


def _mixed_references(specs):
    """Fault-free inline verdicts per (model, epsilon, pool row)."""
    references = {}
    for index, (model, config, xs, labels) in enumerate(specs):
        inline = ShardedScheduler(model, config, num_workers=1, start_method="inline")
        for epsilon in MIXED_EPSILONS:
            report = inline.certify(xs, labels, epsilon)
            references[(index, epsilon)] = [r.outcome for r in report.results]
    return references


async def _drive_mixed(frontend, fingerprints, specs):
    """Burst-submit jittered repeat traffic for both models together."""
    rng = np.random.default_rng(42)
    handles = []
    for _ in range(MIXED_REQUESTS_PER_MODEL):
        for index, fingerprint in enumerate(fingerprints):
            _model, _config, xs, labels = specs[index]
            cells = int(rng.integers(3, 5))
            rows = rng.choice(MIXED_POOL, size=cells, replace=False)
            epsilon = float(MIXED_EPSILONS[int(rng.integers(len(MIXED_EPSILONS)))])
            handle = await frontend.submit(
                fingerprint, xs[rows], labels[rows], epsilon
            )
            handles.append((index, epsilon, rows, handle))
            await asyncio.sleep(float(rng.uniform(0.0, 0.01)))
    events = []
    for index, epsilon, rows, handle in handles:
        for event in await handle.collect():
            events.append((index, epsilon, int(rows[event.index]), event))
    stats = frontend.stats
    await frontend.close()
    return events, stats


def _mixed_arm(specs, references, concurrent):
    # Cache-free on purpose: both arms do identical engine work, so the
    # qps ratio isolates the concurrency machinery (the soak scenario
    # above already measures the cached path).
    service = ServiceConfig(
        coalesce_window_seconds=0.01,
        max_batch_cells=8,
        shard_timeout_seconds=8.0,
        retry_backoff_seconds=0.05,
        retry_backoff_factor=1.5,
        max_concurrent_batches=4 if concurrent else 1,
    )
    schedulers = []
    try:
        for model, config, _xs, _labels in specs:
            schedulers.append(
                ClusterScheduler(
                    model, config, num_workers=2, batch_size=1,
                    service=service, timeout_seconds=300.0,
                )
            )
        frontend = CertificationFrontend(service=service)
        fingerprints = [
            frontend.register_model(model, config, backend=scheduler)
            for (model, config, _xs, _labels), scheduler in zip(specs, schedulers)
        ]
        start = time.perf_counter()
        events, stats = asyncio.run(_drive_mixed(frontend, fingerprints, specs))
        elapsed = time.perf_counter() - start
    finally:
        for scheduler in schedulers:
            scheduler.close()
    flips = sum(
        1
        for index, epsilon, row, event in events
        if event.result is None
        or event.result.outcome != references[(index, epsilon)][row]
    )
    certified = sum(1 for _i, _e, _r, event in events if event.certified)
    return {
        "elapsed": elapsed,
        "qps": stats.served / elapsed,
        "submitted": stats.submitted,
        "served": stats.served,
        "certified": certified,
        "flips": flips,
        "batches_peak": stats.concurrent_batches_peak,
    }


def _mixed_row():
    specs = _mixed_workloads()
    references = _mixed_references(specs)
    serialized = _mixed_arm(specs, references, concurrent=False)
    concurrent = _mixed_arm(specs, references, concurrent=True)
    return {
        "workload": (
            f"2 models x {len(MIXED_EPSILONS)} epsilons, "
            f"{MIXED_REQUESTS_PER_MODEL} burst requests each, "
            "per-model 2-worker clusters"
        ),
        "mixed_submitted": concurrent["submitted"],
        "mixed_served": concurrent["served"],
        "mixed_certified": concurrent["certified"],
        "aggregate_qps": round(concurrent["qps"], 2),
        "serialized_qps": round(serialized["qps"], 2),
        "concurrent_speedup": round(concurrent["qps"] / serialized["qps"], 2),
        "concurrent_drain_time": round(concurrent["elapsed"], 3),
        "serialized_drain_time": round(serialized["elapsed"], 3),
        "concurrent_batches_peak": concurrent["batches_peak"],
        "mixed_verdict_flips": serialized["flips"] + concurrent["flips"],
        "_serialized": serialized,
        "_concurrent": concurrent,
    }


def test_service_mixed_model_concurrency(benchmark, record_rows):
    row = run_once(benchmark, _mixed_row)
    serialized = row.pop("_serialized")
    concurrent = row.pop("_concurrent")
    record_rows("Mixed-model concurrent traffic (2 models, burst repeats)", [row])
    append_trajectory("service", row)

    # Concurrency may buy throughput, never verdicts: identical traffic,
    # equal certified counts, zero flips in both arms.
    assert row["mixed_verdict_flips"] == 0
    assert serialized["submitted"] == concurrent["submitted"] > 0
    assert serialized["served"] == serialized["submitted"]
    assert concurrent["served"] == concurrent["submitted"]
    assert serialized["certified"] == concurrent["certified"]
    # The pipeline really ran concurrently, and the serialised arm really
    # was serialised (one pass per backend at a time, two backends).
    assert concurrent["batches_peak"] >= 2
    assert serialized["batches_peak"] <= 2
    # The throughput claim is physical only with cores to run on; the
    # qps columns ride the trajectory gate on every runner regardless.
    if (os.cpu_count() or 1) >= 4:
        assert row["concurrent_speedup"] >= 1.5
