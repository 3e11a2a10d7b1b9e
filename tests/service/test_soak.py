"""Sustained-traffic soak: the full service stack under live faults.

Thirty seconds (override with ``REPRO_SOAK_SECONDS``) of jittered repeat
traffic through the asyncio frontend into a real two-worker cluster with
~10% injected faults (one guaranteed kill plus rate-based kills, delays
and drops).  The claims under soak:

* **zero lost requests** — every admitted cell is served; nothing is
  cancelled, expired, failed, or double-delivered,
* **p99 latency stays under the service deadline** even while workers
  die and respawn mid-traffic,
* repeat traffic increasingly lands in the cache (hit rate > 0).

Marked ``slow``: excluded from tier-1 (``addopts = -m "not slow"``); CI
runs it in the bench-engines job with ``-m slow``.
"""

import asyncio
import os
import time

import numpy as np
import pytest

from repro.core.config import CraftConfig, ServiceConfig
from repro.mondeq.model import MonDEQ
from repro.service import CertificationFrontend, ClusterScheduler, FaultSpec

SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "30"))
#: The latency bound the soak holds p99 under, in seconds.  Generous
#: against loaded CI runners; fault recovery (lease expiry + backoff)
#: sits well inside it by construction.
DEADLINE_SECONDS = 10.0
EPSILON = 0.03


@pytest.mark.slow
def test_soak_sustained_traffic_with_faults(tmp_path):
    model = MonDEQ.random(
        input_dim=5, latent_dim=6, output_dim=3, monotonicity=8.0, seed=3
    )
    rng = np.random.default_rng(2023)
    pool_xs = rng.uniform(0.2, 0.8, size=(24, 5))
    pool_labels = np.array([int(p) for p in model.predict_batch(pool_xs)])
    config = CraftConfig(slope_optimization="none")
    service = ServiceConfig(
        coalesce_window_seconds=0.02,
        max_batch_cells=16,
        shard_timeout_seconds=1.5,
        retry_backoff_seconds=0.05,
        retry_backoff_factor=1.5,
        # The scheduler is concurrent-caller-safe since the sweep
        # multiplexing PR: the soak drives it with two engine passes in
        # flight — no serialising wrapper.
        max_concurrent_batches=2,
    )
    faults = FaultSpec(
        seed=7,
        kill_rate=0.05,
        delay_rate=0.03,
        drop_rate=0.02,
        delay_seconds=0.4,
        scripted=((0, 0, "kill"),),  # at least one real crash, always
    )
    cache_dir = str(tmp_path / "cache")

    async def drive(scheduler):
        frontend = CertificationFrontend(service=service)
        fingerprint = frontend.register_model(
            model, config, backend=scheduler, cache_dir=cache_dir
        )
        handles = []
        traffic_rng = np.random.default_rng(99)
        deadline = time.monotonic() + SOAK_SECONDS
        while time.monotonic() < deadline:
            cells = int(traffic_rng.integers(2, 6))
            rows = traffic_rng.choice(len(pool_xs), size=cells, replace=False)
            handles.append(
                await frontend.submit(
                    fingerprint, pool_xs[rows], pool_labels[rows], EPSILON
                )
            )
            await asyncio.sleep(float(traffic_rng.uniform(0.05, 0.25)))
        events = []
        for handle in handles:
            events.extend(await handle.collect())
        stats = frontend.stats
        await frontend.close()
        return events, stats

    with ClusterScheduler(
        model, config, num_workers=2, batch_size=4, cache_dir=cache_dir,
        service=service, faults=faults, timeout_seconds=300.0,
    ) as scheduler:
        events, stats = asyncio.run(drive(scheduler))
        cluster = scheduler.cluster_stats

    # Zero lost requests: every admitted cell served exactly once.
    assert stats.submitted == len(events) > 0
    assert stats.served == stats.submitted
    assert stats.cancelled == stats.expired == stats.failed == 0
    statuses = {event.status for event in events}
    assert statuses == {"served"}

    # p99 latency under the deadline, faults and all.
    latencies = sorted(event.latency_seconds for event in events)
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    assert p99 < DEADLINE_SECONDS, f"p99 {p99:.2f}s breached {DEADLINE_SECONDS}s"

    # The scripted kill really happened and the cluster recovered.
    assert cluster.respawns >= 1
    assert len(cluster.dead_workers) >= 1

    # Repeat traffic lands in the cache.
    assert stats.cache_hits > 0
    assert stats.hit_rate > 0.0
