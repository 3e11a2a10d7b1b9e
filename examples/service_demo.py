"""The certification service end to end: cluster, frontend, streamed verdicts.

Run with ``python examples/service_demo.py``.  The script

1. stands up a local two-worker :class:`~repro.service.cluster.ClusterScheduler`
   — the same TCP transport a multi-machine deployment uses (see
   ``docs/service.md`` for attaching remote workers with
   ``run_cluster_worker``),
2. opens an asyncio :class:`~repro.service.frontend.CertificationFrontend`
   over it with a shared on-disk verdict cache,
3. drives a few seconds of jittered repeat traffic — overlapping region
   batches submitted at random intervals, verdicts streamed back
   per-cell as they resolve, and
4. prints the admission accounting: served/cancelled/expired
   conservation, engine batches after coalescing, and the cache hit rate
   climbing as the traffic repeats itself.

Optionally flip ``INJECT_FAULTS`` to watch a worker get killed
mid-traffic and the cluster recover without losing a verdict.
"""

import asyncio
import tempfile
import time

import numpy as np

from repro import CraftConfig, MonDEQ
from repro.core.config import ServiceConfig
from repro.service import CertificationFrontend, ClusterScheduler, FaultSpec

#: Set True to kill worker 0 after its first claim — the soak battery's
#: scripted fault — and watch the verdicts survive.
INJECT_FAULTS = False

TRAFFIC_SECONDS = 6.0
EPSILON = 0.03
POOL = 24


async def drive(frontend, fingerprint, xs, labels):
    rng = np.random.default_rng(99)
    handles = []
    deadline = time.monotonic() + TRAFFIC_SECONDS
    print(f"\n=== 3. {TRAFFIC_SECONDS:.0f}s of jittered repeat traffic ===")
    while time.monotonic() < deadline:
        cells = int(rng.integers(2, 6))
        rows = rng.choice(POOL, size=cells, replace=False)
        handle = await frontend.submit(fingerprint, xs[rows], labels[rows], EPSILON)
        handles.append(handle)
        await asyncio.sleep(float(rng.uniform(0.05, 0.25)))

    certified = 0
    for handle in handles:
        async for event in handle.events():
            certified += event.certified
    print(f"{len(handles)} requests streamed back, {certified} cells certified")
    return handles


def main() -> None:
    print("=== 1. model and region pool ===")
    model = MonDEQ.random(input_dim=5, latent_dim=6, output_dim=3,
                          monotonicity=8.0, seed=3)
    rng = np.random.default_rng(2023)
    xs = rng.uniform(0.2, 0.8, size=(POOL, 5))
    labels = np.array([int(p) for p in model.predict_batch(xs)])
    config = CraftConfig(slope_optimization="none")
    service = ServiceConfig(
        coalesce_window_seconds=0.02, max_batch_cells=16,
        shard_timeout_seconds=1.5, retry_backoff_seconds=0.05,
        retry_backoff_factor=1.5,
        # The cluster scheduler is concurrent-caller-safe: let the
        # frontend run two engine passes against it at once.
        max_concurrent_batches=2,
    )
    faults = (
        FaultSpec(seed=7, scripted=((0, 0, "kill"),)) if INJECT_FAULTS else None
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        print("\n=== 2. two-worker cluster over the TCP transport ===")
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=4, cache_dir=cache_dir,
            service=service, faults=faults, timeout_seconds=300.0,
        ) as scheduler:
            print(f"cluster listening on {scheduler.address}")
            frontend = CertificationFrontend(service=service)
            fingerprint = frontend.register_model(
                model, config, backend=scheduler, cache_dir=cache_dir,
            )
            print(f"registered model {fingerprint}")

            async def session():
                await drive(frontend, fingerprint, xs, labels)
                await frontend.close()
                return frontend.stats

            stats = asyncio.run(session())
            cluster_stats = scheduler.cluster_stats

        print("\n=== 4. accounting ===")
        print(f"frontend: {stats.as_row()}")
        print(f"cluster:  {cluster_stats.as_row()}")
        assert stats.served == stats.submitted, "conservation: nothing lost"
        print(f"cache hit rate over repeat traffic: {stats.hit_rate:.0%}")
        if INJECT_FAULTS:
            print(f"worker respawns after injected kill: {cluster_stats.respawns}")


if __name__ == "__main__":
    np.set_printoptions(precision=4, suppress=True)
    main()
