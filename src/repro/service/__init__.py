"""Long-lived certification service: async frontend, TCP cluster, faults.

Three layers, composable but independent (see ``docs/service.md``):

* :mod:`repro.service.frontend` — the asyncio admission queue
  (:class:`CertificationFrontend`): cache-first, coalescing, deadlines,
  budgets, per-cell verdict streaming.
* :mod:`repro.service.cluster` — :class:`ClusterScheduler`, the sharded
  escalation waterfall over a ``multiprocessing.managers`` TCP worker
  cluster with work stealing, lease health-checks and exactly-once
  verdict recovery under worker faults.
* :mod:`repro.service.faults` — :class:`FaultSpec`, the deterministic
  seeded fault injection both the test battery and the soak benchmark
  drive.

:func:`serve_sweep` is the synchronous convenience wrapper behind
``certify_local_robustness(..., engine="service")``: one sweep admitted
through a fresh frontend, identical verdicts to every other engine.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import CraftConfig, ServiceConfig
from repro.engine.results import EngineReport
from repro.service.cluster import ClusterScheduler, run_cluster_worker
from repro.service.faults import FaultSpec, retry_backoff
from repro.service.frontend import (
    CertificationFrontend,
    FrontendStats,
    RequestHandle,
    VerdictEvent,
)

__all__ = [
    "CertificationFrontend",
    "ClusterScheduler",
    "FaultSpec",
    "FrontendStats",
    "RequestHandle",
    "ServiceConfig",
    "VerdictEvent",
    "retry_backoff",
    "run_cluster_worker",
    "serve_sweep",
]


def serve_sweep(
    model,
    xs: np.ndarray,
    labels: Sequence[int],
    epsilon: float,
    config: Optional[CraftConfig] = None,
    clip_min: Optional[float] = 0.0,
    clip_max: Optional[float] = 1.0,
    cache_dir: Optional[str] = None,
    backend: Optional[object] = None,
    service: Optional[ServiceConfig] = None,
) -> EngineReport:
    """Run one sweep through the service stack, synchronously.

    Spins up a :class:`CertificationFrontend` (zero coalescing window —
    a single sweep has nothing to coalesce with), admits the whole sweep
    as one request with no deadline or budget, awaits every streamed
    verdict and reassembles them into the familiar
    :class:`~repro.engine.results.EngineReport` — the engine-parity
    shape ``certify_local_robustness(engine="service")`` compares
    against the other engines.
    """
    if service is None:
        service = ServiceConfig(coalesce_window_seconds=0.0)

    async def _run() -> EngineReport:
        import time

        start = time.perf_counter()
        frontend = CertificationFrontend(service=service)
        fingerprint = frontend.register_model(
            model, config=config, backend=backend, cache_dir=cache_dir
        )
        handle = await frontend.submit(
            fingerprint, xs, labels, epsilon, clip_min=clip_min, clip_max=clip_max
        )
        events = await handle.collect()
        await frontend.close()
        if handle.failed or handle.served != handle.total:
            failures = [e.reason for e in events if e.status == "failed"]
            raise RuntimeError(f"service sweep did not serve every cell: {failures}")
        results: List = [None] * handle.total
        for event in events:
            results[event.index] = event.result
        return EngineReport(
            results=results,
            # Frontend-view hits and backend hits both surface as cached
            # results, so counting cached results counts each hit once.
            cache_hits=sum(1 for r in results if r.cached),
            num_batches=frontend.stats.engine_batches,
            elapsed_seconds=time.perf_counter() - start,
            num_workers=1,
        )

    return asyncio.run(_run())
