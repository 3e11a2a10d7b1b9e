"""Batch scheduling over the tiered fixpoint-verdict cache.

The scheduler is the entry point the verification front-ends use: it takes
an arbitrary number of certification queries against one set of monDEQ
weights, answers what it can from the cache, chunks the misses into batches
of ``batch_size`` and runs :class:`~repro.engine.craft.BatchedCraft` per
chunk, then aggregates everything into an
:class:`~repro.engine.results.EngineReport`.

The cache machinery lives in :mod:`repro.engine.cache` (on-disk store,
exact/quantised keys, the dominance index and the in-memory LRU tier —
configured through :class:`~repro.core.config.CacheConfig`).  Re-running
a sweep with unchanged weights (the Table 2 / Fig. 11 setting) answers
repeated queries from the cache — and, with the dominance index, also
answers *contained* repeat queries (cell splits, jittered centres) that
were never literally asked.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import CraftConfig
from repro.core.results import VerificationResult
from repro.engine.cache import RegionQuery, build_verdict_cache
from repro.engine.results import EngineReport
from repro.mondeq.model import MonDEQ


class BatchCertificationScheduler:
    """Run certification queries through the escalation waterfall, batched.

    The scheduler owns one :class:`~repro.engine.escalation.EscalationLadder`
    — for single-domain configurations that is a one-stage waterfall, i.e.
    exactly the pre-escalation batched sweep; for ladder configurations
    (``CraftConfig.domains`` with several stages) every query starts in
    the cheapest domain and only unresolved queries climb.

    Every ladder stage certifies in batches of ``batch_size`` regions;
    ``None`` (the default) means
    :data:`~repro.engine.escalation.DEFAULT_BATCH_SIZE`.

    ``cache_dir`` enables the tiered verdict cache
    (:class:`~repro.engine.cache.TieredVerdictCache`): entries are keyed
    by the *ladder* configuration and record the resolving stage, so a
    cached verdict replays at its final stage without re-climbing the
    ladder; dominance hits replay the serving entry's stage and are
    counted per stage row (``cache_dominance_hits``).
    """

    def __init__(
        self,
        model: MonDEQ,
        config: Optional[CraftConfig] = None,
        batch_size: Optional[int] = None,
        cache_dir: Optional[str] = None,
    ):
        from repro.engine.escalation import EscalationLadder

        self.model = model
        self.config = config if config is not None else CraftConfig()
        self._ladder = EscalationLadder(model, self.config, batch_size=batch_size)
        self.batch_size = self._ladder.batch_size
        self.cache = (
            build_verdict_cache(cache_dir, self.config, model)
            if cache_dir is not None
            else None
        )

    def certify(
        self,
        xs: np.ndarray,
        labels: Sequence[int],
        epsilon: float,
        clip_min: Optional[float] = 0.0,
        clip_max: Optional[float] = 1.0,
    ) -> EngineReport:
        """Certify every (row of ``xs``, label) query, using cache and batches."""
        from repro.engine.escalation import fold_dominance_hits

        start = time.perf_counter()
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        labels = np.asarray(labels, dtype=int).reshape(-1)
        total = xs.shape[0]
        results: List[Optional[VerificationResult]] = [None] * total

        queries: List[Optional[RegionQuery]] = [None] * total
        misses: Sequence[int] = range(total)
        cache_hits = 0
        dominance_hits = 0
        if self.cache is not None:
            # One incremental scan per sweep picks up entries concurrent
            # writers published since the last certify call.  Long-lived
            # holders outside the sweep lifecycle (the service frontend)
            # arm CacheConfig.refresh_seconds instead, which re-checks
            # staleness on lookup between these per-sweep scans.
            self.cache.refresh()
            misses = []
            for index in range(total):
                query = RegionQuery(
                    center=xs[index], epsilon=epsilon, target=int(labels[index]),
                    clip_min=clip_min, clip_max=clip_max,
                )
                queries[index] = query
                cached = self.cache.lookup(query)
                if cached is not None:
                    results[index] = cached
                    cache_hits += 1
                    dominance_hits += int(cached.cache_tier == "dominance")
                    continue
                misses.append(index)

        num_batches = 0
        stage_rows: List[dict] = []
        if misses:
            miss_results = self._ladder.certify(
                xs[misses], labels[misses], epsilon, clip_min=clip_min, clip_max=clip_max
            )
            num_batches = self._ladder.num_batches
            stage_rows = [stats.as_row() for stats in self._ladder.stage_stats]
            for index, result in zip(misses, miss_results):
                results[index] = result
                if self.cache is not None:
                    self.cache.admit(queries[index], result)

        if dominance_hits:
            stage_rows = fold_dominance_hits(stage_rows, results)
        return EngineReport(
            results=results,
            cache_hits=cache_hits,
            cache_dominance_hits=dominance_hits,
            num_batches=num_batches,
            elapsed_seconds=time.perf_counter() - start,
            stages=stage_rows,
        )
