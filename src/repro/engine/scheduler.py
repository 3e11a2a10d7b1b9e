"""The in-process batch scheduler: the waterfall on the inline transport.

:class:`BatchCertificationScheduler` is the entry point the verification
front-ends use by default: it takes an arbitrary number of certification
queries against one set of monDEQ weights, answers what it can from the
verdict cache, and runs the rest stage by stage through
``CraftConfig.domains`` in batches of ``batch_size`` regions on
:class:`~repro.engine.craft.BatchedCraft`, aggregated into an
:class:`~repro.engine.results.EngineReport`.  It is
:class:`~repro.engine.sharded.ShardedScheduler` pinned to the inline
transport, so both share one waterfall, one cache protocol and one
accounting.

The verdict cache lives in :mod:`repro.engine.cache`: one file per exact
query key.  Re-running a sweep with unchanged weights (the Table 2 /
Fig. 11 setting) answers repeated queries from it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import CraftConfig
from repro.engine.sharded import ShardedScheduler, _WorkerState
from repro.mondeq.model import MonDEQ


class BatchCertificationScheduler(ShardedScheduler):
    """Run certification queries through the escalation waterfall, batched,
    in the calling process.

    For single-domain configurations that is a one-stage waterfall, i.e.
    the plain batched sweep; for ladder configurations
    (``CraftConfig.domains`` with several stages) every query starts in
    the cheapest domain and only unresolved queries climb.  Every stage
    certifies in balanced batches of at most ``batch_size`` regions;
    ``None`` (the default) means
    :data:`~repro.engine.escalation.DEFAULT_BATCH_SIZE`.

    ``cache_dir`` enables the verdict cache
    (:class:`~repro.engine.cache.TieredVerdictCache`): entries are keyed
    by the *ladder* configuration and record the resolving stage, so a
    cached verdict replays at its final stage without re-climbing the
    ladder.
    """

    def __init__(
        self,
        model: MonDEQ,
        config: Optional[CraftConfig] = None,
        batch_size: Optional[int] = None,
        cache_dir: Optional[str] = None,
    ):
        super().__init__(
            model, config, num_workers=1, batch_size=batch_size,
            cache_dir=cache_dir, start_method="inline",
        )
        # Shards run on the scheduler's own model, config and cache view:
        # no pickle round trip and no second view of the cache, whose
        # admissions therefore take the lock of its lookups.
        self._inline_state = _WorkerState(
            model=self.model, config=self.config, cache=self.cache,
            keep_abstractions=self.keep_abstractions, cache_lock=self._cache_lock,
        )

    # The benchmark tracer (perfbench/tracing.py) reads each class's own
    # ``certify`` from its ``__dict__`` and names this one's spans
    # ``scheduler.certify``: the method is bound here rather than inherited,
    # and it must not call ``super().certify``, which would nest a
    # ``sharded.certify`` span and a second report inside every traced call.
    certify = ShardedScheduler.certify
