"""Multi-process sharded certification: shards of a sweep fan out to workers.

The paper's headline sweeps (Table 2 local robustness, Fig. 11 HCAS domain
splitting) are embarrassingly parallel across regions: every query shares
one set of read-only monDEQ weights.  :class:`ShardedScheduler` exploits
that by partitioning a sweep's query regions into shards of
``batch_size`` regions, fanning the shards out to a pool of worker
processes — each worker receives the pickled weights *once* at pool
initialisation and runs the vectorised
:class:`~repro.engine.craft.BatchedCraft` per shard — and streaming
per-region verdicts back as shards complete (``imap_unordered``).
Per-sample early-exit semantics inside a shard are exactly those of the
batched engine, and verdicts are independent of the sharding (the engine's
parity contract).

Escalation waterfall
--------------------
Ladder configurations (``CraftConfig.domains`` with several stages) shard
per **(stage, batch)**: every query starts in the cheapest domain, and a
completed shard's unresolved queries are immediately re-sharded into the
next stage and submitted to the pool — escalated stragglers overlap with
still-running cheap-stage shards instead of serialising behind a stage
barrier.  Every stage shards at the same ``batch_size``, workers build one
:class:`BatchedCraft` per stage lazily, and only *final* verdicts
(resolved, or produced by the last stage) are persisted to the shared
cache.

Cache sharing
-------------
All workers share one on-disk :class:`~repro.engine.cache.FixpointCache`
directory (each wrapped in its own
:class:`~repro.engine.cache.TieredVerdictCache` — the LRU tier and
dominance index are per-process views over the shared directory).  No
file locking is needed: every entry is its own file, written under a
writer-unique temporary name and published with the atomic
``os.replace``, so concurrent workers certifying overlapping regions never
corrupt an entry — the regression tests in
``tests/engine/test_cache_concurrency.py`` pin this.  The parent answers
cache hits (including dominance hits) before sharding; workers persist
fresh verdicts themselves, stamped with the configuration fingerprint
(:func:`~repro.engine.cache.config_fingerprint`).

Execution modes
---------------
``start_method`` selects ``"fork"`` (default where available — weights are
inherited copy-on-write and re-pickled only for the initializer args),
``"spawn"`` (portable; workers re-import the library) or ``"inline"``
(no subprocesses: shards run in the parent through the identical code
path).  Inline mode is what the differential fuzzing suite uses to check
shard semantics at hypothesis speed, and what ``num_workers=1`` degrades
to — a single-worker pool would only add IPC overhead.

A per-shard ``timeout_seconds`` bounds every wait on the pool, so a hung
worker fails the sweep fast (with the pool terminated) instead of stalling
CI forever.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CraftConfig
from repro.core.results import VerificationResult
from repro.engine.craft import BatchedCraft, ConsolidationStats
from repro.engine.escalation import StageStats, resolve_batch_size, should_escalate
from repro.engine.results import EngineReport
from repro.engine.cache import RegionQuery, TieredVerdictCache, build_verdict_cache
from repro.exceptions import ConfigurationError, VerificationError
from repro.mondeq.model import MonDEQ
from repro.verify.specs import ClassificationSpec, LinfBall, check_input_dim

_START_METHODS = ("fork", "spawn", "forkserver", "inline")


def default_start_method() -> str:
    """``"fork"`` where the platform offers it (cheap, COW weights), else ``"spawn"``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def default_num_workers() -> int:
    """Worker count matching the CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Worker-side machinery.  Module-level (not closures) so both fork and
# spawn can address it; state lives in a module global initialised once
# per worker process with the weights payload.
# ----------------------------------------------------------------------


@dataclass
class _WorkerState:
    """Per-worker state: the weights plus one lazily built
    :class:`BatchedCraft` per ladder stage the worker actually sees."""

    model: MonDEQ
    config: CraftConfig
    cache: Optional[TieredVerdictCache]
    keep_abstractions: bool
    crafts: Dict[str, BatchedCraft] = field(default_factory=dict)

    def craft_for(self, domain: str) -> BatchedCraft:
        craft = self.crafts.get(domain)
        if craft is None:
            craft = BatchedCraft(self.model, self.config.stage_config(domain))
            self.crafts[domain] = craft
        return craft


_WORKER: Optional[_WorkerState] = None


def _build_worker_state(payload: bytes) -> _WorkerState:
    model, config, cache_dir, keep_abstractions = pickle.loads(payload)
    cache = (
        build_verdict_cache(cache_dir, config, model)
        if cache_dir is not None
        else None
    )
    return _WorkerState(
        model=model,
        config=config,
        cache=cache,
        keep_abstractions=keep_abstractions,
    )


def _init_worker(payload: bytes) -> None:
    global _WORKER
    _WORKER = _build_worker_state(payload)


@dataclass
class _Shard:
    """One unit of work: a chunk of cache-miss queries at one ladder stage."""

    indices: List[int]
    balls: List[LinfBall]
    specs: List[ClassificationSpec]
    anchors: Optional[np.ndarray]
    #: Ladder stage (domain name) this shard certifies in.
    domain: str = "chzonotope"
    #: Whether this is the ladder's last stage (its verdicts are final).
    final: bool = True


def _run_shard(
    shard: _Shard,
) -> Tuple[List[int], List[VerificationResult], str, float, Dict]:
    return _execute_shard(_WORKER, shard)


def _execute_shard(
    state: _WorkerState, shard: _Shard
) -> Tuple[List[int], List[VerificationResult], str, float, Dict]:
    start = time.perf_counter()
    craft = state.craft_for(shard.domain)
    results = craft.certify_regions(shard.balls, shard.specs, shard.anchors)
    elapsed = time.perf_counter() - start
    # The driver resets its consolidation accounting per certify_regions
    # call, so this snapshot is exactly this shard's share; it crosses the
    # pool pipe as a plain dict (cheap, pickle-stable).
    consolidation = craft.consolidation_stats.as_dict()
    if state.cache is not None:
        for ball, spec, result in zip(shard.balls, shard.specs, results):
            # Only *final* verdicts may be persisted: a non-final stage's
            # unresolved result is about to be escalated, and caching it
            # would replay an interim Unknown as the sweep's answer if a
            # later run hits the entry before the ladder finishes.
            if shard.final or not should_escalate(result):
                state.cache.admit(RegionQuery.from_ball(ball, spec), result)
    if not state.keep_abstractions:
        # Strip on the worker side, *before* the results cross the pool
        # pipe — avoiding the serialisation of the generator stacks is the
        # whole point of the flag.
        results = [_strip_abstractions(result) for result in results]
    return shard.indices, results, shard.domain, elapsed, consolidation


def _strip_abstractions(result: VerificationResult) -> VerificationResult:
    # Every shard result carries an abstraction.  ``replace`` reads only the
    # fields it keeps, so the elements, still row references into the
    # batch's stacks, are dropped without ever being built.
    return replace(result, fixpoint_abstraction=None, output_element=None)


class ShardedScheduler:
    """Fan certification queries out to a pool of read-only-weight workers.

    Parameters
    ----------
    model, config:
        The monDEQ and the verification configuration; both are pickled to
        each worker exactly once (pool initializer).
    num_workers:
        Worker processes; defaults to the CPUs available to this process.
        ``1`` runs inline (no subprocesses).
    batch_size:
        Regions per shard.  ``None`` (default) means
        :data:`~repro.engine.escalation.DEFAULT_BATCH_SIZE`.  When a sweep
        would produce fewer shards than workers, shards are split further
        so every worker is busy.
    cache_dir:
        Shared on-disk fixpoint cache; hits are answered by the parent
        before sharding, fresh verdicts are persisted by the workers.
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"``/``"inline"``; ``None``
        selects :func:`default_start_method`.
    timeout_seconds:
        Bound on every wait for a shard result.  On expiry the pool is
        terminated and a :class:`VerificationError` raised — a hung worker
        must fail fast, not stall the sweep.
    keep_abstractions:
        When ``False``, workers strip the abstraction elements from
        results before shipping them back (verdict-only sweeps avoid
        serialising the — potentially large — generator matrices).
    """

    def __init__(
        self,
        model: MonDEQ,
        config: Optional[CraftConfig] = None,
        num_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        cache_dir: Optional[str] = None,
        start_method: Optional[str] = None,
        timeout_seconds: float = 600.0,
        keep_abstractions: bool = True,
    ):
        self.model = model
        self.config = config if config is not None else CraftConfig()
        if num_workers is None:
            num_workers = default_num_workers()
        if num_workers < 1:
            raise ConfigurationError("num_workers must be positive")
        self.num_workers = num_workers
        self.batch_size = resolve_batch_size(batch_size)
        #: Per-stage accounting of the most recent dispatch (waterfall sweeps).
        self.stage_stats: List[StageStats] = []
        if start_method is None:
            start_method = default_start_method()
        if start_method not in _START_METHODS:
            raise ConfigurationError(
                f"start_method must be one of {_START_METHODS}, got {start_method!r}"
            )
        self.start_method = start_method
        if timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")
        self.timeout_seconds = timeout_seconds
        self.keep_abstractions = keep_abstractions
        self.cache_dir = cache_dir
        self.cache = (
            build_verdict_cache(cache_dir, self.config, model)
            if cache_dir is not None
            else None
        )
        self._pool = None
        self._inline_state: Optional[_WorkerState] = None
        # Concurrent-caller safety: certify()/certify_regions() may be
        # invoked from several threads at once (the service frontend's
        # max_concurrent_batches does exactly that).  The transport hooks
        # below are sweep-scoped, so dispatch state never aliases; the
        # remaining shared mutable state is the cache view (not
        # thread-safe), the inline worker state and the pool lifecycle —
        # each serialised by its own lock.
        self._cache_lock = threading.Lock()
        self._inline_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        # Spawn the pool eagerly: forking *before* the parent runs any BLAS
        # work (the prediction pass) sidesteps the classic
        # fork-after-threaded-BLAS deadlock with OpenBLAS/MKL thread pools.
        if not self._inline:
            self._ensure_pool()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    @property
    def _inline(self) -> bool:
        return self.start_method == "inline" or self.num_workers == 1

    def _payload(self) -> bytes:
        return pickle.dumps(
            (self.model, self.config, self.cache_dir, self.keep_abstractions)
        )

    def _ensure_pool(self):
        with self._lifecycle_lock:
            if self._inline:
                if self._inline_state is None:
                    self._inline_state = _build_worker_state(self._payload())
                return None
            if self._pool is None:
                context = multiprocessing.get_context(self.start_method)
                self._pool = context.Pool(
                    processes=self.num_workers,
                    initializer=_init_worker,
                    initargs=(self._payload(),),
                )
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        A later certify() transparently re-creates the pool, but note that
        a re-created ``"fork"`` pool no longer enjoys the
        fork-before-BLAS guarantee of the eager construction-time spawn:
        by then the parent has usually run prediction passes, so prefer a
        fresh scheduler (or ``"forkserver"``) if the host's BLAS is known
        to be fork-unsafe.
        """
        with self._lifecycle_lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def __enter__(self) -> "ShardedScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def certify(
        self,
        xs: np.ndarray,
        labels: Sequence[int],
        epsilon: float,
        clip_min: Optional[float] = 0.0,
        clip_max: Optional[float] = 1.0,
    ) -> EngineReport:
        """Certify every (row of ``xs``, label) query across the worker pool.

        Semantically identical to
        :meth:`repro.engine.scheduler.BatchCertificationScheduler.certify`
        (same verdicts, same cache behaviour); only the execution strategy
        differs.
        """
        from repro.engine.craft import prediction_pass

        start = time.perf_counter()
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        check_input_dim(xs.shape[1], self.model.input_dim)
        labels = np.asarray(labels, dtype=int).reshape(-1)
        if xs.shape[0] != labels.shape[0]:
            raise VerificationError("xs and labels must have matching lengths")
        balls = [
            LinfBall(center=x, epsilon=epsilon, clip_min=clip_min, clip_max=clip_max)
            for x in xs
        ]
        specs = [
            ClassificationSpec(target=int(label), num_classes=self.model.output_dim)
            for label in labels
        ]
        results, queries, misses = self._cache_lookup(balls, specs)
        cache_hits = sum(result is not None for result in results)
        dominance_hits = sum(
            result is not None and result.cache_tier == "dominance"
            for result in results
        )

        # Same prediction pass as BatchedCraft.certify (one shared copy of
        # the short-circuit semantics), run over the cache misses only.
        queued: List[int] = []
        anchors = None
        if misses:
            miss_results, miss_queued, anchors = prediction_pass(
                self.model, self.config, xs[misses], labels[misses]
            )
            for row, index in enumerate(misses):
                if miss_results[row] is not None:
                    results[index] = miss_results[row]
                    if self.cache is not None:
                        with self._cache_lock:
                            self.cache.admit(queries[index], miss_results[row])
            queued = [misses[row] for row in miss_queued]

        num_shards, stage_rows = self._dispatch(queued, balls, specs, anchors, results)
        if dominance_hits:
            from repro.engine.escalation import fold_dominance_hits

            stage_rows = fold_dominance_hits(stage_rows, results)
        return EngineReport(
            results=results,
            cache_hits=cache_hits,
            cache_dominance_hits=dominance_hits,
            num_batches=num_shards,
            elapsed_seconds=time.perf_counter() - start,
            num_workers=1 if self._inline else self.num_workers,
            stages=stage_rows,
        )

    def certify_regions(
        self,
        balls: Sequence[LinfBall],
        specs: Sequence[ClassificationSpec],
        anchor_fixpoints: Optional[np.ndarray] = None,
    ) -> List[VerificationResult]:
        """Sharded counterpart of :meth:`BatchedCraft.certify_regions`.

        Used by the domain-splitting certifier: one BFS frontier level is
        one sharded pass.  ``anchor_fixpoints`` rows are sliced per shard.
        """
        balls = list(balls)
        specs = list(specs)
        if len(balls) != len(specs):
            raise VerificationError("balls and specs must have matching lengths")
        results, _, misses = self._cache_lookup(balls, specs)
        anchors = (
            np.asarray(anchor_fixpoints)[misses]
            if anchor_fixpoints is not None and misses
            else None
        )
        self._dispatch(misses, balls, specs, anchors, results)
        return results

    # ------------------------------------------------------------------
    # Core sharded execution
    # ------------------------------------------------------------------

    def _cache_lookup(
        self, balls: Sequence[LinfBall], specs: Sequence[ClassificationSpec]
    ) -> Tuple[
        List[Optional[VerificationResult]], List[Optional[RegionQuery]], List[int]
    ]:
        """Answer what the cache can; return (results, queries, miss indices)."""
        total = len(balls)
        results: List[Optional[VerificationResult]] = [None] * total
        queries: List[Optional[RegionQuery]] = [None] * total
        misses: List[int] = []
        with self._cache_lock:
            if self.cache is not None:
                # One incremental scan per sweep picks up entries concurrent
                # writers (including this scheduler's own workers) published.
                self.cache.refresh()
            for index in range(total):
                if self.cache is not None:
                    query = RegionQuery.from_ball(balls[index], specs[index])
                    queries[index] = query
                    cached = self.cache.lookup(query)
                    if cached is not None:
                        results[index] = cached
                        continue
                misses.append(index)
        return results, queries, misses

    def _build_shard(
        self,
        chunk: List[int],
        balls: Sequence[LinfBall],
        specs: Sequence[ClassificationSpec],
        anchor_rows: Optional[Dict[int, np.ndarray]],
        domain: str,
    ) -> _Shard:
        return _Shard(
            indices=chunk,
            balls=[balls[i] for i in chunk],
            specs=[specs[i] for i in chunk],
            anchors=(
                np.stack([anchor_rows[i] for i in chunk])
                if anchor_rows is not None
                else None
            ),
            domain=domain,
            final=domain == self.config.domains[-1],
        )

    def _make_stage0_shards(
        self,
        order: List[int],
        balls: Sequence[LinfBall],
        specs: Sequence[ClassificationSpec],
        anchor_rows: Optional[Dict[int, np.ndarray]],
    ) -> List[_Shard]:
        """Chunk the queries at the global indices ``order`` into the
        first-stage shards, balanced across the worker pool."""
        if not order:
            return []
        # At most batch_size queries per shard, but never fewer shards than
        # workers: a 256-region sweep over 4 workers with batch 256 would
        # otherwise serialise on a single shard.  numpy's array_split
        # balancing keeps shard sizes within one query of each other.
        domain = self.config.domains[0]
        count = len(order)
        num_shards = max(math.ceil(count / self.batch_size), min(self.num_workers, count))
        # Round the shard count up to a worker multiple: 6 shards over 4
        # workers would leave two workers processing two shards while the
        # others idle — a 2x makespan for no batching gain.
        num_shards = min(count, math.ceil(num_shards / self.num_workers) * self.num_workers)
        boundaries = np.array_split(np.arange(count), num_shards)
        return [
            self._build_shard(
                [order[p] for p in positions], balls, specs, anchor_rows, domain
            )
            for positions in boundaries
        ]

    def _dispatch(
        self,
        order: List[int],
        balls: Sequence[LinfBall],
        specs: Sequence[ClassificationSpec],
        anchors: Optional[np.ndarray],
        results: List[Optional[VerificationResult]],
    ) -> Tuple[int, List[dict]]:
        """Run the escalation waterfall over the queries at ``order``.

        Shards are per ``(stage, batch)``: every query starts in the
        cheapest configured domain, and each completed shard's unresolved
        queries are immediately re-sharded into the next stage and
        submitted to the pool — escalated stragglers overlap with
        still-running cheap-stage shards instead of serialising the sweep
        behind a stage barrier.  ``anchors`` (when given) is aligned with
        ``order``; the anchor rows stay valid across stages because the
        solver parameters are ladder-invariant.

        Returns ``(total shard count, per-stage accounting rows)`` and
        scatters verdicts into ``results``.
        """
        stages = self.config.domains
        stage_index = {name: position for position, name in enumerate(stages)}
        stats = {name: StageStats(domain=name, batch_size=self.batch_size) for name in stages}
        self.stage_stats = [stats[name] for name in stages]
        if not order:
            return 0, []
        anchor_rows = (
            {index: anchors[position] for position, index in enumerate(order)}
            if anchors is not None
            else None
        )
        shards = self._make_stage0_shards(order, balls, specs, anchor_rows)
        stats[stages[0]].attempted = len(order)
        total_shards = len(shards)
        self._ensure_pool()
        sweep = self._begin_dispatch()
        try:
            outstanding = 0
            for shard in shards:
                self._submit_one(sweep, shard)
                outstanding += 1
            while outstanding:
                indices, shard_results, domain, elapsed, consolidation = (
                    self._next_completed(sweep)
                )
                outstanding -= 1
                stage_stats = stats[domain]
                stage_stats.batches += 1
                stage_stats.elapsed_seconds += elapsed
                stage_stats.record_consolidation(
                    ConsolidationStats.from_dict(consolidation)
                )
                stage_stats.record_results(shard_results)
                position = stage_index[domain]
                final = position == len(stages) - 1
                escalated: List[int] = []
                for index, result in zip(indices, shard_results):
                    if final or not should_escalate(result):
                        results[index] = result
                        stage_stats.resolved += 1
                        stage_stats.certified += int(result.certified)
                    else:
                        escalated.append(index)
                stage_stats.escalated += len(escalated)
                if escalated:
                    next_domain = stages[position + 1]
                    stats[next_domain].attempted += len(escalated)
                    for offset in range(0, len(escalated), self.batch_size):
                        shard = self._build_shard(
                            escalated[offset : offset + self.batch_size],
                            balls, specs, anchor_rows, next_domain,
                        )
                        total_shards += 1
                        self._submit_one(sweep, shard)
                        outstanding += 1
        finally:
            self._finish_dispatch(sweep)
        return total_shards, [stats[name].as_row() for name in stages]

    # ------------------------------------------------------------------
    # Transport hooks.  The waterfall above is execution-strategy
    # agnostic: it only needs "open a sweep" (:meth:`_begin_dispatch`,
    # which returns an opaque per-sweep token), "hand this shard to the
    # workers" (:meth:`_submit_one`), "block until any of *this sweep's*
    # shards completes" (:meth:`_next_completed`) and "close the sweep"
    # (:meth:`_finish_dispatch`, always called, success or failure).
    # Because all dispatch state hangs off the token, any number of
    # sweeps may interleave on one scheduler — the pool transport below
    # collects each sweep's shards in FIFO submission order; the TCP
    # cluster transport (:class:`repro.service.cluster.ClusterScheduler`)
    # overrides these hooks with per-sweep lease tables over a shared
    # work queue and inherits the waterfall, cache and accounting
    # unchanged.
    # ------------------------------------------------------------------

    def _begin_dispatch(self) -> deque:
        """Open one sweep; returns its transport token."""
        return deque()

    def _submit_one(self, sweep: deque, shard: _Shard) -> None:
        """Hand one of ``sweep``'s shards to the execution backend."""
        sweep.append(self._submit(shard))

    def _next_completed(
        self, sweep: deque
    ) -> Tuple[List[int], List[VerificationResult], str, float, Dict]:
        """Block until one of ``sweep``'s shards completes; return its
        payload."""
        return self._collect(sweep.popleft())

    def _finish_dispatch(self, sweep: deque) -> None:
        """Tear down one sweep's transport state (pool: nothing to do —
        an abandoned ``AsyncResult`` is garbage collected)."""

    def _submit(self, shard: _Shard):
        """Hand a shard to the pool (or keep it for inline execution)."""
        if self._inline:
            return shard
        return self._pool.apply_async(_run_shard, (shard,))

    def _collect(self, handle):
        """Wait for one submitted shard's
        ``(indices, results, domain, elapsed, consolidation stats)``."""
        if self._inline:
            # The inline worker state (per-stage crafts + cache) is shared
            # across sweeps; concurrent callers serialise here.
            with self._inline_lock:
                return _execute_shard(self._inline_state, handle)
        try:
            return handle.get(timeout=self.timeout_seconds)
        except multiprocessing.TimeoutError:
            self.close()
            raise VerificationError(
                f"sharded certification timed out: a shard did not finish within "
                f"{self.timeout_seconds}s ({self.num_workers} workers) — pool "
                f"terminated"
            ) from None
        except Exception:
            self.close()
            raise
