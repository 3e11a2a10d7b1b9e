"""The batched certification waterfall and its transports.

The paper's headline sweeps (Table 2 local robustness, Fig. 11 HCAS domain
splitting, the Table 4 Box → Zonotope → CH-Zonotope ladder) certify many
regions against one set of read-only monDEQ weights.
:class:`ShardedScheduler` is the one batched waterfall over them: it
answers what the verdict cache can, runs one prediction pass over the
misses, and certifies the correctly classified regions stage by stage
through ``config.domains`` (a single-domain configuration is a one-stage
waterfall).  Each stage splits its pending rows into balanced shards of at
most ``batch_size`` rows, never fewer shards than workers, and ships each
shard as row slices of ``(centers, lower, upper, targets, anchors)`` to
:meth:`~repro.engine.craft.BatchedCraft.certify_boxes`.  Resolved verdicts
(certified, or misclassified by the concrete network) exit; the rest enter
the next stage once every shard of the current one is back.  Per-sample
early-exit semantics inside a shard are exactly those of the batched
driver, and verdicts are independent of the sharding (the engine's parity
contract).  The sequential ``certify_sample`` climb stays as the oracle.

Transports
----------
The waterfall only needs four hooks (:meth:`ShardedScheduler._begin_dispatch`
and friends), so a shard runs on one of three transports:

* **inline** (``start_method="inline"``, or ``num_workers=1``): shards run
  in the calling process through the same code path.
  :class:`~repro.engine.scheduler.BatchCertificationScheduler` is this
  transport pinned, working on the scheduler's own model and cache view;
  the differential fuzzing suite uses it to check shard semantics at
  hypothesis speed.
* **pool** (``"fork"``, the default where available, ``"spawn"`` or
  ``"forkserver"``): a ``multiprocessing`` pool whose workers receive the
  pickled weights once at initialisation.
* **cluster**: :class:`repro.service.cluster.ClusterScheduler` replaces the
  hooks with a TCP work queue across machines.

Cache sharing
-------------
All workers share one verdict-cache directory, each through its own
:class:`~repro.engine.cache.TieredVerdictCache` view.  No file locking is
needed: every entry is its own file, written under a writer-unique
temporary name and published with the atomic ``os.replace``, so
concurrent workers certifying overlapping regions never corrupt an entry
— the regression tests in ``tests/engine/test_cache_concurrency.py`` pin
this.  The parent answers cache hits before sharding and ships the
:class:`~repro.engine.cache.RegionQuery` of each miss with its shard;
workers persist their *final* verdicts (resolved, or produced by the last
stage) themselves, stamped with the configuration fingerprint
(:func:`~repro.engine.cache.config_fingerprint`).

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
from repro.engine.craft import BatchedCraft, prediction_pass, region_arrays
from repro.engine.escalation import StageStats, resolve_batch_size, should_escalate
from repro.engine.results import EngineReport
from repro.engine.cache import RegionQuery, TieredVerdictCache, build_verdict_cache
from repro.exceptions import ConfigurationError, VerificationError
from repro.mondeq.model import MonDEQ
from repro.verify.specs import (
    ClassificationSpec,
    LinfBall,
    ball_bounds,
    check_ball,
    check_input_dim,
)

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
    :class:`BatchedCraft` per ladder stage the worker actually sees.
    ``cache_lock`` guards every admission into ``cache``; the in-process
    scheduler passes the lock of its own lookups, because it shares the
    view."""

    model: MonDEQ
    config: CraftConfig
    cache: Optional[TieredVerdictCache]
    keep_abstractions: bool
    cache_lock: threading.Lock = field(default_factory=threading.Lock)
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
    """One unit of work: rows of one stage's pending regions, as arrays.

    ``indices`` are the rows' positions in the sweep's arrays and come back
    with the results.  ``queries`` are the cache keys the parent looked the
    rows up by; they travel only when a cache is configured, so that the
    worker can admit its final verdicts.
    """

    indices: np.ndarray
    centers: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    targets: np.ndarray
    anchors: Optional[np.ndarray]
    queries: Optional[List[RegionQuery]]
    #: Ladder stage (domain name) this shard certifies in.
    domain: str
    #: Whether this is the ladder's last stage (its verdicts are final).
    final: bool


#: What a shard returns: its ``indices``, their results and the seconds the
#: worker spent on it.
_ShardOutcome = Tuple[np.ndarray, List[VerificationResult], float]


def _run_shard(shard: _Shard) -> _ShardOutcome:
    return _execute_shard(_WORKER, shard)


def _execute_shard(state: _WorkerState, shard: _Shard) -> _ShardOutcome:
    start = time.perf_counter()
    craft = state.craft_for(shard.domain)
    results = craft.certify_boxes(
        shard.centers, shard.lower, shard.upper, shard.targets, shard.anchors
    )
    elapsed = time.perf_counter() - start
    if state.cache is not None:
        with state.cache_lock:
            for query, result in zip(shard.queries, results):
                # Only *final* verdicts may be persisted: a non-final
                # stage's unresolved result is about to be escalated, and
                # caching it would replay an interim Unknown as the sweep's
                # answer if a later run hits the entry before the ladder
                # finishes.
                if shard.final or not should_escalate(result):
                    state.cache.admit(query, result)
    if not state.keep_abstractions:
        # Strip on the worker side, *before* the results cross the pool
        # pipe — avoiding the serialisation of the generator stacks is the
        # whole point of the flag.
        results = [_strip_abstractions(result) for result in results]
    return shard.indices, results, elapsed


def _strip_abstractions(result: VerificationResult) -> VerificationResult:
    # Every shard result carries an abstraction.  ``replace`` reads only the
    # fields it keeps, so the elements, still row references into the
    # batch's stacks, are dropped without ever being built.
    return replace(result, fixpoint_abstraction=None, output_element=None)


class ShardedScheduler:
    """The batched waterfall: certification queries run stage by stage, in
    shards, on an inline, pool or cluster transport (see the module
    docstring).

    ``certify`` and ``certify_regions`` may be called from several threads
    at once: each call keeps its own accounting, and returns its per-stage
    rows in its own :class:`~repro.engine.results.EngineReport`.
    :attr:`stage_stats` holds the rows of the most recent dispatch.

    Parameters
    ----------
    model, config:
        The monDEQ and the verification configuration; both are pickled to
        each worker exactly once (pool initializer).
    num_workers:
        Worker processes; defaults to the CPUs available to this process.
        ``1`` runs inline (no subprocesses).
    batch_size:
        Most regions per shard, on every stage.  ``None`` (default) means
        :data:`~repro.engine.escalation.DEFAULT_BATCH_SIZE`.  When a stage
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
        # max_concurrent_batches does exactly that).  The waterfall's
        # accounting and the transport hooks below are sweep-scoped, so
        # dispatch state never aliases (stage_stats is only the last
        # dispatch's view); the remaining shared mutable state is the cache
        # view (not thread-safe), the inline worker state and the pool
        # lifecycle — each serialised by its own lock.
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
        """Certify every (row of ``xs``, label) query, using cache and shards.

        Cache hits are answered first; one prediction pass over the misses
        short-circuits the misclassified rows (the single copy of those
        semantics, :func:`~repro.engine.craft.prediction_pass`); the
        correctly classified rows enter :meth:`_dispatch` as arrays, with
        no per-row ball or spec.  The ball is checked once, and, as in a
        sequential sweep, only if some row is analysed.
        """
        start = time.perf_counter()
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        check_input_dim(xs.shape[1], self.model.input_dim)
        labels = np.asarray(labels, dtype=int).reshape(-1)
        if xs.shape[0] != labels.shape[0]:
            raise VerificationError("xs and labels must have matching lengths")
        queries = None
        if self.cache is not None:
            queries = [
                RegionQuery(
                    center=x, epsilon=epsilon, target=label,
                    clip_min=clip_min, clip_max=clip_max,
                )
                for x, label in zip(xs, labels.tolist())
            ]
        results, misses = self._cache_lookup(queries, len(labels))

        queued, anchors = misses, None
        if misses.size:
            miss_results, miss_queued, anchors = prediction_pass(
                self.model, self.config, xs[misses], labels[misses]
            )
            for row, index in enumerate(misses.tolist()):
                if miss_results[row] is not None:
                    results[index] = miss_results[row]
                    if queries is not None:
                        with self._cache_lock:
                            self.cache.admit(queries[index], miss_results[row])
            queued = misses[miss_queued]
        if queued.size:
            check_ball(epsilon, clip_min, clip_max)
        centers = xs[queued]
        lower, upper = ball_bounds(centers, epsilon, clip_min, clip_max)
        num_shards, stage_rows = self._dispatch(
            queued, centers, lower, upper, labels[queued], anchors, queries, results
        )
        return EngineReport(
            results=results,
            cache_hits=len(labels) - misses.size,
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
        """Run the waterfall for every (precondition, postcondition) pair.

        The pairs are checked and converted to arrays in the parent
        (:func:`~repro.engine.craft.region_arrays`); an empty input returns
        ``[]``.  Used by the domain-splitting certifier: one BFS frontier
        level is one call.  ``anchor_fixpoints`` rows are sliced per shard.
        """
        balls, specs = list(balls), list(specs)
        centers, lower, upper, targets = region_arrays(self.model, balls, specs)
        queries = None
        if self.cache is not None:
            queries = [RegionQuery.from_ball(ball, spec) for ball, spec in zip(balls, specs)]
        results, misses = self._cache_lookup(queries, len(targets))
        anchors = None
        if anchor_fixpoints is not None:
            anchors = np.asarray(anchor_fixpoints)[misses]
        self._dispatch(
            misses, centers[misses], lower[misses], upper[misses], targets[misses],
            anchors, queries, results,
        )
        return results

    # ------------------------------------------------------------------
    # The waterfall
    # ------------------------------------------------------------------

    def _cache_lookup(
        self, queries: Optional[List[RegionQuery]], total: int
    ) -> Tuple[List[Optional[VerificationResult]], np.ndarray]:
        """Answer what the cache can; returns ``(results, miss rows)``."""
        results: List[Optional[VerificationResult]] = [None] * total
        if queries is None:
            return results, np.arange(total)
        misses: List[int] = []
        with self._cache_lock:
            # One incremental scan per sweep picks up entries concurrent
            # writers (including this scheduler's own workers) published.
            self.cache.refresh()
            for index, query in enumerate(queries):
                cached = self.cache.lookup(query)
                if cached is None:
                    misses.append(index)
                else:
                    results[index] = cached
        return results, np.array(misses, dtype=int)

    def _split(self, pending: np.ndarray) -> List[np.ndarray]:
        """One stage's pending rows in balanced shards.

        At most ``batch_size`` rows per shard, but never fewer shards than
        workers: a 256-region sweep over 4 workers with batch 256 would
        otherwise serialise on a single shard.  The shard count is rounded
        up to a worker multiple: 6 shards over 4 workers would leave two
        workers processing two shards while the others idle, a 2x makespan
        for no batching gain.  numpy's ``array_split`` keeps shard sizes
        within one row of each other.
        """
        count = pending.size
        num_shards = max(math.ceil(count / self.batch_size), min(self.num_workers, count))
        num_shards = min(count, math.ceil(num_shards / self.num_workers) * self.num_workers)
        return np.array_split(pending, num_shards)

    def _dispatch(
        self,
        order: np.ndarray,
        centers: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        targets: np.ndarray,
        anchors: Optional[np.ndarray],
        queries: Optional[List[RegionQuery]],
        results: List[Optional[VerificationResult]],
    ) -> Tuple[int, List[dict]]:
        """Run the waterfall over the regions at the sweep rows ``order``.

        ``centers``, ``lower``, ``upper``, ``targets`` and ``anchors`` (when
        given) are aligned with ``order``; ``queries`` (only with a cache)
        with the sweep.  Each stage splits its pending rows (:meth:`_split`)
        and submits every shard; the next stage starts once all of them are
        back, with the unresolved rows in sweep order.  The anchor rows stay
        valid across stages because the solver parameters are
        ladder-invariant.

        Returns ``(total shard count, per-stage accounting rows)`` and
        scatters verdicts into ``results``.
        """
        stages = self.config.domains
        stats = [StageStats(domain=name, batch_size=self.batch_size) for name in stages]
        self.stage_stats = stats
        if not order.size:
            return 0, []
        sweep_rows = order.tolist()
        pending = np.arange(order.size)
        total_shards = 0
        self._ensure_pool()
        sweep = self._begin_dispatch()
        try:
            for position, (domain, stage) in enumerate(zip(stages, stats)):
                if not pending.size:
                    break
                final = position == len(stages) - 1
                stage.attempted = pending.size
                shards = self._split(pending)
                for rows in shards:
                    self._submit_one(sweep, _Shard(
                        indices=rows,
                        centers=centers[rows],
                        lower=lower[rows],
                        upper=upper[rows],
                        targets=targets[rows],
                        anchors=None if anchors is None else anchors[rows],
                        queries=(
                            None if queries is None
                            else [queries[sweep_rows[row]] for row in rows.tolist()]
                        ),
                        domain=domain,
                        final=final,
                    ))
                total_shards += len(shards)
                escalated: List[int] = []
                for _ in shards:
                    rows, shard_results, elapsed = self._next_completed(sweep)
                    stage.batches += 1
                    stage.elapsed_seconds += elapsed
                    stage.record_results(shard_results)
                    for row, result in zip(rows.tolist(), shard_results):
                        if final or not should_escalate(result):
                            results[sweep_rows[row]] = result
                            stage.resolved += 1
                            stage.certified += int(result.certified)
                        else:
                            escalated.append(row)
                stage.escalated = len(escalated)
                pending = np.sort(np.array(escalated, dtype=int))
        finally:
            self._finish_dispatch(sweep)
        return total_shards, [stage.as_row() for stage in stats]

    # ------------------------------------------------------------------
    # Transport hooks.  The waterfall above is transport agnostic: it
    # only needs "open a sweep" (:meth:`_begin_dispatch`, which returns an
    # opaque per-sweep token), "hand this shard to the workers"
    # (:meth:`_submit_one`), "block until any of *this sweep's* shards
    # completes" (:meth:`_next_completed`) and "close the sweep"
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

    def _next_completed(self, sweep: deque) -> _ShardOutcome:
        """Block until one of ``sweep``'s shards completes; return its
        outcome."""
        return self._collect(sweep.popleft())

    def _finish_dispatch(self, sweep: deque) -> None:
        """Tear down one sweep's transport state (pool: nothing to do —
        an abandoned ``AsyncResult`` is garbage collected)."""

    def _submit(self, shard: _Shard):
        """Hand a shard to the pool (or keep it for inline execution)."""
        if self._inline:
            return shard
        return self._pool.apply_async(_run_shard, (shard,))

    def _collect(self, handle) -> _ShardOutcome:
        """Wait for one submitted shard's outcome."""
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
