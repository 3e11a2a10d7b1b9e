"""The async admission frontend of the certification service.

A long-lived :class:`CertificationFrontend` accepts certification
requests — ``(model fingerprint, region batch, epsilon, deadline,
budget)`` — from any number of concurrent clients, and stands between
them and the engines:

Admission
    A request whose centres do not fit the model's input dimension, or
    whose ball is invalid (a NaN or negative epsilon, NaN or crossed clip
    bounds), raises :class:`~repro.exceptions.VerificationError` before
    any of its cells is looked up or queued.  Every cell is then looked
    up by its exact key in this process's
    :class:`~repro.engine.cache.TieredVerdictCache` view, which re-checks
    the cache directory on a lookup once its last check is
    :data:`VIEW_REFRESH_SECONDS` old, so entries published by cluster
    workers or *other* service processes are served without an engine
    touch.  Hits stream back immediately; misses
    are queued for dispatch.
Coalescing
    Queued cells are grouped by **batch signature** — ``(model
    fingerprint, config signature, epsilon, clip bounds)`` — and held
    for ``service.coalesce_window_seconds`` so compatible requests
    arriving together merge into one engine pass (up to
    ``service.max_batch_cells``).  Cells of *different* signatures are
    never merged: a batch is assembled from exactly one group, so the
    coalescing invariant is structural, and ``dispatch_log`` records
    every assembled batch for the property tests to audit.
Deadlines and budgets
    A request's deadline bounds its *queueing*: cells not started by the
    deadline resolve as ``expired`` (no verdict — an expired cell is
    never reported as anything else, in particular never as a
    certificate).  Cells already inside an engine when the deadline
    passes complete and serve late — an engine pass is not preemptible.
    A request's budget caps the *engine* cells it may consume: cache
    hits are free, and admissions beyond the budget resolve as
    ``cancelled`` (reason ``"budget"``) at submit time.  Client
    cancellation removes the request's unstarted cells from the queues —
    cells of other requests coalesced into the same group stay queued
    (that is the "requeue" contract: cancelling one client never drops
    a neighbour's work).

Conservation
    Every admitted cell resolves to exactly one terminal event:
    ``served + cancelled + expired + failed == submitted`` (``failed``
    only on backend exceptions).  The hypothesis battery in
    ``tests/service/test_frontend.py`` drives arbitrary interleavings of
    admissions, cancellations and deadline expiries against this
    invariant.

The frontend is transport-agnostic about execution: a *backend* is
anything with the scheduler ``certify(xs, labels, epsilon, clip_min,
clip_max) -> EngineReport`` contract.  The library's schedulers are one
waterfall (:class:`~repro.engine.sharded.ShardedScheduler`) on three
transports: in process
(:class:`~repro.engine.scheduler.BatchCertificationScheduler`, the
default), on a worker pool (``ShardedScheduler``), or across machines
(:class:`~repro.service.cluster.ClusterScheduler`).  Engine calls run in
the event loop's executor, so the loop keeps admitting and streaming
while engines grind; a per-backend semaphore bounds them at
``service.max_concurrent_batches`` simultaneous passes, so distinct
coalescing groups — different models, epsilons or clip ranges — certify
in parallel when the backend is concurrent-caller-safe (every scheduler
above is: each call keeps its own accounting and report), without ever
turning the executor into an unbounded free-for-all.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CraftConfig, ServiceConfig
from repro.core.results import VerificationResult
from repro.engine.cache import (
    RegionQuery,
    TieredVerdictCache,
    config_fingerprint,
    weights_hash,
)
from repro.exceptions import ConfigurationError, VerificationError
from repro.mondeq.model import MonDEQ
from repro.verify.specs import check_ball, check_input_dim

#: Terminal cell states, in event ``status`` form.
TERMINAL_STATUSES = ("served", "cancelled", "expired", "failed")

#: Staleness bound of the frontend's cache view, in seconds: a long-lived
#: frontend must not serve a snapshot frozen at registration time.
VIEW_REFRESH_SECONDS = 0.25

#: Rows kept in ``CertificationFrontend.dispatch_log``; older rows are
#: evicted first, so a long-lived frontend stays bounded.
DISPATCH_LOG_LIMIT = 1024


@dataclass(frozen=True)
class VerdictEvent:
    """One streamed per-cell resolution."""

    request_id: str
    #: Position of the cell inside its request's batch.
    index: int
    #: One of :data:`TERMINAL_STATUSES`.
    status: str
    #: The verdict for ``served`` cells; ``None`` otherwise — an expired
    #: or cancelled cell has *no* verdict, certified or not.
    result: Optional[VerificationResult]
    reason: str = ""
    #: ``"disk"`` for a served cell the verdict cache answered, ``None``
    #: for engine verdicts.
    cache_tier: Optional[str] = None
    latency_seconds: float = 0.0

    @property
    def certified(self) -> bool:
        return self.result is not None and self.result.certified


class RequestHandle:
    """A client's view of one submitted request: an event stream plus
    terminal-state accounting."""

    def __init__(self, request_id: str, total: int):
        self.request_id = request_id
        self.total = total
        self.counts: Dict[str, int] = {status: 0 for status in TERMINAL_STATUSES}
        self._events: "asyncio.Queue[VerdictEvent]" = asyncio.Queue()
        self._resolved = 0
        self.done = asyncio.Event()
        if total == 0:
            self.done.set()

    @property
    def served(self) -> int:
        return self.counts["served"]

    @property
    def cancelled(self) -> int:
        return self.counts["cancelled"]

    @property
    def expired(self) -> int:
        return self.counts["expired"]

    @property
    def failed(self) -> int:
        return self.counts["failed"]

    @property
    def resolved(self) -> int:
        return self._resolved

    def conserved(self) -> bool:
        """The conservation invariant, as a predicate on this request."""
        return sum(self.counts.values()) == self._resolved <= self.total

    def _push(self, event: VerdictEvent) -> None:
        self.counts[event.status] += 1
        self._resolved += 1
        self._events.put_nowait(event)
        if self._resolved >= self.total:
            self.done.set()

    async def events(self):
        """Async-iterate the request's events until every cell resolved."""
        delivered = 0
        while delivered < self.total:
            yield await self._events.get()
            delivered += 1

    async def collect(self) -> List[VerdictEvent]:
        """Await completion; returns all events (arrival order)."""
        return [event async for event in self.events()]


@dataclass
class _Cell:
    """One admitted (center, target) query on its way to a verdict."""

    request_id: str
    index: int
    query: RegionQuery
    group: Tuple
    handle: RequestHandle
    admitted_at: float
    #: Absolute (clock) expiry, or ``None`` for no deadline.
    deadline: Optional[float]
    started: bool = False


@dataclass
class _ModelEntry:
    """One registered (model, config, backend) the frontend serves."""

    fingerprint: str
    model: MonDEQ
    config: CraftConfig
    backend: object
    signature: str
    cache: Optional[TieredVerdictCache]


@dataclass
class FrontendStats:
    """Service-level accounting across all requests."""

    submitted: int = 0
    served: int = 0
    cancelled: int = 0
    expired: int = 0
    failed: int = 0
    cache_hits: int = 0
    engine_cells: int = 0
    engine_batches: int = 0
    #: Most engine passes ever in flight at once (across all backends);
    #: ``service.max_concurrent_batches`` bounds it per backend.
    concurrent_batches_peak: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.submitted if self.submitted else 0.0

    def as_row(self) -> Dict:
        return {
            "submitted": self.submitted,
            "served": self.served,
            "cancelled": self.cancelled,
            "expired": self.expired,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "engine_cells": self.engine_cells,
            "engine_batches": self.engine_batches,
            "concurrent_batches_peak": self.concurrent_batches_peak,
            "hit_rate": round(self.hit_rate, 4),
        }


class CertificationFrontend:
    """Async admission queue in front of the certification engines.

    ``clock`` is injectable (monotonic seconds) so the deadline/budget
    semantics are testable without wall-clock sleeps; production leaves
    the default.
    """

    def __init__(
        self,
        service: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.service = service if service is not None else ServiceConfig()
        self.clock = clock
        self.stats = FrontendStats()
        #: Engine batches assembled, for coalescing-invariant audits:
        #: ``{"group", "cells", "request_ids"}`` rows, the last
        #: :data:`DISPATCH_LOG_LIMIT` of them.
        self.dispatch_log: Deque[Dict] = deque(maxlen=DISPATCH_LOG_LIMIT)
        self._entries: Dict[str, _ModelEntry] = {}
        self._groups: Dict[Tuple, List[_Cell]] = {}
        self._group_opened_at: Dict[Tuple, float] = {}
        #: Handles of *unresolved* requests only — popped on terminal
        #: resolution, so request state never accumulates.
        self._handles: Dict[str, RequestHandle] = {}
        self._dispatcher: Optional[asyncio.Task] = None
        self._batches: set = set()
        #: One semaphore per registered backend object, lazily built:
        #: ``service.max_concurrent_batches`` engine passes may run at
        #: once per backend (two models sharing one backend share its
        #: bound; distinct backends run independently).
        self._batch_slots: Dict[int, asyncio.Semaphore] = {}
        self._inflight_batches = 0
        self._wake: Optional[asyncio.Event] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_model(
        self,
        model: MonDEQ,
        config: Optional[CraftConfig] = None,
        backend: Optional[object] = None,
        cache_dir: Optional[str] = None,
    ) -> str:
        """Register a (model, config) pair; returns its fingerprint.

        The fingerprint hashes the weights *and* the config signature —
        two registrations of the same weights under different
        verification configs are distinct models to the service, so
        their traffic can never coalesce.  ``backend`` defaults to a
        :class:`~repro.engine.scheduler.BatchCertificationScheduler`
        over ``cache_dir``.
        """
        config = config if config is not None else CraftConfig()
        signature = config_fingerprint(config)
        fingerprint = f"{weights_hash(model)[:16]}-{signature[:16]}"
        if backend is None:
            from repro.engine.scheduler import BatchCertificationScheduler

            backend = BatchCertificationScheduler(model, config, cache_dir=cache_dir)
        cache = None
        if cache_dir is not None:
            # The frontend's own cache view: the backend's cache lives on
            # executor threads, and TieredVerdictCache is not
            # thread-safe — so the event loop consults a separate view
            # over the same directory, armed with the staleness bound.
            cache = TieredVerdictCache(
                cache_dir, config, weights_hash(model),
                refresh_seconds=VIEW_REFRESH_SECONDS,
            )
        self._entries[fingerprint] = _ModelEntry(
            fingerprint=fingerprint, model=model, config=config,
            backend=backend, signature=signature, cache=cache,
        )
        return fingerprint

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    async def submit(
        self,
        fingerprint: str,
        centers: np.ndarray,
        targets: Sequence[int],
        epsilon: float,
        deadline_seconds: Optional[float] = None,
        budget_cells: Optional[int] = None,
        clip_min: Optional[float] = 0.0,
        clip_max: Optional[float] = 1.0,
    ) -> RequestHandle:
        """Admit one request; returns its streaming handle immediately.

        Cache hits resolve before this returns; everything else resolves
        through the handle's event stream.  Raises
        :class:`~repro.exceptions.VerificationError`, admitting nothing,
        when the centres do not fit the model or the ball is invalid,
        even if every row would be misclassified.
        """
        if self._closed:
            raise VerificationError("frontend is closed")
        entry = self._entries.get(fingerprint)
        if entry is None:
            raise ConfigurationError(f"unknown model fingerprint {fingerprint!r}")
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ConfigurationError("deadline_seconds must be non-negative")
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        targets = np.asarray(targets, dtype=int).reshape(-1)
        if centers.shape[0] != targets.shape[0]:
            raise VerificationError("centers and targets must have matching lengths")
        # Checked at admission rather than left to the engine: a failing
        # engine pass would only mark this request's cells failed, and
        # with them those of every request coalesced into its batch.
        check_input_dim(centers.shape[1], entry.model.input_dim)
        check_ball(epsilon, clip_min, clip_max)

        request_id = uuid.uuid4().hex[:12]
        handle = RequestHandle(request_id, total=centers.shape[0])
        self._handles[request_id] = handle
        engine_cells_admitted = 0
        self.stats.submitted += handle.total
        now = self.clock()
        deadline = now + deadline_seconds if deadline_seconds is not None else None
        group = (fingerprint, entry.signature, float(epsilon), clip_min, clip_max)

        for index in range(handle.total):
            query = RegionQuery(
                center=centers[index], epsilon=epsilon, target=int(targets[index]),
                clip_min=clip_min, clip_max=clip_max,
            )
            if entry.cache is not None:
                cached = entry.cache.lookup(query)
                if cached is not None:
                    self.stats.cache_hits += 1
                    self._resolve(
                        handle,
                        VerdictEvent(
                            request_id=request_id, index=index, status="served",
                            result=cached, cache_tier=cached.cache_tier,
                            latency_seconds=self.clock() - now,
                        ),
                    )
                    continue
            if budget_cells is not None and engine_cells_admitted >= budget_cells:
                self._resolve(
                    handle,
                    VerdictEvent(
                        request_id=request_id, index=index, status="cancelled",
                        result=None, reason="budget",
                        latency_seconds=self.clock() - now,
                    ),
                )
                continue
            engine_cells_admitted += 1
            cell = _Cell(
                request_id=request_id, index=index, query=query, group=group,
                handle=handle, admitted_at=now, deadline=deadline,
            )
            queue = self._groups.setdefault(group, [])
            if not queue:
                self._group_opened_at[group] = now
            queue.append(cell)
        self._ensure_dispatcher()
        if self._wake is not None:
            self._wake.set()
        if handle.done.is_set():
            # Fully resolved at admission (all hits, empty, or budget):
            # nothing left to track.
            self._handles.pop(request_id, None)
        return handle

    async def cancel(self, request_id: str) -> int:
        """Cancel a request's *unstarted* cells; returns how many were
        removed.  Started cells complete and serve late; neighbouring
        requests' cells in the same coalescing group are untouched."""
        removed = 0
        handle = self._handles.get(request_id)
        if handle is None:
            return 0
        for group, cells in list(self._groups.items()):
            kept: List[_Cell] = []
            for cell in cells:
                if cell.request_id == request_id and not cell.started:
                    removed += 1
                    self._resolve(
                        handle,
                        VerdictEvent(
                            request_id=request_id, index=cell.index,
                            status="cancelled", result=None, reason="cancelled",
                            latency_seconds=self.clock() - cell.admitted_at,
                        ),
                    )
                else:
                    kept.append(cell)
            if kept:
                self._groups[group] = kept
            else:
                self._groups.pop(group, None)
                self._group_opened_at.pop(group, None)
        return removed

    async def close(self) -> None:
        """Drain in-flight engine batches, cancel queued cells, stop."""
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._batches:
            await asyncio.gather(*list(self._batches), return_exceptions=True)
        for cells in list(self._groups.values()):
            for cell in cells:
                self._resolve(
                    cell.handle,
                    VerdictEvent(
                        request_id=cell.request_id, index=cell.index,
                        status="cancelled", result=None, reason="shutdown",
                        latency_seconds=self.clock() - cell.admitted_at,
                    ),
                )
        self._groups.clear()
        self._group_opened_at.clear()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None or self._dispatcher.done():
            self._wake = asyncio.Event()
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    def _poll_timeout(self) -> Optional[float]:
        """Exact sleep until the next scheduled event.

        With no queued cells the dispatcher parks on the wake event.
        Otherwise it sleeps precisely until the earliest of (a) a
        group's coalescing window closing (``opened_at + window`` — the
        moment the group becomes dispatchable) and (b) a queued cell's
        deadline (the moment it must expire).  New admissions set the
        wake event, so sleeping the full distance is safe — no periodic
        polling.
        """
        if not self._groups:
            return None
        now = self.clock()
        window = self.service.coalesce_window_seconds
        due = min(
            self._group_opened_at.get(group, now) + window
            for group in self._groups
        )
        for cells in self._groups.values():
            for cell in cells:
                if cell.deadline is not None and cell.deadline < due:
                    due = cell.deadline
        return max(0.0, due - now)

    async def _dispatch_loop(self) -> None:
        while not self._closed:
            timeout = self._poll_timeout()
            try:
                if timeout is None:
                    await self._wake.wait()
                else:
                    await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            if self._closed:
                return
            self._expire_deadlines()
            self._launch_ready_groups()

    def _expire_deadlines(self) -> None:
        now = self.clock()
        for group, cells in list(self._groups.items()):
            kept: List[_Cell] = []
            for cell in cells:
                if cell.deadline is not None and now >= cell.deadline:
                    # Unstarted past its deadline: expired, verdict-free.
                    self._resolve(
                        cell.handle,
                        VerdictEvent(
                            request_id=cell.request_id, index=cell.index,
                            status="expired", result=None, reason="deadline",
                            latency_seconds=now - cell.admitted_at,
                        ),
                    )
                else:
                    kept.append(cell)
            if kept:
                self._groups[group] = kept
            else:
                self._groups.pop(group, None)
                self._group_opened_at.pop(group, None)

    def _launch_ready_groups(self) -> None:
        now = self.clock()
        window = self.service.coalesce_window_seconds
        for group in list(self._groups):
            if now - self._group_opened_at.get(group, now) < window:
                continue
            cells = self._groups.pop(group)
            self._group_opened_at.pop(group, None)
            while cells:
                batch = cells[: self.service.max_batch_cells]
                cells = cells[self.service.max_batch_cells :]
                for cell in batch:
                    cell.started = True
                self.dispatch_log.append(
                    {
                        "group": group,
                        "cells": len(batch),
                        "request_ids": sorted({c.request_id for c in batch}),
                    }
                )
                task = asyncio.get_running_loop().create_task(
                    self._run_batch(group, batch)
                )
                self._batches.add(task)
                task.add_done_callback(self._batches.discard)

    def _batch_slot(self, backend: object) -> asyncio.Semaphore:
        slot = self._batch_slots.get(id(backend))
        if slot is None:
            slot = asyncio.Semaphore(self.service.max_concurrent_batches)
            self._batch_slots[id(backend)] = slot
        return slot

    async def _run_batch(self, group: Tuple, batch: List[_Cell]) -> None:
        fingerprint, _signature, epsilon, clip_min, clip_max = group
        entry = self._entries[fingerprint]
        xs = np.stack([cell.query.center for cell in batch])
        labels = np.array([cell.query.target for cell in batch], dtype=int)
        loop = asyncio.get_running_loop()
        try:
            # The per-backend semaphore bounds simultaneous engine
            # passes at service.max_concurrent_batches — a scheduling
            # bound, not a global executor free-for-all: other backends
            # proceed, cache hits keep streaming, and at the default of
            # 1 the pre-concurrency serialised behaviour is reproduced.
            async with self._batch_slot(entry.backend):
                self._inflight_batches += 1
                self.stats.concurrent_batches_peak = max(
                    self.stats.concurrent_batches_peak, self._inflight_batches
                )
                try:
                    report = await loop.run_in_executor(
                        None,
                        lambda: entry.backend.certify(
                            xs, labels, epsilon,
                            clip_min=clip_min, clip_max=clip_max,
                        ),
                    )
                finally:
                    self._inflight_batches -= 1
        except Exception as error:
            for cell in batch:
                self._resolve(
                    cell.handle,
                    VerdictEvent(
                        request_id=cell.request_id, index=cell.index,
                        status="failed", result=None, reason=repr(error),
                        latency_seconds=self.clock() - cell.admitted_at,
                    ),
                )
            return
        self.stats.engine_batches += 1
        self.stats.engine_cells += len(batch)
        now = self.clock()
        for cell, result in zip(batch, report.results):
            self._resolve(
                cell.handle,
                VerdictEvent(
                    request_id=cell.request_id, index=cell.index, status="served",
                    result=result,
                    cache_tier=result.cache_tier if result.cached else None,
                    latency_seconds=now - cell.admitted_at,
                ),
            )

    # ------------------------------------------------------------------

    def _resolve(self, handle: RequestHandle, event: VerdictEvent) -> None:
        setattr(
            self.stats, event.status, getattr(self.stats, event.status) + 1
        )
        handle._push(event)
        if handle.done.is_set():
            # Terminal resolution reclaims the request's frontend state;
            # the caller keeps streaming from the handle it already holds.
            self._handles.pop(handle.request_id, None)
