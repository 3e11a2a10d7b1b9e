"""Multi-machine shard fan-out over ``multiprocessing.managers`` TCP.

:class:`~repro.engine.sharded.ShardedScheduler` ends at a single
machine: its transport is a fork/spawn pool.  This module extends the
same escalation waterfall across machines by overriding only the
transport hooks (``_begin_dispatch`` / ``_submit_one`` /
``_next_completed`` / ``_finish_dispatch``) with a TCP work queue — the
shard protocol has been pickle-clean since PR 2, so a shard crosses a
socket exactly as it crossed a pool pipe.

Topology
--------
The scheduler process hosts a :class:`multiprocessing.managers.BaseManager`
server (in a daemon thread — no extra process) exposing three proxies:

``task_queue``
    Shared work queue.  Workers *pull* — work stealing for heterogeneous
    fixpoint costs falls out for free: a worker that drew an easy Box
    shard comes back for more while a neighbour grinds a chzonotope
    straggler.  Nobody is assigned anything.
``result_queue``
    Upstream channel for ``claim`` / ``result`` / ``heartbeat`` /
    ``error`` / ``retired`` messages.
``control``
    One-shot distribution of the pickled ``(model, config, cache_dir,
    keep_abstractions)`` payload — each worker fetches the weights once
    at startup, exactly like the pool initializer.

Local workers are spawned as child processes of the scheduler; remote
workers on other machines join the same server by address/authkey via
:func:`run_cluster_worker` (see ``docs/service.md`` for the recipe).
Both speak the identical protocol — the fault-injection tests exercise
the TCP path even for local workers.

Sweep multiplexing
------------------
Any number of ``certify()`` / ``certify_regions()`` sweeps may run
concurrently on one scheduler (the service frontend's
``max_concurrent_batches`` does exactly that).  Every task is stamped
with a ``(sweep_id, task_id)`` pair — sweep ids are monotone across the
scheduler's lifetime, task ids monotone within a sweep — and a single
long-lived **router thread** drains the result queue, maintains the
per-sweep lease tables and hands each completed shard to the owning
sweep's completion queue.  Workers treat the stamp as an opaque token
they echo in claims and results, so multiplexing needs no worker-side
protocol change.  The exactly-once, work-stealing and fault-recovery
guarantees below hold *per sweep* under arbitrary interleaving, and a
failing sweep (retries exhausted, worker exception, timeout) fails
alone — concurrent sweeps on the same cluster keep running.

Exactly-once verdicts under faults
----------------------------------
Three mechanisms compose, none of which trusts the workers:

* **Leases**: a worker claims a task before computing it; a claim older
  than ``service.shard_timeout_seconds`` without a result marks the
  worker dead (the per-shard timeout machinery of the pool scheduler,
  reused as the health-check) and requeues the task.
* **Retry with deterministic backoff**: each reassignment waits
  :func:`repro.service.faults.retry_backoff` before requeueing; more
  than ``service.retry_max_attempts`` attempts fails the owning sweep
  loudly rather than looping.
* **First-wins dedupe**: results carry their ``(sweep_id, task_id)``
  stamp; the first result for a task resolves it and every later
  duplicate (a hung worker finally reporting after its shard was
  reassigned, or a straggler from an already finished sweep) is counted
  and dropped — no double-counted verdicts.  Shard execution is
  deterministic, so which attempt wins never changes a verdict.

Verdict-losing faults are impossible by construction: a task leaves its
sweep's lease table only when its result is routed to the waterfall (or
the sweep fails).  Dead *local* workers are detected early via process
liveness (no need to wait out the lease) and respawned at the next
generation when ``service.restart_workers``.

Queue-depth autoscaling
-----------------------
With ``service.autoscale.enabled`` the router also runs a
:class:`QueueDepthAutoscaler` tick: the shared task queue staying at or
above ``high_watermark`` for ``dwell_seconds`` grows the local pool by
one worker (bounded by ``max_workers``); staying at or below
``low_watermark`` for the dwell retires one idle worker down to
``min_workers``.  Retirement is a **pill**: a ``("retire",)`` message on
the task queue, consumed by exactly one idle worker, which acknowledges
(``retired``) and exits cleanly — a busy worker never abandons a shard
to retire, so scaling cannot lose or flip verdicts.  Grown and
fault-respawned workers share the per-slot generation counter, so
worker ids stay unique across scale churn.  Scale events surface in
:meth:`ClusterStats.as_row`.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from multiprocessing.managers import BaseManager, Server

from repro.core.config import AutoscaleConfig, CraftConfig, ServiceConfig
from repro.engine.sharded import (
    ShardedScheduler,
    _Shard,
    _ShardOutcome,
    _build_worker_state,
    _execute_shard,
)
from repro.exceptions import ConfigurationError, VerificationError
from repro.mondeq.model import MonDEQ
from repro.service.faults import FaultSpec

DEFAULT_AUTHKEY = b"repro-certification-cluster"

#: Worker-side poll timeout on the task queue; bounds stop latency and
#: heartbeat cadence jitter.
_POLL_SECONDS = 0.05


class _ClusterControl:
    """Server-side holder of the worker-state payload (fetched once per
    worker over TCP instead of travelling with every task)."""

    def __init__(self, payload: bytes):
        self._payload = payload

    def payload(self) -> bytes:
        return self._payload


class _StoppableServer(Server):
    """A manager server whose accepter thread exits when stopped.

    The stock accepter treats *any* ``OSError`` from ``accept()`` as a
    transient hiccup and retries — after ``listener.close()`` that is a
    busy-spin for the life of the process.  Checking the stop event
    turns "listener closed during shutdown" into a clean exit.
    """

    def accepter(self):
        while True:
            try:
                c = self.listener.accept()
            except OSError:
                if getattr(self, "stop_event", None) is not None and (
                    self.stop_event.is_set()
                ):
                    return
                continue
            t = threading.Thread(target=self.handle_request, args=(c,))
            t.daemon = True
            t.start()


def _make_server_manager(
    task_queue: "queue.Queue",
    result_queue: "queue.Queue",
    control: _ClusterControl,
    address: Tuple[str, int],
    authkey: bytes,
) -> BaseManager:
    """A manager class owning *this* scheduler's queues.

    The registry is class-level state in ``BaseManager``, so each
    scheduler gets a fresh subclass — two live clusters in one process
    must not alias each other's queues.
    """

    class _ServerManager(BaseManager):
        _Server = _StoppableServer

    _ServerManager.register("task_queue", callable=lambda: task_queue)
    _ServerManager.register("result_queue", callable=lambda: result_queue)
    _ServerManager.register("control", callable=lambda: control)
    return _ServerManager(address=address, authkey=authkey)


class _ClientManager(BaseManager):
    """Worker-side connector; proxies only, no callables."""


_ClientManager.register("task_queue")
_ClientManager.register("result_queue")
_ClientManager.register("control")


def _serve_forever(server: Server) -> None:
    """Thread target for the in-process server.  ``serve_forever`` ends
    with ``sys.exit(0)`` (it expects to own a process); swallow the
    ``SystemExit`` so a clean stop is not reported as a thread crash."""
    try:
        server.serve_forever()
    except SystemExit:
        pass


def connect_worker_manager(address: Tuple[str, int], authkey: bytes) -> _ClientManager:
    """Connect to a cluster server; returns the proxy-bearing manager."""
    manager = _ClientManager(address=tuple(address), authkey=authkey)
    manager.connect()
    return manager


def run_cluster_worker(
    address: Tuple[str, int],
    authkey: bytes,
    worker_slot: int,
    generation: int = 0,
    faults: Optional[FaultSpec] = None,
    heartbeat_seconds: float = 0.25,
    poll_seconds: float = _POLL_SECONDS,
) -> int:
    """The cluster worker loop — run on any machine that can reach
    ``address``.

    Fetches the weights payload once, then pulls tasks until the stop
    sentinel (or a retire pill): claim, (maybe) fault, compute via the
    same :func:`~repro.engine.sharded._execute_shard` the pool workers
    run (including worker-side cache admission of final verdicts),
    report.  Task ids are opaque to the worker — it echoes whatever
    stamp the scheduler attached, which is how one worker serves many
    interleaved sweeps without knowing it.  Idle periods emit heartbeats
    so the scheduler can tell "no work" from "dead worker".
    """
    # BaseManager authenticates with the *process* authkey on the worker
    # side of the handshake as well; align it before connecting.
    multiprocessing.current_process().authkey = authkey
    manager = connect_worker_manager(address, authkey)
    tasks = manager.task_queue()
    results = manager.result_queue()
    payload = bytes(manager.control().payload())
    state = _build_worker_state(payload)
    plan = faults.plan_for(worker_slot, generation) if faults is not None else None
    worker_id = f"{worker_slot}:{generation}:{os.getpid()}"
    results.put(("heartbeat", None, worker_id, time.time()))
    last_beat = time.monotonic()
    while True:
        try:
            message = tasks.get(timeout=poll_seconds)
        except queue.Empty:
            now = time.monotonic()
            if now - last_beat >= heartbeat_seconds:
                results.put(("heartbeat", None, worker_id, time.time()))
                last_beat = now
            continue
        if message[0] == "stop":
            # Re-publish the sentinel so sibling workers drain too.
            tasks.put(message)
            return 0
        if message[0] == "retire":
            # A scale-down pill: consumed by exactly one idle worker
            # (never re-published), acknowledged so the scheduler can
            # tell a retirement from a crash, then a clean exit.  A busy
            # worker cannot reach this branch mid-shard.
            results.put(("retired", None, worker_id, time.time()))
            return 0
        _, task_id, attempt, shard = message
        results.put(("claim", task_id, worker_id, time.time()))
        action, delay = plan.next_action() if plan is not None else ("none", 0.0)
        if action == "kill":
            plan.apply(action, delay)  # never returns
        try:
            outcome = _execute_shard(state, shard)
        except Exception as error:  # pragma: no cover - defensive
            results.put(("error", task_id, worker_id, repr(error)))
            continue
        if plan is None or plan.apply(action, delay):
            results.put(("result", task_id, worker_id, outcome))
        last_beat = time.monotonic()


@dataclass
class _TaskState:
    """Scheduler-side lease record of one in-flight shard."""

    shard: _Shard
    attempts: int = 1
    claimed_by: Optional[str] = None
    claim_expires: Optional[float] = None


@dataclass
class _SweepDispatch:
    """Router-side state of one in-flight sweep: its lease table plus
    the completion queue ``_next_completed`` blocks on.  Everything a
    sweep owns hangs off this token, which is how two sweeps interleave
    on one cluster without sharing any retry state."""

    sweep_id: int
    leases: Dict[int, _TaskState] = field(default_factory=dict)
    completions: "queue.Queue" = field(default_factory=queue.Queue)
    next_task_id: int = 0
    failed: bool = False


class QueueDepthAutoscaler:
    """The pure scaling policy: watermarks + dwell over observed depth.

    Stateless apart from the two dwell timers, and fully deterministic
    given the ``observe`` call sequence — the unit battery drives it
    with an injected clock and no cluster at all.  ``observe`` returns
    ``"grow"``, ``"shrink"`` or ``None``; after an action the timers
    re-arm, so consecutive scale events are at least ``dwell_seconds``
    apart.
    """

    def __init__(
        self,
        config: AutoscaleConfig,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        self.clock = clock
        self._high_since: Optional[float] = None
        self._low_since: Optional[float] = None

    def observe(self, depth: int, workers: int) -> Optional[str]:
        """Fold in one (queue depth, live workers) sample."""
        config = self.config
        if not config.enabled:
            return None
        now = self.clock()
        if depth >= config.high_watermark and workers < config.max_workers:
            self._low_since = None
            if self._high_since is None:
                self._high_since = now
            elif now - self._high_since >= config.dwell_seconds:
                self._high_since = None
                return "grow"
        elif depth <= config.low_watermark and workers > config.min_workers:
            self._high_since = None
            if self._low_since is None:
                self._low_since = now
            elif now - self._low_since >= config.dwell_seconds:
                self._low_since = None
                return "shrink"
        else:
            self._high_since = None
            self._low_since = None
        return None


@dataclass
class ClusterStats:
    """Fault-recovery and scaling accounting of one :class:`ClusterScheduler`."""

    tasks: int = 0
    retries: int = 0
    duplicates_dropped: int = 0
    respawns: int = 0
    heartbeats: int = 0
    scale_up_events: int = 0
    scale_down_events: int = 0
    dead_workers: Set[str] = field(default_factory=set)

    def as_row(self) -> Dict:
        return {
            "tasks": self.tasks,
            "retries": self.retries,
            "duplicates_dropped": self.duplicates_dropped,
            "respawns": self.respawns,
            "workers_marked_dead": len(self.dead_workers),
            "scale_up_events": self.scale_up_events,
            "scale_down_events": self.scale_down_events,
        }


class ClusterScheduler(ShardedScheduler):
    """The sharded escalation waterfall over a TCP worker cluster.

    Verdict-identical to :class:`ShardedScheduler` (and therefore to the
    sequential engine — the parity contract); only the transport and its
    fault tolerance differ.  ``num_workers`` local workers are spawned
    as child processes speaking the same TCP protocol as remote joiners;
    pass ``spawn_local_workers=False`` to host a server that waits for
    remote machines only.

    ``certify``/``certify_regions`` are safe to call from any number of
    threads at once: each call is one *sweep*, multiplexed over the
    shared worker pool by the router thread (see the module docstring).

    ``timeout_seconds`` keeps its pool meaning — the bound on waiting
    for *any* shard of one sweep to complete — but here expiry first
    exhausts the lease/retry machinery; it fires only when retries are
    exhausted or no worker makes progress at all, and it fails only the
    sweep that timed out.
    """

    def __init__(
        self,
        model: MonDEQ,
        config: Optional[CraftConfig] = None,
        num_workers: int = 2,
        batch_size: Optional[int] = None,
        cache_dir: Optional[str] = None,
        start_method: Optional[str] = None,
        timeout_seconds: float = 600.0,
        keep_abstractions: bool = False,
        service: Optional[ServiceConfig] = None,
        faults: Optional[FaultSpec] = None,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        authkey: bytes = DEFAULT_AUTHKEY,
        spawn_local_workers: bool = True,
    ):
        # Subclass state first: the base constructor eagerly calls
        # _ensure_pool(), which here starts the server + workers.
        self.service = service if service is not None else ServiceConfig()
        self.faults = faults
        self.authkey = authkey
        self.spawn_local_workers = spawn_local_workers
        self._requested_address = tuple(address)
        self.address: Optional[Tuple[str, int]] = None
        self._task_queue: "queue.Queue" = queue.Queue()
        self._result_queue: "queue.Queue" = queue.Queue()
        self._manager = None
        self._server = None
        self._server_thread: Optional[threading.Thread] = None
        self._local_workers: Dict[int, multiprocessing.Process] = {}
        self._generations: Dict[int, int] = {}
        self._worker_ids: Dict[int, str] = {}
        #: Guards every piece of router-shared state below (sweeps,
        #: leases, workers, requeues, stats).  RLock: router helpers
        #: call each other.
        self._lock = threading.RLock()
        self._sweeps: Dict[int, _SweepDispatch] = {}
        self._next_sweep_id = 0
        #: Worker ids whose *process* is confirmed gone (reaped), as
        #: opposed to merely lease-suspected: a suspected-hung worker may
        #: recover and keep contributing — rejecting its future claims
        #: would burn retry attempts on a healthy worker — but a crashed
        #: pid can never claim again, so its in-flight claim is stale by
        #: construction.
        self._crashed: Set[str] = set()
        self._requeue: List[Tuple[float, int, int]] = []
        self._router_thread: Optional[threading.Thread] = None
        self._router_error: Optional[BaseException] = None
        self._workers_started = False
        self._retires_pending = 0
        self._closing = False
        self.cluster_stats = ClusterStats()
        if start_method == "inline":
            raise ConfigurationError(
                "ClusterScheduler has no inline mode — its subject is the "
                "transport; use ShardedScheduler for inline runs"
            )
        self._autoscaler = QueueDepthAutoscaler(self.service.autoscale)
        super().__init__(
            model,
            config=config,
            num_workers=num_workers,
            batch_size=batch_size,
            cache_dir=cache_dir,
            start_method=start_method,
            timeout_seconds=timeout_seconds,
            keep_abstractions=keep_abstractions,
        )

    # ------------------------------------------------------------------
    # Server + worker lifecycle
    # ------------------------------------------------------------------

    @property
    def _inline(self) -> bool:
        # A 1-worker cluster still runs the TCP path — degrading to
        # inline would silently skip the machinery under test.
        return False

    def _ensure_pool(self):
        if self._closing:
            raise VerificationError("ClusterScheduler is closed")
        with self._lock:
            if self._server is None:
                control = _ClusterControl(self._payload())
                self._manager = _make_server_manager(
                    self._task_queue, self._result_queue, control,
                    self._requested_address, self.authkey,
                )
                # In-thread server (get_server), not manager.start(): no
                # extra process, and the queues stay plain local objects the
                # scheduler reads without a proxy round-trip.
                self._server = self._manager.get_server()
                self.address = tuple(self._server.address)
                self._server_thread = threading.Thread(
                    target=_serve_forever,
                    args=(self._server,),
                    name="repro-cluster-server",
                    daemon=True,
                )
                self._server_thread.start()
            if self._router_thread is None:
                self._router_thread = threading.Thread(
                    target=self._router_loop,
                    name="repro-cluster-router",
                    daemon=True,
                )
                self._router_thread.start()
            if self.spawn_local_workers and not self._workers_started:
                # Spawn the initial pool exactly once; afterwards the
                # router owns the population (fault respawns and scaling)
                # — re-filling here would undo a deliberate scale-down.
                self._workers_started = True
                initial = self.num_workers
                if self.service.autoscale.enabled:
                    initial = min(
                        max(initial, self.service.autoscale.min_workers),
                        self.service.autoscale.max_workers,
                    )
                for slot in range(initial):
                    self._spawn_worker(slot)
        return None

    def _spawn_worker(self, slot: int) -> None:
        generation = self._generations.get(slot, -1) + 1
        self._generations[slot] = generation
        context = multiprocessing.get_context(self.start_method)
        process = context.Process(
            target=run_cluster_worker,
            args=(
                self.address, self.authkey, slot, generation, self.faults,
                self.service.heartbeat_seconds,
            ),
            name=f"repro-cluster-worker-{slot}",
            daemon=True,
        )
        process.start()
        self._local_workers[slot] = process
        self._worker_ids[slot] = f"{slot}:{generation}:{process.pid}"

    def close(self) -> None:
        """Stop workers, the router and the TCP server (idempotent)."""
        self._closing = True
        if self._router_thread is not None:
            self._router_thread.join(timeout=5.0)
            self._router_thread = None
        try:
            self._task_queue.put(("stop",))
        except Exception:  # pragma: no cover - queue dead at shutdown
            pass
        for process in self._local_workers.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        self._local_workers.clear()
        if self._server is not None:
            try:
                if getattr(self._server, "stop_event", None) is not None:
                    self._server.stop_event.set()
                self._server.listener.close()
            except Exception:  # pragma: no cover - best-effort shutdown
                pass
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
            self._server = None
            self._server_thread = None

    # ------------------------------------------------------------------
    # Transport hooks (the waterfall in the base class drives these;
    # each concurrent certify() call holds its own _SweepDispatch token)
    # ------------------------------------------------------------------

    def _begin_dispatch(self) -> _SweepDispatch:
        with self._lock:
            self._check_router()
            sweep = _SweepDispatch(sweep_id=self._next_sweep_id)
            # Sweep ids are monotone across the scheduler's lifetime, so
            # a straggler result from a finished sweep can never alias a
            # fresh one — it lands in the duplicate bin.
            self._next_sweep_id += 1
            self._sweeps[sweep.sweep_id] = sweep
        return sweep

    def _submit_one(self, sweep: _SweepDispatch, shard: _Shard) -> None:
        with self._lock:
            task_id = sweep.next_task_id
            sweep.next_task_id += 1
            sweep.leases[task_id] = _TaskState(shard=shard)
            self.cluster_stats.tasks += 1
            self._task_queue.put(("task", (sweep.sweep_id, task_id), 1, shard))

    def _next_completed(self, sweep: _SweepDispatch) -> _ShardOutcome:
        deadline = time.monotonic() + self.timeout_seconds
        while True:
            try:
                kind, payload = sweep.completions.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                self._check_router()
                if self._closing:
                    raise VerificationError(
                        "ClusterScheduler closed while a sweep was in flight"
                    )
                if time.monotonic() >= deadline:
                    with self._lock:
                        sweep.failed = True
                        sweep.leases.clear()
                    raise VerificationError(
                        f"cluster certification timed out: no shard of sweep "
                        f"{sweep.sweep_id} completed within "
                        f"{self.timeout_seconds}s "
                        f"({len(self._local_workers)} local workers)"
                    ) from None
                continue
            if kind == "result":
                return payload
            # A routed failure: retries exhausted or a worker exception.
            # Only this sweep dies; the cluster keeps serving the others.
            raise VerificationError(payload)

    def _finish_dispatch(self, sweep: _SweepDispatch) -> None:
        with self._lock:
            self._sweeps.pop(sweep.sweep_id, None)
            sweep.leases.clear()

    def _check_router(self) -> None:
        if self._router_error is not None:
            raise VerificationError(
                f"cluster router crashed: {self._router_error!r}"
            )
        if (
            self._router_thread is not None
            and not self._router_thread.is_alive()
            and not self._closing
        ):  # pragma: no cover - defensive
            raise VerificationError("cluster router thread died")

    # ------------------------------------------------------------------
    # The router: one long-lived loop owning leases, health and scaling
    # ------------------------------------------------------------------

    def _router_loop(self) -> None:
        try:
            while not self._closing:
                with self._lock:
                    self._flush_requeues()
                    self._expire_leases()
                    self._reap_local_workers()
                    self._autoscale_tick()
                try:
                    message = self._result_queue.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    continue
                with self._lock:
                    self._route_message(message)
        except BaseException as error:  # pragma: no cover - defensive
            with self._lock:
                self._router_error = error
                for sweep in self._sweeps.values():
                    sweep.completions.put(
                        ("failure", f"cluster router crashed: {error!r}")
                    )

    def _route_message(self, message: Tuple) -> None:
        kind = message[0]
        if kind == "heartbeat":
            self.cluster_stats.heartbeats += 1
            return
        if kind == "retired":
            self._finish_retirement(message[2])
            return
        if kind == "claim":
            _, key, worker_id, _stamp = message
            sweep, state = self._lease_for(key)
            if state is None:
                return
            if worker_id in self._crashed:
                # The claimer was reaped before its claim drained
                # (a crash right after claiming): reassign now
                # instead of waiting out a lease nobody holds.
                self._schedule_retry(sweep, key[1], state)
            else:
                state.claimed_by = worker_id
                state.claim_expires = (
                    time.monotonic() + self.service.shard_timeout_seconds
                )
            return
        if kind == "error":
            _, key, worker_id, detail = message
            sweep, state = self._lease_for(key)
            if sweep is None:
                return
            self._fail_sweep(
                sweep,
                f"cluster worker {worker_id} failed shard {key[1]} of sweep "
                f"{sweep.sweep_id}: {detail}",
            )
            return
        # "result"
        _, key, worker_id, outcome = message
        sweep = self._sweeps.get(key[0])
        state = sweep.leases.pop(key[1], None) if sweep is not None else None
        if state is None:
            # A reassigned shard's original owner finally reported
            # (hang/drop recovery), or the owning sweep already finished
            # or failed: first result won, drop this one.
            self.cluster_stats.duplicates_dropped += 1
            return
        sweep.completions.put(("result", outcome))

    def _lease_for(
        self, key: Tuple[int, int]
    ) -> Tuple[Optional[_SweepDispatch], Optional[_TaskState]]:
        sweep = self._sweeps.get(key[0])
        if sweep is None:
            return None, None
        return sweep, sweep.leases.get(key[1])

    def _fail_sweep(self, sweep: _SweepDispatch, message: str) -> None:
        """Fail one sweep, leaving every other sweep (and the cluster
        itself) running.  Clearing the lease table turns the sweep's
        in-flight results into counted duplicates."""
        if sweep.failed:
            return
        sweep.failed = True
        sweep.leases.clear()
        sweep.completions.put(("failure", message))

    # ------------------------------------------------------------------
    # Fault recovery
    # ------------------------------------------------------------------

    def _expire_leases(self) -> None:
        """The health-check: a claim without a result inside the shard
        timeout marks its worker dead and reassigns the shard (plus any
        other shards that worker holds — no point waiting them out)."""
        now = time.monotonic()
        expired = [
            state
            for sweep in self._sweeps.values()
            for state in sweep.leases.values()
            if state.claim_expires is not None and now >= state.claim_expires
        ]
        for state in expired:
            self._mark_worker_dead(state.claimed_by)

    def _mark_worker_dead(self, worker_id: Optional[str]) -> None:
        if worker_id is None:  # pragma: no cover - defensive
            return
        self.cluster_stats.dead_workers.add(worker_id)
        for sweep in list(self._sweeps.values()):
            for task_id, state in list(sweep.leases.items()):
                if state.claimed_by == worker_id:
                    self._schedule_retry(sweep, task_id, state)

    def _reap_local_workers(self) -> None:
        """Fast path for crashed *local* workers: process liveness beats
        waiting out the lease.  Respawns the slot at the next generation
        when the service config allows.  A zero exit code is a clean
        leave — the stop sentinel or a retire pill — never a crash, so
        it is neither marked dead nor respawned (this is what keeps the
        reaper from resurrecting a deliberately retired worker when it
        notices the death before the ``retired`` message drains)."""
        if self._closing:
            return
        for slot, process in list(self._local_workers.items()):
            if process.is_alive():
                continue
            del self._local_workers[slot]
            if process.exitcode == 0:
                continue
            worker_id = self._worker_ids.get(slot)
            if worker_id is not None:
                self._crashed.add(worker_id)
            self._mark_worker_dead(worker_id)
            if self.spawn_local_workers and self.service.restart_workers:
                self._spawn_worker(slot)
                self.cluster_stats.respawns += 1

    def _schedule_retry(
        self, sweep: _SweepDispatch, task_id: int, state: _TaskState
    ) -> None:
        from repro.service.faults import retry_backoff

        if state.attempts >= self.service.retry_max_attempts:
            self._fail_sweep(
                sweep,
                f"shard {task_id} of sweep {sweep.sweep_id} failed after "
                f"{state.attempts} attempts (last worker: {state.claimed_by}) "
                f"— giving up",
            )
            return
        state.attempts += 1
        state.claimed_by = None
        state.claim_expires = None
        delay = retry_backoff(
            state.attempts - 1,
            self.service.retry_backoff_seconds,
            self.service.retry_backoff_factor,
            seed=self.faults.seed if self.faults is not None else 0,
        )
        self.cluster_stats.retries += 1
        heappush(
            self._requeue, (time.monotonic() + delay, sweep.sweep_id, task_id)
        )

    def _flush_requeues(self) -> None:
        now = time.monotonic()
        while self._requeue and self._requeue[0][0] <= now:
            _, sweep_id, task_id = heappop(self._requeue)
            sweep = self._sweeps.get(sweep_id)
            state = sweep.leases.get(task_id) if sweep is not None else None
            if state is None:
                continue  # resolved (or sweep gone) while waiting out the backoff
            self._task_queue.put(
                ("task", (sweep_id, task_id), state.attempts, state.shard)
            )

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------

    def _autoscale_tick(self) -> None:
        config = self.service.autoscale
        if not config.enabled or not self.spawn_local_workers or self._closing:
            return
        # Pills in flight occupy queue slots and still-live-but-leaving
        # workers occupy the pool; correct both out of the observation so
        # a pending retirement is never double-counted.
        depth = max(0, self._task_queue.qsize() - self._retires_pending)
        workers = len(self._local_workers) - self._retires_pending
        action = self._autoscaler.observe(depth, workers)
        if action == "grow":
            free = [
                slot
                for slot in range(max(config.max_workers, self.num_workers))
                if slot not in self._local_workers
            ]
            if not free:  # pragma: no cover - pending retires hold slots
                return
            self._spawn_worker(min(free))
            self.cluster_stats.scale_up_events += 1
        elif action == "shrink":
            self._retires_pending += 1
            self._task_queue.put(("retire",))
            self.cluster_stats.scale_down_events += 1

    def _finish_retirement(self, worker_id: str) -> None:
        self._retires_pending = max(0, self._retires_pending - 1)
        slot = int(worker_id.split(":", 1)[0])
        if self._worker_ids.get(slot) == worker_id:
            process = self._local_workers.pop(slot, None)
            if process is not None:
                # The worker exits right after acknowledging; reap it so
                # the slot is immediately reusable by a later grow.
                process.join(timeout=2.0)
