"""Concurrent multi-sweep battery: the pipeline under interleaving.

The sweep-multiplexing PR's claims, pinned end to end:

* ``ClusterScheduler.certify`` is **concurrent-caller-safe**: any number
  of threads may run sweeps at once over one shared worker pool, and the
  exactly-once / zero-flip guarantees hold *per sweep* — including while
  a scripted fault kills a worker both sweeps depend on.
* The frontend's ``max_concurrent_batches`` bounds simultaneous engine
  passes per backend (a per-backend in-flight count, not a
  free-for-all), and at the default of ``1`` engine passes never
  overlap.  Dispatch is work-conserving: a group leaves as soon as its
  backend has a free slot, and cells coalesce only while every slot is
  busy.
* Conservation (``served + cancelled + expired + failed == submitted``
  per request) and the coalescing-signature invariant survive arbitrary
  interleavings of multi-model admissions with concurrent batches, which
  the hypothesis battery drives against a deliberately slow backend.
* Request state is reclaimed on terminal resolution and the dispatch
  log is bounded — a long-lived frontend does not leak.
"""

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frontend_support import COLLECT_SECONDS, OverlapProbe, collect

from repro.core.config import CraftConfig, ServiceConfig
from repro.engine.sharded import ShardedScheduler
from repro.mondeq.model import MonDEQ
from repro.service.cluster import ClusterScheduler
from repro.service import frontend as frontend_module
from repro.service.faults import FaultSpec
from repro.service.frontend import CertificationFrontend

EPSILON = 0.03

MODEL = MonDEQ.random(input_dim=4, latent_dim=5, output_dim=3, monotonicity=8.0, seed=21)
CONFIG_A = CraftConfig(slope_optimization="none")
CONFIG_B = CraftConfig(slope_optimization="none", domains=("box",))


# ----------------------------------------------------------------------
# Hypothesis: multi-model admission under concurrent batches
# ----------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=1, max_value=5),         # cells
            st.sampled_from([None, 0.0]),                  # deadline_seconds
            st.sampled_from([None, 0, 1, 3]),              # budget_cells
            st.sampled_from([0.02, 0.05]),                 # epsilon
            st.booleans(),                                 # config A / B
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("yield"), st.integers(min_value=1, max_value=3)),
    ),
    min_size=1,
    max_size=10,
)


async def _drive(operations, max_concurrent_batches):
    # Both models share one backend, so its slot bound is the binding
    # constraint the probe's peak is checked against.
    service = ServiceConfig(
        max_batch_cells=4,
        max_concurrent_batches=max_concurrent_batches,
    )
    frontend = CertificationFrontend(service=service)
    backend = OverlapProbe(delay_seconds=0.005)
    fp_a = frontend.register_model(MODEL, CONFIG_A, backend=backend)
    fp_b = frontend.register_model(MODEL, CONFIG_B, backend=backend)
    fingerprints = {}
    handles = []
    rng = np.random.default_rng(7)
    for operation in operations:
        if operation[0] == "submit":
            _, cells, deadline, budget, epsilon, use_b = operation
            fingerprint = fp_b if use_b else fp_a
            handle = await frontend.submit(
                fingerprint,
                rng.uniform(0.2, 0.8, size=(cells, MODEL.input_dim)),
                rng.integers(0, MODEL.output_dim, size=cells),
                epsilon,
                deadline_seconds=deadline,
                budget_cells=budget,
            )
            handles.append(handle)
            fingerprints[handle.request_id] = fingerprint
        elif operation[0] == "cancel":
            _, position = operation
            if handles:
                await frontend.cancel(handles[position % len(handles)].request_id)
        else:
            for _ in range(operation[1]):
                await asyncio.sleep(0)
    for handle in handles:
        for _ in range(400):
            if handle.done.is_set():
                break
            await asyncio.sleep(0.005)
    await frontend.close()
    events = [await collect(handle) for handle in handles]
    return frontend, backend, handles, events, fingerprints


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops, max_concurrent_batches=st.integers(min_value=1, max_value=3))
def test_interleaved_sweeps_conserve_verdicts(operations, max_concurrent_batches):
    frontend, backend, handles, events, fingerprints = asyncio.run(
        _drive(operations, max_concurrent_batches)
    )
    for handle, request_events in zip(handles, events):
        assert handle.conserved()
        assert handle.failed == 0
        assert (
            handle.served + handle.cancelled + handle.expired == handle.total
        ), handle.counts
        assert sorted(e.index for e in request_events) == list(range(handle.total))
    totals = frontend.stats
    assert totals.served + totals.cancelled + totals.expired == totals.submitted
    # The slot bound held: the shared backend never saw more than the
    # configured number of simultaneous passes.
    assert backend.peak <= max_concurrent_batches
    assert frontend.stats.concurrent_batches_peak <= max_concurrent_batches
    # Coalescing stays structural under concurrency: every batch row
    # merges requests of exactly its group's fingerprint.
    for row in frontend.dispatch_log:
        for request_id in row["request_ids"]:
            assert fingerprints[request_id] == row["group"][0]
        assert row["cells"] <= frontend.service.max_batch_cells


# ----------------------------------------------------------------------
# The slot bound, deterministically at both extremes
# ----------------------------------------------------------------------

class TestConcurrentBatchBound:
    @staticmethod
    async def _burst(max_concurrent_batches):
        service = ServiceConfig(max_concurrent_batches=max_concurrent_batches)
        frontend = CertificationFrontend(service=service)
        backend = OverlapProbe(delay_seconds=0.05)
        fp_a = frontend.register_model(MODEL, CONFIG_A, backend=backend)
        fp_b = frontend.register_model(MODEL, CONFIG_B, backend=backend)
        rng = np.random.default_rng(3)
        handles = []
        # Two distinct signatures submitted back to back: two groups,
        # dispatchable simultaneously iff the bound allows.
        for fingerprint in (fp_a, fp_b):
            handles.append(
                await frontend.submit(
                    fingerprint,
                    rng.uniform(0.2, 0.8, size=(3, MODEL.input_dim)),
                    rng.integers(0, MODEL.output_dim, size=3),
                    EPSILON,
                )
            )
        for handle in handles:
            await collect(handle)
        stats = frontend.stats
        await frontend.close()
        return backend, stats

    def test_serialised_at_the_default(self):
        """``max_concurrent_batches=1`` reproduces the pre-concurrency
        contract: engine passes never overlap, even for distinct groups."""
        backend, stats = asyncio.run(self._burst(1))
        assert backend.calls == 2
        assert backend.peak == 1
        assert stats.concurrent_batches_peak == 1

    def test_distinct_groups_overlap_when_allowed(self):
        backend, stats = asyncio.run(self._burst(2))
        assert backend.calls == 2
        assert backend.peak == 2
        assert stats.concurrent_batches_peak == 2

    def test_cells_queued_behind_a_busy_backend_leave_together(self):
        """A request to an idle backend starts at once; the two requests
        that arrive while its pass runs coalesce into the next pass."""

        async def run():
            frontend = CertificationFrontend()
            fingerprint = frontend.register_model(
                MODEL, CONFIG_A, backend=OverlapProbe(delay_seconds=0.3)
            )
            handles = []
            for position in range(3):
                if position:
                    await asyncio.sleep(0.05)
                handles.append(
                    await frontend.submit(
                        fingerprint,
                        np.full((1, MODEL.input_dim), 0.3 + 0.1 * position),
                        [position],
                        EPSILON,
                    )
                )
            for handle in handles:
                await collect(handle)
            await frontend.close()
            return frontend, handles

        frontend, handles = asyncio.run(run())
        first, second, third = (handle.request_id for handle in handles)
        assert [row["cells"] for row in frontend.dispatch_log] == [1, 2]
        assert [row["request_ids"] for row in frontend.dispatch_log] == [
            [first], sorted([second, third]),
        ]
        assert all(handle.served == 1 for handle in handles)

    def test_a_client_that_answers_at_once_joins_the_queued_cells(self):
        """A pass frees its slot only once its verdicts are out, so the
        client it served submits its next request before the dispatcher
        wakes, and that request leaves with the cells queued behind the
        pass."""

        async def client(frontend, fingerprint, point, pause):
            await asyncio.sleep(pause)
            for request in range(2):
                handle = await frontend.submit(
                    fingerprint, np.full((1, MODEL.input_dim), point + 0.05 * request),
                    [0], EPSILON,
                )
                # Awaited directly: a wrapping task would wake this
                # client one loop turn after the dispatcher.
                await handle.collect()

        async def run():
            frontend = CertificationFrontend()
            fingerprint = frontend.register_model(
                MODEL, CONFIG_A, backend=OverlapProbe(delay_seconds=0.2)
            )
            # The first client's first pass runs alone; the second
            # client's first request queues behind it.
            await asyncio.wait_for(
                asyncio.gather(
                    client(frontend, fingerprint, 0.3, 0.0),
                    client(frontend, fingerprint, 0.6, 0.05),
                ),
                COLLECT_SECONDS,
            )
            await frontend.close()
            return frontend

        frontend = asyncio.run(run())
        assert [row["cells"] for row in frontend.dispatch_log] == [1, 2, 1]


# ----------------------------------------------------------------------
# Frontend state reclamation (the memory-leak satellite)
# ----------------------------------------------------------------------

class TestStateReclamation:
    def test_request_state_reclaimed_and_dispatch_log_bounded(self, monkeypatch):
        monkeypatch.setattr(frontend_module, "DISPATCH_LOG_LIMIT", 5)

        async def run():
            service = ServiceConfig(max_batch_cells=2)
            frontend = CertificationFrontend(service=service)
            backend = OverlapProbe(delay_seconds=0.0)
            fingerprint = frontend.register_model(MODEL, CONFIG_A, backend=backend)
            rng = np.random.default_rng(11)
            for _ in range(10):
                handle = await frontend.submit(
                    fingerprint,
                    rng.uniform(0.2, 0.8, size=(2, MODEL.input_dim)),
                    rng.integers(0, MODEL.output_dim, size=2),
                    EPSILON,
                )
                await collect(handle)
            state_size = len(frontend._handles)
            log = frontend.dispatch_log
            batches = frontend.stats.engine_batches
            await frontend.close()
            return state_size, log, batches

        state_size, log, batches = asyncio.run(run())
        # Every request resolved terminally, so no per-request state
        # survives — this is the unbounded-growth fix.
        assert state_size == 0
        assert batches == 10
        assert log.maxlen == 5
        assert len(log) == 5

    def test_poll_timeout_is_the_exact_next_deadline(self):
        """The dispatcher sleeps until the earliest queued deadline and
        otherwise parks on its wake event — no window and no 1–20 ms
        busy-poll."""

        async def run():
            clock = {"now": 100.0}
            frontend = CertificationFrontend(clock=lambda: clock["now"])
            fingerprint = frontend.register_model(
                MODEL, CONFIG_A, backend=OverlapProbe(delay_seconds=0.5)
            )
            assert frontend._poll_timeout() is None  # idle: park on the event
            await frontend.submit(
                fingerprint, np.full((1, MODEL.input_dim), 0.4), [0], EPSILON
            )
            await asyncio.sleep(0.01)
            # The idle backend took the cell at once, frozen clock and all.
            assert not frontend._groups
            assert frontend.stats.concurrent_batches_peak == 1
            # Queued behind the busy backend with no deadline: nothing
            # falls due before the pass ends and wakes the dispatcher.
            await frontend.submit(
                fingerprint, np.full((1, MODEL.input_dim), 0.5), [1], EPSILON
            )
            assert frontend._poll_timeout() is None
            await frontend.submit(
                fingerprint, np.full((1, MODEL.input_dim), 0.6), [2], EPSILON,
                deadline_seconds=0.3,
            )
            assert frontend._poll_timeout() == pytest.approx(0.3)
            clock["now"] = 100.2
            assert frontend._poll_timeout() == pytest.approx(0.1)
            # A past-due deadline clamps to an immediate wake, never negative.
            clock["now"] = 101.0
            assert frontend._poll_timeout() == 0.0
            await frontend.close()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Concurrent sweeps over one real cluster, faults included
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cluster_workloads():
    model = MonDEQ.random(
        input_dim=5, latent_dim=6, output_dim=3, monotonicity=8.0, seed=3
    )
    rng = np.random.default_rng(5)
    xs_a = rng.uniform(0.2, 0.8, size=(10, 5))
    xs_b = rng.uniform(0.2, 0.8, size=(10, 5))
    labels_a = np.array([int(p) for p in model.predict_batch(xs_a)])
    labels_b = np.array([int(p) for p in model.predict_batch(xs_b)])
    labels_a[2] = (labels_a[2] + 1) % 3
    labels_b[7] = (labels_b[7] + 1) % 3
    config = CraftConfig(slope_optimization="none")
    inline = ShardedScheduler(model, config, num_workers=1, start_method="inline")
    ref_a = [r.outcome for r in inline.certify(xs_a, labels_a, EPSILON).results]
    ref_b = [r.outcome for r in inline.certify(xs_b, labels_b, EPSILON).results]
    return model, config, (xs_a, labels_a, ref_a), (xs_b, labels_b, ref_b)


def _run_concurrent_sweeps(scheduler, workload_a, workload_b):
    xs_a, labels_a, _ = workload_a
    xs_b, labels_b, _ = workload_b
    barrier = threading.Barrier(2)
    reports, errors = {}, []

    def sweep(name, xs, labels):
        barrier.wait()
        try:
            reports[name] = scheduler.certify(xs, labels, EPSILON)
        except Exception as error:  # pragma: no cover - failure detail
            errors.append((name, error))

    threads = [
        threading.Thread(target=sweep, args=("a", xs_a, labels_a)),
        threading.Thread(target=sweep, args=("b", xs_b, labels_b)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
    assert not errors, errors
    return reports


class TestConcurrentClusterSweeps:
    def test_two_sweeps_interleave_with_zero_flips(self, cluster_workloads):
        """Two threads sweep one cluster simultaneously: each gets its
        own complete, bit-identical verdict set — the per-sweep
        exactly-once contract under interleaving."""
        model, config, workload_a, workload_b = cluster_workloads
        service = ServiceConfig(
            shard_timeout_seconds=8.0, retry_backoff_seconds=0.05,
            retry_backoff_factor=1.5,
        )
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=2,
            service=service, timeout_seconds=120.0,
        ) as scheduler:
            reports = _run_concurrent_sweeps(scheduler, workload_a, workload_b)
        for name, workload in (("a", workload_a), ("b", workload_b)):
            xs, _, reference = workload
            report = reports[name]
            assert len(report.results) == len(xs)
            assert all(result is not None for result in report.results)
            assert [r.outcome for r in report.results] == reference

    def test_two_sweeps_survive_a_worker_kill(self, cluster_workloads):
        """A scripted kill while both sweeps share the pool: the dead
        worker's claims are requeued per owning sweep, both sweeps
        finish, zero flips, exactly one verdict per cell."""
        model, config, workload_a, workload_b = cluster_workloads
        service = ServiceConfig(
            shard_timeout_seconds=8.0, retry_backoff_seconds=0.05,
            retry_backoff_factor=1.5,
        )
        # Slot 1 holds its first shard for a second, so slot 0 claims one
        # (and dies) even when it comes up after slot 1 could have
        # drained both sweeps alone.
        faults = FaultSpec(
            seed=17, scripted=((0, 0, "kill"), (1, 0, "delay")), delay_seconds=1.0
        )
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=2,
            service=service, faults=faults, timeout_seconds=120.0,
        ) as scheduler:
            reports = _run_concurrent_sweeps(scheduler, workload_a, workload_b)
            stats = scheduler.cluster_stats
        for name, workload in (("a", workload_a), ("b", workload_b)):
            xs, _, reference = workload
            report = reports[name]
            assert all(result is not None for result in report.results)
            assert [r.outcome for r in report.results] == reference
        # The kill really happened and recovery ran.
        assert stats.retries >= 1
        assert stats.respawns >= 1
        assert any(w.startswith("0:0:") for w in stats.dead_workers)
