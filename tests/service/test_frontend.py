"""Property battery for the async admission frontend.

The frontend's contract is conservation under adversarial interleaving:
whatever order admissions, cancellations and deadline expiries land in,

* ``served + cancelled + expired == submitted`` per request (no lost and
  no duplicated cells),
* a deadline-expired cell carries **no verdict** — in particular an
  UNKNOWN that timed out is never reported as VERIFIED,
* every coalesced engine batch merges cells of exactly **one** batch
  signature (model fingerprint + config signature + epsilon + clips).

Hypothesis drives the interleavings against an instant fake backend (the
engine side of the contract is covered by the parity and cluster
batteries — here the subject is admission bookkeeping, so engine latency
is noise).  Everything runs through ``asyncio.run`` per example: no
async test plugins, deterministic loops.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frontend_support import OverlapProbe, collect

from repro.core.config import CraftConfig, ServiceConfig
from repro.core.results import VerificationOutcome, VerificationResult
from repro.engine.results import EngineReport
from repro.exceptions import ConfigurationError, VerificationError
from repro.mondeq.model import MonDEQ
from repro.service import frontend as frontend_module
from repro.service.frontend import CertificationFrontend

MODEL = MonDEQ.random(input_dim=4, latent_dim=5, output_dim=3, monotonicity=8.0, seed=21)
CONFIG_A = CraftConfig(slope_optimization="none")
CONFIG_B = CraftConfig(slope_optimization="none", domains=("box",))


def _verdict(certified: bool = True) -> VerificationResult:
    return VerificationResult(
        outcome=VerificationOutcome.VERIFIED if certified else VerificationOutcome.UNKNOWN,
        contained=certified,
        certified=certified,
        margin=1.0 if certified else -1.0,
        iterations_phase1=1,
        iterations_phase2=0,
        time_seconds=0.0,
        stage="box",
    )


class InstantBackend:
    """A scheduler-shaped stub: every cell VERIFIED, zero latency."""

    def __init__(self):
        self.calls = []

    def certify(self, xs, labels, epsilon, clip_min=0.0, clip_max=1.0):
        xs = np.atleast_2d(xs)
        self.calls.append((xs.shape[0], float(epsilon)))
        return EngineReport(results=[_verdict() for _ in range(xs.shape[0])])


def _frontend(**service_overrides) -> CertificationFrontend:
    service = ServiceConfig(max_batch_cells=8, **service_overrides)
    return CertificationFrontend(service=service)


#: One client operation of an interleaving.
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
    max_size=12,
)


async def _drive(operations):
    frontend = _frontend()
    backend_a, backend_b = InstantBackend(), InstantBackend()
    fp_a = frontend.register_model(MODEL, CONFIG_A, backend=backend_a)
    fp_b = frontend.register_model(MODEL, CONFIG_B, backend=backend_b)
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
    # Let the dispatcher and executor settle, then close (close itself
    # resolves anything still queued as cancelled — conservation holds
    # through shutdown too).
    for handle in handles:
        for _ in range(200):
            if handle.done.is_set():
                break
            await asyncio.sleep(0.005)
    await frontend.close()
    events = []
    for handle in handles:
        events.append(await collect(handle))
    return frontend, handles, events, fingerprints


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops)
def test_any_interleaving_conserves_verdicts(operations):
    frontend, handles, events, _ = asyncio.run(_drive(operations))
    for handle, request_events in zip(handles, events):
        assert handle.conserved()
        assert handle.failed == 0
        assert (
            handle.served + handle.cancelled + handle.expired == handle.total
        ), handle.counts
        assert len(request_events) == handle.total
        # Exactly one terminal event per cell.
        assert sorted(e.index for e in request_events) == list(range(handle.total))
    totals = frontend.stats
    assert totals.served + totals.cancelled + totals.expired == totals.submitted


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops)
def test_expired_cells_never_carry_a_verdict(operations):
    _, _, events, _ = asyncio.run(_drive(operations))
    for request_events in events:
        for event in request_events:
            if event.status in ("expired", "cancelled"):
                assert event.result is None
                assert not event.certified
            if event.status == "served":
                assert event.result is not None


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=_ops)
def test_coalesced_batches_merge_only_identical_signatures(operations):
    frontend, _, _, fingerprints = asyncio.run(_drive(operations))
    for row in frontend.dispatch_log:
        group = row["group"]
        # Every request in the batch targeted exactly the group's
        # (fingerprint, signature, epsilon, clips) — nothing else ever
        # rides along.
        for request_id in row["request_ids"]:
            assert fingerprints[request_id] == group[0]
        assert row["cells"] <= frontend.service.max_batch_cells


class TestDeadlineAndBudget:
    def test_zero_deadline_expires_unstarted_cells(self):
        """With a deadline already past at admission and a dispatcher
        that never gets to start them, cells expire verdict-free."""

        async def run():
            frontend = _frontend()
            fingerprint = frontend.register_model(
                MODEL, CONFIG_A, backend=InstantBackend()
            )
            # Pin the clock far in the future so the zero-second deadline
            # is unambiguously past when the dispatcher first sweeps.
            base = frontend.clock()
            frontend.clock = lambda: base + 100.0
            handle = await frontend.submit(
                fingerprint,
                np.full((3, MODEL.input_dim), 0.5),
                [0, 1, 2],
                0.05,
                deadline_seconds=0.0,
            )
            events = await collect(handle)
            await frontend.close()
            return handle, events

        handle, events = asyncio.run(run())
        assert handle.expired == handle.total == 3
        assert all(e.status == "expired" and e.result is None for e in events)

    def test_budget_cancels_excess_cells_cache_hits_free(self):
        async def run():
            frontend = _frontend()
            backend = InstantBackend()
            fingerprint = frontend.register_model(MODEL, CONFIG_A, backend=backend)
            handle = await frontend.submit(
                fingerprint,
                np.random.default_rng(1).uniform(0.2, 0.8, size=(5, MODEL.input_dim)),
                [0, 1, 2, 0, 1],
                0.05,
                budget_cells=2,
            )
            events = await collect(handle)
            await frontend.close()
            return backend, handle, events

        backend, handle, events = asyncio.run(run())
        assert handle.served == 2
        assert handle.cancelled == 3
        assert all(
            e.reason == "budget" for e in events if e.status == "cancelled"
        )
        assert sum(cells for cells, _ in backend.calls) == 2

    def test_cancel_spares_neighbouring_requests(self):
        """Cancelling one client removes only its queued cells; cells of
        other requests coalesced into the same group stay queued."""

        async def run():
            # A pass in flight on the only engine slot holds both
            # requests in the same group long enough to cancel one
            # before they leave.
            frontend = _frontend()
            fingerprint = frontend.register_model(
                MODEL, CONFIG_A, backend=OverlapProbe(delay_seconds=0.2)
            )
            blocker = await frontend.submit(
                fingerprint, np.full((1, MODEL.input_dim), 0.5), [0], 0.05
            )
            await asyncio.sleep(0.05)
            xs = np.random.default_rng(2).uniform(0.2, 0.8, size=(2, MODEL.input_dim))
            first = await frontend.submit(fingerprint, xs, [0, 1], 0.05)
            second = await frontend.submit(fingerprint, xs + 0.01, [1, 2], 0.05)
            removed = await frontend.cancel(first.request_id)
            first_events = await collect(first)
            second_events = await collect(second)
            await collect(blocker)
            await frontend.close()
            return removed, blocker, first, second, first_events, second_events, frontend

        removed, blocker, first, second, first_events, second_events, frontend = asyncio.run(
            run()
        )
        assert removed == 2
        assert first.cancelled == 2 and first.served == 0
        assert second.served == 2 and second.cancelled == 0
        assert all(e.status == "served" for e in second_events)
        # The batch that left after the blocker's pass contains only the
        # surviving request.
        rows = [r["request_ids"] for r in frontend.dispatch_log]
        assert rows == [[blocker.request_id], [second.request_id]]

    def test_a_cell_behind_a_busy_backend_expires_at_its_deadline(self):
        """A deadline bounds the wait behind a busy backend too: a cell
        queued behind a running pass expires at its deadline, verdict-free,
        instead of waiting for the pass and serving late."""

        async def run():
            frontend = _frontend(max_concurrent_batches=1)
            fingerprint = frontend.register_model(
                MODEL, CONFIG_A, backend=OverlapProbe(delay_seconds=0.3)
            )
            busy = await frontend.submit(
                fingerprint, np.full((1, MODEL.input_dim), 0.4), [0], 0.05
            )
            await asyncio.sleep(0.05)
            late = await frontend.submit(
                fingerprint, np.full((1, MODEL.input_dim), 0.6), [1], 0.05,
                deadline_seconds=0.05,
            )
            late_events = await collect(late)
            busy_events = await collect(busy)
            await frontend.close()
            return busy_events, late_events

        busy_events, late_events = asyncio.run(run())
        assert [event.status for event in busy_events] == ["served"]
        [event] = late_events
        assert event.status == "expired" and event.result is None
        assert event.reason == "deadline"
        # It expired while the 0.3 s pass it queued behind still ran.
        assert event.latency_seconds < 0.3

    def test_an_idle_backend_serves_under_a_frozen_clock(self):
        """Dispatch waits on no timer: with the injected clock frozen, a
        request to an idle backend is still served."""

        async def run():
            frontend = CertificationFrontend(clock=lambda: 100.0)
            fingerprint = frontend.register_model(MODEL, CONFIG_A, backend=InstantBackend())
            handle = await frontend.submit(
                fingerprint, np.full((2, MODEL.input_dim), 0.5), [0, 1], 0.05
            )
            events = await collect(handle, seconds=5.0)
            await frontend.close()
            return events

        events = asyncio.run(run())
        assert [event.status for event in events] == ["served", "served"]

    def test_unknown_fingerprint_rejected(self):
        async def run():
            frontend = _frontend()
            with pytest.raises(ConfigurationError):
                await frontend.submit("nope", np.zeros((1, 4)), [0], 0.05)
            await frontend.close()

        asyncio.run(run())


class TestAdmissionChecks:
    def test_a_malformed_request_is_rejected_before_it_joins_a_batch(self):
        """A request whose centres do not fit the model, or whose ball is
        invalid, raises at submit and admits nothing; the request it would
        have been coalesced with is still served."""

        async def run():
            frontend = _frontend()
            fingerprint = frontend.register_model(MODEL, CONFIG_A, backend=InstantBackend())
            xs = np.full((2, MODEL.input_dim), 0.5)
            good = await frontend.submit(fingerprint, xs, [0, 1], 0.05)
            with pytest.raises(VerificationError, match="dimension"):
                await frontend.submit(fingerprint, np.full((2, MODEL.input_dim + 1), 0.5), [0, 1], 0.05)
            for epsilon, clips in (
                (np.nan, {}), (-0.01, {}), (0.05, {"clip_min": 1.0, "clip_max": 0.0}),
            ):
                with pytest.raises(VerificationError):
                    await frontend.submit(fingerprint, xs, [0, 1], epsilon, **clips)
            events = await collect(good)
            await frontend.close()
            return frontend.stats, events

        stats, events = asyncio.run(run())
        assert [event.status for event in events] == ["served", "served"]
        assert stats.submitted == 2

    def test_a_bad_ball_is_rejected_even_when_every_row_is_misclassified(self):
        """The engines never check the ball of a row the prediction pass
        short-circuits; the frontend checks it at submit regardless."""
        xs = np.random.default_rng(5).uniform(0.3, 0.7, size=(3, MODEL.input_dim))
        wrong = (MODEL.predict_batch(xs).astype(int) + 1) % MODEL.output_dim

        async def run():
            frontend = _frontend()
            fingerprint = frontend.register_model(MODEL, CONFIG_A)
            for epsilon, clips in ((-0.01, {}), (0.05, {"clip_min": 1.0, "clip_max": 0.0})):
                with pytest.raises(VerificationError):
                    await frontend.submit(fingerprint, xs, wrong, epsilon, **clips)
            # The same rows at a valid radius are served as misclassified.
            events = await collect(await frontend.submit(fingerprint, xs, wrong, 0.05))
            await frontend.close()
            return frontend.stats, events

        stats, events = asyncio.run(run())
        assert [event.result.outcome for event in events] == [VerificationOutcome.MISCLASSIFIED] * 3
        assert stats.submitted == 3


class TestCacheFirstAdmission:
    def test_repeat_traffic_served_from_cache_without_engine(self, tmp_path, monkeypatch):
        """Second submission of the same cells: zero engine batches, all
        served with a cache tier, counted in the hit rate."""
        model = MODEL
        xs = np.random.default_rng(3).uniform(0.3, 0.7, size=(4, model.input_dim))
        labels = np.array([int(p) for p in model.predict_batch(xs)])
        # A zero staleness bound makes the frontend's cache view re-check
        # the directory on every lookup — the warm sweep must see the cold
        # sweep's entries without waiting out the bound.
        monkeypatch.setattr(frontend_module, "VIEW_REFRESH_SECONDS", 0.0)

        async def run():
            frontend = _frontend()
            fingerprint = frontend.register_model(
                model, CONFIG_A, cache_dir=str(tmp_path / "cache")
            )
            cold = await collect(await frontend.submit(fingerprint, xs, labels, 0.03))
            warm = await collect(await frontend.submit(fingerprint, xs, labels, 0.03))
            stats = frontend.stats
            await frontend.close()
            return cold, warm, stats

        cold, warm, stats = asyncio.run(run())
        assert all(e.status == "served" for e in cold + warm)
        assert all(e.cache_tier is not None for e in warm)
        assert stats.cache_hits == 4
        assert stats.hit_rate == pytest.approx(0.5)
        # Warm verdicts replay the cold ones exactly.
        cold_by_index = {e.index: e for e in cold}
        for event in warm:
            assert (
                event.result.outcome == cold_by_index[event.index].result.outcome
            )
