"""Unit tests for the multi-process sharded certification scheduler.

Covers shard decomposition, worker-pool lifecycle across fork/spawn/inline
start methods, verdict parity against the single-process batched engine,
and the flake guard: every pool wait is bounded by ``timeout_seconds`` so
a hung worker terminates the pool and fails fast.

The small parity test is marked ``tier1``; the CI sharding matrix runs the
tier-1 suite with ``REPRO_SHARD_WORKERS`` set to exercise it under
different worker counts.
"""

import asyncio
import os
import time

import numpy as np
import pytest

from frontend_support import collect

from repro.core.config import CraftConfig
from repro.engine import BatchCertificationScheduler, ShardedScheduler
from repro.engine.sharded import default_num_workers, default_start_method
from repro.exceptions import ConfigurationError, VerificationError
from repro.service import CertificationFrontend
from repro.utils.rng import as_generator

SHARD_WORKERS = int(os.environ.get("REPRO_SHARD_WORKERS", "2"))


@pytest.fixture(scope="module")
def config():
    return CraftConfig(slope_optimization="none")


@pytest.fixture(scope="module")
def eval_set(toy_data):
    xs, ys = toy_data
    order = as_generator(99).permutation(np.arange(120, 136))
    return xs[order], ys[order].astype(int)


def _assert_same_verdicts(reference, candidate):
    __tracebackhide__ = True
    for ref, cand in zip(reference, candidate):
        assert ref.outcome == cand.outcome
        assert ref.contained == cand.contained
        assert ref.certified == cand.certified
        if np.isfinite(ref.margin) or np.isfinite(cand.margin):
            assert ref.margin == pytest.approx(cand.margin, abs=1e-9)
        else:
            assert ref.margin == cand.margin


class TestValidation:
    def test_rejects_bad_parameters(self, trained_mondeq, config):
        with pytest.raises(ConfigurationError):
            ShardedScheduler(trained_mondeq, config, num_workers=0)
        with pytest.raises(ConfigurationError):
            ShardedScheduler(trained_mondeq, config, batch_size=0)
        with pytest.raises(ConfigurationError):
            ShardedScheduler(trained_mondeq, config, start_method="threads")
        with pytest.raises(ConfigurationError):
            ShardedScheduler(trained_mondeq, config, timeout_seconds=0.0)

    def test_defaults_are_sane(self):
        assert default_num_workers() >= 1
        assert default_start_method() in ("fork", "spawn")


@pytest.mark.tier1
class TestShardedParity:
    def test_matches_batched_engine(self, trained_mondeq, config, eval_set):
        """Sharded verdicts equal the single-process batched engine's —
        the small parity check the CI sharding matrix runs per worker
        count (REPRO_SHARD_WORKERS)."""
        xs, ys = eval_set
        batched = BatchCertificationScheduler(
            trained_mondeq, config, batch_size=len(xs)
        ).certify(xs, ys, 0.05)
        with ShardedScheduler(
            trained_mondeq,
            config,
            num_workers=SHARD_WORKERS,
            batch_size=4,
            timeout_seconds=300.0,
        ) as scheduler:
            sharded = scheduler.certify(xs, ys, 0.05)
        _assert_same_verdicts(batched.results, sharded.results)
        assert sharded.num_regions == len(xs)
        assert sharded.num_batches >= 1


class TestShardDecomposition:
    def test_shards_split_to_keep_workers_busy(self, trained_mondeq, config, eval_set):
        """batch_size larger than the sweep must still produce one shard
        per worker, not serialise on a single giant shard."""
        xs, ys = eval_set
        with ShardedScheduler(
            trained_mondeq, config, num_workers=4, batch_size=1000,
            start_method="inline",
        ) as scheduler:
            report = scheduler.certify(xs, ys, 0.05)
        # Only queries surviving the misclassification short-circuit are
        # sharded; they must spread over all workers up to one query each.
        queued = sum(result.outcome.value != "misclassified" for result in report.results)
        assert queued >= 2
        assert report.num_batches == min(4, queued)

    def test_pool_reused_across_sweeps(self, trained_mondeq, config, eval_set):
        xs, ys = eval_set
        with ShardedScheduler(
            trained_mondeq, config, num_workers=2, batch_size=4,
            timeout_seconds=300.0,
        ) as scheduler:
            first = scheduler.certify(xs[:8], ys[:8], 0.05)
            pool = scheduler._pool
            second = scheduler.certify(xs[8:], ys[8:], 0.05)
            assert scheduler._pool is pool
        assert scheduler._pool is None
        reference = BatchCertificationScheduler(
            trained_mondeq, config, batch_size=8
        ).certify(xs, ys, 0.05)
        _assert_same_verdicts(reference.results, first.results + second.results)

    def test_strip_abstractions_for_verdict_only_sweeps(
        self, trained_mondeq, config, eval_set
    ):
        xs, ys = eval_set
        with ShardedScheduler(
            trained_mondeq, config, num_workers=2, batch_size=4,
            start_method="inline", keep_abstractions=False,
        ) as scheduler:
            report = scheduler.certify(xs[:6], ys[:6], 0.05)
        for result in report.results:
            assert result.fixpoint_abstraction is None
            assert result.output_element is None

    def test_spawn_start_method(self, trained_mondeq, config, eval_set):
        """Workers must also come up under spawn (fresh interpreters that
        re-import the library) — the portable start method."""
        xs, ys = eval_set
        with ShardedScheduler(
            trained_mondeq, config, num_workers=2, batch_size=2,
            start_method="spawn", timeout_seconds=300.0,
        ) as scheduler:
            spawned = scheduler.certify(xs[:4], ys[:4], 0.05)
        batched = BatchCertificationScheduler(
            trained_mondeq, config, batch_size=4
        ).certify(xs[:4], ys[:4], 0.05)
        _assert_same_verdicts(batched.results, spawned.results)


class TestGlobalCertSharded:
    def test_frontier_matches_batched_decomposition(self, trained_mondeq, toy_data):
        from repro.domains.interval import Interval
        from repro.verify.global_cert import DomainSplittingCertifier

        xs, _ = toy_data
        config = CraftConfig(slope_optimization="none")
        region = Interval.from_center_radius(xs[121], 0.08)
        batched = DomainSplittingCertifier(
            trained_mondeq, config, max_depth=2, engine="batched"
        ).certify_region(region)
        with DomainSplittingCertifier(
            trained_mondeq, config, max_depth=2, engine="sharded",
            num_workers=SHARD_WORKERS,
        ) as certifier:
            sharded = certifier.certify_region(region)

        def signature(result):
            return sorted(
                (tuple(cell.region.lower), cell.predicted_class, cell.certified, cell.depth)
                for cell in result.cells
            )

        assert signature(batched) == signature(sharded)
        assert batched.coverage == pytest.approx(sharded.coverage, rel=1e-9)


def _hang_forever(shard):  # pragma: no cover - runs in a sacrificial worker
    time.sleep(3600)


def _exit_at_once(shard):  # pragma: no cover - runs in a sacrificial worker
    os._exit(1)


class TestFlakeGuard:
    def test_hung_worker_pool_fails_fast(
        self, trained_mondeq, config, eval_set, monkeypatch
    ):
        """A worker that never returns must raise within the timeout and
        terminate the pool — never stall the suite."""
        import repro.engine.sharded as sharded_module

        monkeypatch.setattr(sharded_module, "_run_shard", _hang_forever)
        xs, ys = eval_set
        scheduler = ShardedScheduler(
            trained_mondeq, config, num_workers=2, batch_size=4,
            start_method="fork", timeout_seconds=1.0,
        )
        start = time.perf_counter()
        with pytest.raises(VerificationError, match="timed out"):
            scheduler.certify(xs[:4], ys[:4], 0.05)
        assert time.perf_counter() - start < 30.0
        assert scheduler._pool is None  # pool terminated, nothing leaked

    def test_dead_worker_pool_fails_fast(
        self, trained_mondeq, config, eval_set, monkeypatch
    ):
        """A worker that exits mid-shard loses its task for good
        (``multiprocessing.Pool`` does not resubmit it): the sweep must
        raise within the timeout, return no verdict and terminate the
        pool."""
        import repro.engine.sharded as sharded_module

        monkeypatch.setattr(sharded_module, "_run_shard", _exit_at_once)
        xs, ys = eval_set
        scheduler = ShardedScheduler(
            trained_mondeq, config, num_workers=2, batch_size=4,
            start_method="fork", timeout_seconds=1.0,
        )
        start = time.perf_counter()
        with pytest.raises(VerificationError, match="timed out"):
            scheduler.certify(xs[:4], ys[:4], 0.05)
        assert time.perf_counter() - start < 30.0
        assert scheduler._pool is None

    def test_dead_worker_fails_every_frontend_cell(
        self, trained_mondeq, config, eval_set, monkeypatch
    ):
        """Behind the service frontend, every cell of the batch whose pool
        worker exited resolves ``failed``; none is served."""
        import repro.engine.sharded as sharded_module

        monkeypatch.setattr(sharded_module, "_run_shard", _exit_at_once)
        xs, ys = eval_set
        scheduler = ShardedScheduler(
            trained_mondeq, config, num_workers=2, start_method="fork",
            timeout_seconds=1.0,
        )

        async def run():
            frontend = CertificationFrontend()
            fingerprint = frontend.register_model(trained_mondeq, config, backend=scheduler)
            handle = await frontend.submit(fingerprint, xs[:6], ys[:6], 0.05)
            events = await collect(handle)
            await frontend.close()
            return handle, events

        handle, events = asyncio.run(run())
        assert handle.failed == handle.total == 6
        assert handle.served == 0
        assert all(event.status == "failed" and event.result is None for event in events)
        assert scheduler._pool is None
