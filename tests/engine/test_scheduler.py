"""Unit tests for the batch scheduler and the on-disk fixpoint cache."""

import sys
import threading

import numpy as np
import pytest

from repro.core.config import CraftConfig
from repro.engine.results import EngineReport
from repro.engine.cache import FixpointCache, weights_hash
from repro.engine.scheduler import BatchCertificationScheduler
from repro.exceptions import ConfigurationError
from repro.experiments.model_zoo import get_model


@pytest.fixture(scope="module")
def eval_set(toy_data):
    xs, ys = toy_data
    return xs[120:128], ys[120:128].astype(int)


@pytest.fixture(scope="module")
def config():
    return CraftConfig(slope_optimization="none")


class TestWeightsHash:
    def test_stable_across_copies(self, trained_mondeq):
        assert weights_hash(trained_mondeq) == weights_hash(trained_mondeq.copy())

    def test_sensitive_to_weight_changes(self, trained_mondeq):
        perturbed = trained_mondeq.copy()
        perturbed.u_weight[0, 0] += 1e-9
        assert weights_hash(trained_mondeq) != weights_hash(perturbed)


class TestFixpointCache:
    def test_key_depends_on_query_and_config(self, trained_mondeq, config):
        digest = weights_hash(trained_mondeq)
        center = np.zeros(trained_mondeq.input_dim)
        base = FixpointCache.query_key(digest, center, 0.05, 1, config, 0.0, 1.0)
        assert base == FixpointCache.query_key(digest, center, 0.05, 1, config, 0.0, 1.0)
        assert base != FixpointCache.query_key(digest, center, 0.06, 1, config, 0.0, 1.0)
        assert base != FixpointCache.query_key(digest, center + 1e-12, 0.05, 1, config, 0.0, 1.0)
        assert base != FixpointCache.query_key(digest, center, 0.05, 2, config, 0.0, 1.0)
        other_config = config.with_updates(alpha1=0.2)
        assert base != FixpointCache.query_key(digest, center, 0.05, 1, other_config, 0.0, 1.0)

    def test_missing_key_loads_none(self, tmp_path):
        cache = FixpointCache(str(tmp_path))
        assert cache.load("0" * 64) is None


class TestScheduler:
    def test_batch_size_validation(self, trained_mondeq, config):
        with pytest.raises(ConfigurationError):
            BatchCertificationScheduler(trained_mondeq, config, batch_size=0)

    def test_chunking_counts_batches(self, trained_mondeq, config, eval_set):
        xs, ys = eval_set
        scheduler = BatchCertificationScheduler(trained_mondeq, config, batch_size=3)
        report = scheduler.certify(xs, ys, 0.01)
        # Misclassified queries short-circuit in the shared prediction pass;
        # only the correctly classified residue is chunked into batches.
        queued = sum(
            trained_mondeq.predict(x) == y for x, y in zip(xs, ys.astype(int))
        )
        assert report.num_batches == -(-queued // 3)  # ceil(queued / 3)
        assert report.num_regions == len(xs)
        assert report.cache_hits == 0
        assert report.throughput > 0
        # Single-domain sweeps report a one-stage waterfall.
        assert [row["domain"] for row in report.stages] == [config.domain]
        assert report.stages[0]["attempted"] == queued

    def test_cache_round_trip(self, trained_mondeq, config, eval_set, tmp_path):
        xs, ys = eval_set
        cold = BatchCertificationScheduler(
            trained_mondeq, config, batch_size=8, cache_dir=str(tmp_path)
        )
        first = cold.certify(xs, ys, 0.01)
        assert first.cache_hits == 0

        warm = BatchCertificationScheduler(
            trained_mondeq, config, batch_size=8, cache_dir=str(tmp_path)
        )
        second = warm.certify(xs, ys, 0.01)
        assert second.cache_hits == len(xs)
        assert second.num_batches == 0
        for fresh, cached in zip(first.results, second.results):
            assert fresh.outcome == cached.outcome
            assert fresh.certified == cached.certified
            assert fresh.contained == cached.contained
            assert fresh.margin == pytest.approx(cached.margin, abs=1e-12) or (
                fresh.margin == -np.inf and cached.margin <= -1e300
            )
            assert "[cached]" in cached.notes

    def test_cache_misses_after_weight_update(self, trained_mondeq, config, eval_set, tmp_path):
        xs, ys = eval_set
        BatchCertificationScheduler(
            trained_mondeq, config, batch_size=8, cache_dir=str(tmp_path)
        ).certify(xs, ys, 0.01)
        perturbed = trained_mondeq.copy()
        perturbed.bias[0] += 1e-6
        report = BatchCertificationScheduler(
            perturbed, config, batch_size=8, cache_dir=str(tmp_path)
        ).certify(xs, ys, 0.01)
        assert report.cache_hits == 0

    def test_report_row(self, trained_mondeq, config, eval_set):
        xs, ys = eval_set
        scheduler = BatchCertificationScheduler(trained_mondeq, config, batch_size=8)
        row = scheduler.certify(xs, ys, 0.01).as_row()
        assert set(row) >= {"regions", "contained", "certified", "cache_hits", "batches", "time"}

    def test_empty_report(self):
        report = EngineReport()
        assert report.num_regions == 0
        assert report.throughput == 0.0
        assert np.isnan(report.mean_margin)


def _accounting(report):
    """A report's batch count and stage rows, without their timings."""
    rows = [
        {key: value for key, value in row.items() if key not in ("time", "consolidation_time")}
        for row in report.stages
    ]
    return report.num_batches, rows


def _hcas_sweeps(sizes, seed):
    """Disjoint jittered HCAS smoke sweeps of the given sizes."""
    model, dataset = get_model("HCAS-FCx100", "smoke")
    rng = np.random.default_rng(seed)
    total = sum(sizes)
    rows = rng.integers(0, dataset.x_test.shape[0], size=total)
    xs = np.clip(dataset.x_test[rows] + rng.uniform(-0.02, 0.02, (total, 3)), 0.0, 1.0)
    ys = dataset.y_test[rows].astype(int)
    bounds = np.cumsum([0, *sizes])
    return model, [(xs[a:b], ys[a:b]) for a, b in zip(bounds, bounds[1:])]


def _certify_at_once(scheduler, sweeps, epsilon):
    """Certify every sweep on its own thread, all released together, with a
    short switch interval so that the threads interleave finely."""
    reports = [None] * len(sweeps)
    barrier = threading.Barrier(len(sweeps))

    def run(position):
        barrier.wait()
        reports[position] = scheduler.certify(*sweeps[position], epsilon)

    threads = [threading.Thread(target=run, args=(position,)) for position in range(len(sweeps))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return reports


class TestConcurrentCallers:
    def test_two_threads_keep_their_own_accounting(self):
        """A 200-row and a 7-row HCAS sweep certified at once on one
        in-process scheduler each report their own stage rows and batch
        count, as the service frontend's ``max_concurrent_batches`` needs."""
        model, sweeps = _hcas_sweeps([200, 7], seed=8)
        scheduler = BatchCertificationScheduler(model, CraftConfig.escalation())
        alone = [scheduler.certify(x, y, 0.05) for x, y in sweeps]
        assert _accounting(alone[0]) != _accounting(alone[1])
        for _ in range(3):
            reports = _certify_at_once(scheduler, sweeps, 0.05)
            for report, reference in zip(reports, alone):
                assert _accounting(report) == _accounting(reference)
                assert [r.certified for r in report.results] == [
                    r.certified for r in reference.results
                ]

    def test_threads_share_one_cache_view(self, tmp_path):
        """Three threads on one cached scheduler: its shards admit into the
        scheduler's own cache view while the other threads look up, and no
        admission is lost."""
        model, sweeps = _hcas_sweeps([40, 40, 40], seed=9)
        config = CraftConfig.escalation()
        reference = [BatchCertificationScheduler(model, config).certify(x, y, 0.05) for x, y in sweeps]
        scheduler = BatchCertificationScheduler(model, config, cache_dir=str(tmp_path))
        reports = _certify_at_once(scheduler, sweeps, 0.05)
        for report, expected in zip(reports, reference):
            assert [r.outcome for r in report.results] == [r.outcome for r in expected.results]
            assert [r.stage for r in report.results] == [r.stage for r in expected.results]
        # Every row is answered by the cache (a dominating entry another
        # thread admitted first) or admitted exactly once.
        hits = sum(report.cache_hits for report in reports)
        assert len(list(tmp_path.glob("*.json"))) + hits == 120
        xs = np.concatenate([x for x, _ in sweeps])
        ys = np.concatenate([y for _, y in sweeps])
        assert scheduler.certify(xs, ys, 0.05).cache_hits == 120
