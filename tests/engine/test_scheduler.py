"""Unit tests for the batch scheduler and the on-disk fixpoint cache."""

import numpy as np
import pytest

from repro.core.config import CraftConfig
from repro.engine.results import EngineReport
from repro.engine.cache import FixpointCache, weights_hash
from repro.engine.scheduler import BatchCertificationScheduler
from repro.exceptions import ConfigurationError


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
