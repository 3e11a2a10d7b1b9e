"""Unit tests for the batch scheduler and the on-disk fixpoint cache."""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from repro.core.config import CraftConfig
from repro.engine.results import EngineReport
from repro.engine.cache import (
    RegionQuery,
    TieredVerdictCache,
    _config_signature,
    config_fingerprint,
    weights_hash,
)
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
    def test_key_depends_on_query_and_config(self, trained_mondeq, config, tmp_path):
        digest = weights_hash(trained_mondeq)
        cache = TieredVerdictCache(str(tmp_path), config, digest)
        center = np.zeros(trained_mondeq.input_dim)

        def key(center=center, epsilon=0.05, target=1, clip_max=1.0, cache=cache):
            return cache.key(RegionQuery(center, epsilon, target, 0.0, clip_max))

        # The documented formula, so entries written by earlier versions
        # of the library keep their keys.
        expected = hashlib.sha256()
        expected.update(digest.encode())
        expected.update(center.tobytes())
        expected.update(repr((0.05, 0.0, 1.0, 1)).encode())
        expected.update(_config_signature(config).encode())
        assert key() == expected.hexdigest()
        assert key() == key()
        assert key() != key(epsilon=0.06)
        assert key() != key(center=center + 1e-12)
        assert key() != key(target=2)
        assert key() != key(clip_max=None)
        other_config = config.with_updates(alpha1=0.2)
        assert key() != key(cache=TieredVerdictCache(str(tmp_path), other_config, digest))
        assert key() != key(cache=TieredVerdictCache(str(tmp_path), config, "other-model"))

    def test_missing_key_loads_none(self, config, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), config, "model-digest")
        assert cache.lookup(RegionQuery(np.zeros(3), 0.05, 1)) is None

    def test_a_payload_of_any_earlier_shape_replays_verbatim(self, config, tmp_path):
        """Entries keep their keys and stamps across payload shapes: the
        oldest shape (no resolving stage, no error-term count) and the
        shape that also recorded the query region both replay by exact
        key, field for field."""
        cache = TieredVerdictCache(str(tmp_path), config, "model-digest")
        oldest = {
            "outcome": "verified", "contained": True, "certified": True,
            "margin": 0.5, "iterations_phase1": 3, "iterations_phase2": 2,
            "time_seconds": 0.01, "selected_alpha2": 0.05,
            "selected_solver2": "fb", "slope_optimized": False,
            "notes": "", "signature": config_fingerprint(config),
        }
        with_region = dict(
            oldest, outcome="unknown", certified=False, margin=float("-inf"),
            stage="chzonotope", peak_error_terms=12,
            model_digest="model-digest", center=[0.5, 0.5, 0.5], epsilon=0.3,
            target=2, clip_min=0.0, clip_max=1.0,
        )
        for target, payload in enumerate((oldest, with_region)):
            query = RegionQuery(np.full(3, 0.5), 0.3, target)
            with open(tmp_path / f"{cache.key(query)}.json", "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            cache.refresh(force=True)
            served = cache.lookup(query)
            assert served.outcome.value == payload["outcome"]
            assert served.certified == payload["certified"]
            assert served.margin == payload["margin"]
            assert served.iterations_phase1 == 3 and served.iterations_phase2 == 2
            assert served.selected_alpha2 == 0.05 and served.selected_solver2 == "fb"
            assert served.stage == payload.get("stage")
            assert served.peak_error_terms == payload.get("peak_error_terms")
            assert served.cached and served.cache_tier == "disk"


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
        # The sweeps are disjoint, so no row hits, and every row's
        # admission lands.
        assert sum(report.cache_hits for report in reports) == 0
        assert len(list(tmp_path.glob("*.json"))) == 120
        xs = np.concatenate([x for x, _ in sweeps])
        ys = np.concatenate([y for _, y in sweeps])
        assert scheduler.certify(xs, ys, 0.05).cache_hits == 120
