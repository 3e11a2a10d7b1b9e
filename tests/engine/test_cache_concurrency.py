"""Regression tests for verdict-cache concurrency and version stamping.

Two shard workers certifying *overlapping* region sets write the same
cache keys concurrently.  The cache relies on atomic per-entry
publication (writer-unique temporary file + ``os.replace``) instead of
file locking; these tests pin that no interleaving corrupts an entry,
that views in different processes serve each other's fresh entries, that
orphaned scratch files are swept, and that the version stamp inside each
entry rejects reads by a mismatched configuration.

All multiprocessing here is deterministically seeded through
``repro.utils.rng`` and guarded by join timeouts so a hung worker fails
the test fast instead of stalling CI.
"""

import json
import multiprocessing
import os
import shutil
import time

import numpy as np
import pytest

from repro.core.config import CraftConfig
from repro.engine import BatchCertificationScheduler, config_fingerprint
from repro.engine.cache import (
    RegionQuery,
    TieredVerdictCache,
    build_verdict_cache,
    weights_hash,
)
from repro.utils.rng import as_generator

JOIN_TIMEOUT_SECONDS = 300.0


def _certify_overlapping(model, config, xs, ys, cache_dir, barrier):
    """Worker body: wait on the barrier so both processes race, then sweep."""
    scheduler = BatchCertificationScheduler(
        model, config, batch_size=4, cache_dir=cache_dir
    )
    barrier.wait(timeout=JOIN_TIMEOUT_SECONDS)
    scheduler.certify(xs, ys, 0.05)


@pytest.fixture(scope="module")
def config():
    return CraftConfig(slope_optimization="none")


class TestConcurrentCacheWrites:
    def test_overlapping_workers_do_not_corrupt_the_cache(
        self, trained_mondeq, toy_data, config, tmp_path
    ):
        xs, ys = toy_data
        rng = as_generator(1234)
        pool = rng.permutation(np.arange(120, 140))
        # Two overlapping windows: 8 shared queries, 4 unique per worker.
        first = np.sort(pool[:12])
        second = np.sort(pool[4:16])
        cache_dir = str(tmp_path / "shared-cache")

        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        workers = [
            context.Process(
                target=_certify_overlapping,
                args=(trained_mondeq, config, xs[sel], ys[sel].astype(int), cache_dir, barrier),
            )
            for sel in (first, second)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=JOIN_TIMEOUT_SECONDS)
            assert worker.exitcode == 0, "cache-concurrency worker failed or hung"

        # Every entry must be complete, parseable JSON (atomic publication
        # guarantees no torn writes), with no leaked scratch files.
        entries = os.listdir(cache_dir)
        assert not [name for name in entries if name.endswith(".tmp")]
        union = np.union1d(first, second)
        assert len(entries) == len(union)
        for name in entries:
            with open(os.path.join(cache_dir, name), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            assert payload["signature"] == config_fingerprint(config)

        # A fresh scheduler must answer the whole union from the cache with
        # verdicts identical to an uncached single-process run.
        warm = BatchCertificationScheduler(
            trained_mondeq, config, batch_size=8, cache_dir=cache_dir
        ).certify(xs[union], ys[union].astype(int), 0.05)
        assert warm.cache_hits == len(union)
        clean = BatchCertificationScheduler(trained_mondeq, config, batch_size=8).certify(
            xs[union], ys[union].astype(int), 0.05
        )
        for cached, fresh in zip(warm.results, clean.results):
            assert cached.outcome == fresh.outcome
            assert cached.certified == fresh.certified
            assert cached.contained == fresh.contained
            if np.isfinite(fresh.margin):
                assert cached.margin == pytest.approx(fresh.margin, abs=1e-12)


def _serve_peer_then_admit(model, config, xs, ys, cache_dir, peer_row, own_row, out):
    """Second-process body: a fresh cache view must serve the first
    process's already-published entry, then publish its own."""
    cache = build_verdict_cache(cache_dir, config, model)
    peer = RegionQuery(center=xs[peer_row], epsilon=0.05, target=int(ys[peer_row]))
    served_peer = cache.lookup(peer) is not None
    BatchCertificationScheduler(
        model, config, batch_size=2, cache_dir=cache_dir
    ).certify(xs[own_row : own_row + 1], ys[own_row : own_row + 1].astype(int), 0.05)
    out.put(served_peer)


class TestCrossProcessStaleness:
    """Regression for the long-lived-view staleness bug: a
    ``TieredVerdictCache`` snapshotted its directory once and never saw
    entries published afterwards by other processes.  With
    ``refresh_seconds`` armed, lookups re-check the directory mtime and
    rescan when it moved — so two service processes admitting
    interleaved entries serve *each other's* fresh verdicts."""

    def test_interleaved_admits_serve_each_others_entries(
        self, trained_mondeq, toy_data, config, tmp_path
    ):
        xs, ys = toy_data
        cache_dir = str(tmp_path / "shared")
        first_row, second_row = 100, 101

        # Both parent views snapshot the directory while it is EMPTY —
        # everything below arrives after their snapshots.
        auto = TieredVerdictCache(
            cache_dir, config, weights_hash(trained_mondeq), refresh_seconds=0.0
        )
        frozen = build_verdict_cache(cache_dir, config, trained_mondeq)

        # Process 1 (this one) admits entry A ...
        BatchCertificationScheduler(
            trained_mondeq, config, batch_size=2, cache_dir=cache_dir
        ).certify(
            xs[first_row : first_row + 1], ys[first_row : first_row + 1].astype(int), 0.05
        )
        # ... process 2 serves A from a fresh view, then admits entry B.
        context = multiprocessing.get_context("fork")
        out = context.Queue()
        worker = context.Process(
            target=_serve_peer_then_admit,
            args=(trained_mondeq, config, xs, ys, cache_dir, first_row, second_row, out),
        )
        worker.start()
        worker.join(timeout=JOIN_TIMEOUT_SECONDS)
        assert worker.exitcode == 0
        assert out.get(timeout=10.0), "peer process missed the parent's entry"

        # Step past the racy-mtime window so the next rescan snapshot is
        # recorded as stable (see TieredVerdictCache.RACY_WINDOW_NS).
        time.sleep(0.06)
        second = RegionQuery(
            center=xs[second_row], epsilon=0.05, target=int(ys[second_row])
        )
        # The armed view auto-refreshes on lookup and serves B.
        assert auto.lookup(second) is not None
        # The per-sweep view still holds its stale snapshot: no serve
        # until its owner calls refresh() — the schedulers' contract.
        assert frozen.lookup(second) is None
        assert frozen.refresh() is True
        assert frozen.lookup(second) is not None

        # Unchanged directory: the mtime fast path answers without a
        # rescan, and refresh() reports nothing moved.
        scans_before = auto.scans
        assert auto.refresh() is False
        assert auto.lookup(second) is not None
        assert auto.scans == scans_before


class TestScratchFileHygiene:
    def test_stale_scratch_swept_fresh_scratch_kept(self, tmp_path):
        stale = tmp_path / "deadbeef.json.123.1.tmp"
        fresh = tmp_path / "cafef00d.json.456.1.tmp"
        stale.write_text("{}")
        fresh.write_text("{}")
        old = time.time() - 2 * TieredVerdictCache.STALE_TMP_SECONDS
        os.utime(stale, (old, old))

        TieredVerdictCache(str(tmp_path), CraftConfig(), "model-digest")
        assert not stale.exists()  # orphan from a killed worker: swept
        assert fresh.exists()  # possibly a live writer's scratch: kept


class TestVersionStamp:
    def test_mismatched_config_entries_are_rejected(
        self, trained_mondeq, toy_data, config, tmp_path
    ):
        """Entries written under config A must not be served to config B,
        even when a file sits under the key config B computes (a copied or
        renamed entry): the stamp inside the payload decides."""
        xs, ys = toy_data
        writer = BatchCertificationScheduler(
            trained_mondeq, config, batch_size=4, cache_dir=str(tmp_path)
        )
        writer.certify(xs[120:124], ys[120:124].astype(int), 0.05)
        queries = [
            RegionQuery(center=x, epsilon=0.05, target=int(y))
            for x, y in zip(xs[120:124], ys[120:124])
        ]

        matching = build_verdict_cache(str(tmp_path), config, trained_mondeq)
        other = config.with_updates(tighten_patience=7)
        mismatched = build_verdict_cache(str(tmp_path), other, trained_mondeq)
        for query in queries:
            assert matching.lookup(query) is not None
            assert mismatched.lookup(query) is None  # a different key
            shutil.copy(
                os.path.join(str(tmp_path), f"{matching.key(query)}.json"),
                os.path.join(str(tmp_path), f"{mismatched.key(query)}.json"),
            )
        assert mismatched.refresh(force=True)
        for query in queries:
            assert mismatched.lookup(query) is None  # the stamp does not match

    def test_fingerprint_tracks_verdict_relevant_fields(self, config):
        assert config_fingerprint(config) == config_fingerprint(
            config.with_updates(verbose=True)
        )
        for overrides in (
            {"alpha1": 0.2},
            {"tighten_patience": 3},
            {"use_box_component": False},
        ):
            assert config_fingerprint(config) != config_fingerprint(
                config.with_updates(**overrides)
            )
