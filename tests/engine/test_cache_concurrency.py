"""Regression tests for fixpoint-cache concurrency and version stamping.

Two shard workers certifying *overlapping* region sets write the same
cache keys concurrently.  The cache design relies on atomic per-entry
publication (writer-unique temporary file + ``os.replace``) instead of
file locking; these tests pin that no interleaving corrupts an entry, and
that the version stamp inside each entry rejects reads by a mismatched
configuration — the invariant that carries the entire burden of proof now
that quantised keying and dominance lookups mean a key no longer pins the
exact query (see :mod:`repro.engine.cache`).  The dominance test below
additionally pins that concurrent admissions leave a *readable* dominance
index: a fresh reader over the racing workers' directory must ingest
every entry and serve contained child queries from it.

All multiprocessing here is deterministically seeded through
``repro.utils.rng`` and guarded by join timeouts so a hung worker fails
the test fast instead of stalling CI.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.config import CacheConfig, CraftConfig
from repro.engine import BatchCertificationScheduler, FixpointCache, config_fingerprint
from repro.engine.cache import weights_hash
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


class TestConcurrentDominanceAdmissions:
    def test_racing_admissions_leave_a_readable_dominance_index(
        self, trained_mondeq, toy_data, config, tmp_path
    ):
        """Two workers admitting overlapping region sets concurrently must
        produce a directory a fresh DominanceIndex can ingest whole — and
        a fresh tiered cache must answer strictly-contained child queries
        of the certified parents by dominance, with zero recomputation."""
        from repro.engine.cache import (
            RegionQuery,
            build_verdict_cache,
            payload_supports_dominance,
        )
        from repro.engine.cache_dominance import DominanceIndex

        xs, ys = toy_data
        rng = as_generator(99)
        pool = rng.permutation(np.arange(120, 140))
        first = np.sort(pool[:12])
        second = np.sort(pool[4:16])
        cache_dir = str(tmp_path / "dominance-cache")

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
            assert worker.exitcode == 0, "dominance-concurrency worker failed or hung"

        # Every published entry carries the post-1.5.0 dominance shape and
        # is ingested by a cold index — no torn or half-shaped entries.
        payloads = []
        for name in os.listdir(cache_dir):
            with open(os.path.join(cache_dir, name), "r", encoding="utf-8") as handle:
                payloads.append(json.load(handle))
        assert all(payload_supports_dominance(p) for p in payloads)
        index = DominanceIndex(
            cache_dir,
            signature=config_fingerprint(config),
            model_digest=weights_hash(trained_mondeq),
        )
        indexable = sum(
            p["outcome"] == "misclassified" or p["certified"] for p in payloads
        )
        assert len(index) == indexable
        assert index.skipped == 0

        # Child queries strictly inside the certified parents answer by
        # dominance from a fresh reader, without touching the engine.
        union = np.union1d(first, second)
        cache = build_verdict_cache(cache_dir, config, trained_mondeq)
        served_dominance = 0
        for row in union:
            parent = RegionQuery(
                center=xs[row], epsilon=0.05, target=int(ys[row])
            )
            verbatim = cache.lookup(parent)
            assert verbatim is not None  # literal replay of the parents
            child = RegionQuery(
                center=xs[row], epsilon=0.02, target=int(ys[row])
            )
            child_served = cache.lookup(child)
            if child_served is not None and child_served.cache_tier == "dominance":
                served_dominance += 1
        assert served_dominance > 0
        assert cache.stats.dominance_hits == served_dominance


def _serve_peer_then_admit(model, config, xs, ys, cache_dir, peer_row, own_row, out):
    """Second-process body: a fresh cache view must serve the first
    process's already-published entry, then publish its own."""
    from repro.engine.cache import RegionQuery, build_verdict_cache

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
    ``CacheConfig.refresh_seconds`` armed, lookups re-check the directory
    mtime and rescan when it moved — so two service processes admitting
    interleaved entries serve *each other's* fresh verdicts."""

    def test_interleaved_admits_serve_each_others_entries(
        self, trained_mondeq, toy_data, config, tmp_path
    ):
        from dataclasses import replace

        from repro.engine.cache import (
            RegionQuery,
            TieredVerdictCache,
            build_verdict_cache,
        )

        xs, ys = toy_data
        cache_dir = str(tmp_path / "shared")
        first_row, second_row = 100, 101

        # Both parent views snapshot the directory while it is EMPTY —
        # everything below arrives after their snapshots.
        auto = TieredVerdictCache(
            cache_dir,
            config,
            weights_hash(trained_mondeq),
            cache_config=replace(config.cache, refresh_seconds=0.0),
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
        old = time.time() - 2 * FixpointCache.STALE_TMP_SECONDS
        os.utime(stale, (old, old))

        FixpointCache(str(tmp_path))
        assert not stale.exists()  # orphan from a killed worker: swept
        assert fresh.exists()  # possibly a live writer's scratch: kept


class TestVersionStamp:
    def test_mismatched_config_entries_are_rejected(
        self, trained_mondeq, toy_data, config, tmp_path
    ):
        """Entries written under config A must not be served to config B,
        even when addressed by the *same* key (the quantised-keying
        scenario: keys may stop pinning the exact config)."""
        xs, ys = toy_data
        writer = BatchCertificationScheduler(
            trained_mondeq, config, batch_size=4, cache_dir=str(tmp_path)
        )
        writer.certify(xs[120:124], ys[120:124].astype(int), 0.05)
        keys = [name[: -len(".json")] for name in os.listdir(tmp_path)]
        assert keys

        matching = FixpointCache(str(tmp_path), signature=config_fingerprint(config))
        other = config.with_updates(tighten_patience=7)
        mismatched = FixpointCache(str(tmp_path), signature=config_fingerprint(other))
        for key in keys:
            assert matching.load(key) is not None
            assert mismatched.load(key) is None

    def test_fingerprint_tracks_verdict_relevant_fields(self, config):
        assert config_fingerprint(config) == config_fingerprint(
            config.with_updates(verbose=True)
        )
        assert config_fingerprint(config) == config_fingerprint(
            # The cache layout must never invalidate cached verdicts.
            config.with_updates(cache=CacheConfig(lru_entries=8))
        )
        for overrides in (
            {"alpha1": 0.2},
            {"tighten_patience": 3},
            {"use_box_component": False},
        ):
            assert config_fingerprint(config) != config_fingerprint(
                config.with_updates(**overrides)
            )

    def test_unstamped_cache_still_reads_entries(self, trained_mondeq, toy_data, config, tmp_path):
        """A signature-less FixpointCache (legacy construction) keeps
        working — the stamp check only arms when a signature is given."""
        xs, ys = toy_data
        BatchCertificationScheduler(
            trained_mondeq, config, batch_size=4, cache_dir=str(tmp_path)
        ).certify(xs[120:122], ys[120:122].astype(int), 0.05)
        legacy = FixpointCache(str(tmp_path))
        keys = [name[: -len(".json")] for name in os.listdir(tmp_path)]
        assert all(legacy.load(key) is not None for key in keys)
