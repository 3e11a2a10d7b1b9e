"""Unit tests of the verdict cache's exact-key contract.

:class:`~repro.engine.cache.TieredVerdictCache` answers a lookup only from
the entry written for exactly that query: a contained region, a region
around a cached falsifying point, a nearby centre, another target, other
clip bounds or another model all miss and are certified afresh.  The
classes below pin that contract, the file-per-entry admission (one
complete file, no scratch left behind, every verdict field round-tripped,
torn and unstamped entries read as misses) and the key-set snapshot (the
mtime-gated ``refresh`` and the ``refresh_seconds`` staleness bound, which
never changes a key or a stamp).
"""

import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import CraftConfig
from repro.core.results import VerificationOutcome, VerificationResult
from repro.engine import BatchCertificationScheduler, ShardedScheduler
from repro.engine.cache import RegionQuery, TieredVerdictCache, config_fingerprint
from repro.verify.specs import ClassificationSpec, LinfBall

from strategies import FINITE

CONFIG = CraftConfig(slope_optimization="none")
DIGEST = "model-digest"


def _verdict(outcome=VerificationOutcome.VERIFIED, **fields):
    certified = outcome is VerificationOutcome.VERIFIED
    values = dict(
        outcome=outcome,
        contained=outcome is not VerificationOutcome.MISCLASSIFIED,
        certified=certified,
        margin=0.25 if certified else float("-inf"),
        iterations_phase1=4,
        iterations_phase2=3,
        time_seconds=0.02,
        stage="chzonotope",
        peak_error_terms=9,
    )
    values.update(fields)
    return VerificationResult(**values)


def _query(center=(0.5, 0.5, 0.5), epsilon=0.1, target=1, **clips):
    return RegionQuery(np.asarray(center, dtype=float), epsilon, target, **clips)


def _entries(directory):
    return sorted(os.listdir(directory))


class TestExactKeysOnly:
    def test_a_contained_region_misses(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        outer = _query(epsilon=0.2)
        cache.admit(outer, _verdict())
        for inner in (_query(epsilon=0.1), _query(center=(0.52, 0.5, 0.5), epsilon=0.05)):
            assert cache.lookup(inner) is None
        assert cache.lookup(outer).certified

    def test_a_falsified_point_refutes_no_other_region(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        point = _query(epsilon=1e-4)
        cache.admit(point, _verdict(VerificationOutcome.MISCLASSIFIED, stage=None))
        assert cache.lookup(_query(epsilon=0.1)) is None
        assert cache.lookup(point).outcome is VerificationOutcome.MISCLASSIFIED

    def test_an_unresolved_verdict_replays_for_its_own_query(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        query = _query()
        cache.admit(query, _verdict(VerificationOutcome.UNKNOWN))
        served = cache.lookup(query)
        assert served.outcome is VerificationOutcome.UNKNOWN
        assert not served.certified
        assert cache.lookup(_query(epsilon=0.05)) is None

    @settings(max_examples=25, deadline=None)
    @given(
        center=arrays(np.float64, (3,), elements=st.floats(0.0, 1.0, **FINITE)),
        jitter=arrays(np.float64, (3,), elements=st.floats(-1e-3, 1e-3, **FINITE)),
    )
    def test_nearby_centres_never_share_an_entry(self, tmp_path_factory, center, jitter):
        """Two centres share an entry exactly when their float64 bytes do."""
        cache = TieredVerdictCache(str(tmp_path_factory.mktemp("cache")), CONFIG, DIGEST)
        cache.admit(_query(center), _verdict())
        neighbour = center + jitter
        served = cache.lookup(_query(neighbour))
        assert (served is not None) == (neighbour.tobytes() == center.tobytes())

    def test_another_target_never_shares_an_entry(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        cache.admit(_query(target=0), _verdict())
        assert cache.lookup(_query(target=1)) is None
        assert cache.key(_query(target=0)) != cache.key(_query(target=1))

    def test_clip_bounds_are_part_of_the_key(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        cache.admit(_query(), _verdict())
        for clips in ({"clip_max": None}, {"clip_min": None, "clip_max": None}, {"clip_min": 0.1}):
            assert cache.lookup(_query(**clips)) is None
        assert cache.lookup(_query(clip_min=0.0, clip_max=1.0)) is not None

    def test_another_model_never_shares_an_entry(self, tmp_path):
        writer = TieredVerdictCache(str(tmp_path), CONFIG, "model-a")
        writer.admit(_query(), _verdict())
        reader = TieredVerdictCache(str(tmp_path), CONFIG, "model-b")
        assert reader.lookup(_query()) is None
        assert TieredVerdictCache(str(tmp_path), CONFIG, "model-a").lookup(_query()) is not None


class TestRegionQuery:
    def test_from_ball_mirrors_the_ball(self):
        rng = np.random.default_rng(11)
        for clips in ({}, {"clip_min": None, "clip_max": None}, {"clip_min": -0.5, "clip_max": 2.0}):
            center = rng.uniform(-0.5, 1.5, size=4)
            ball = LinfBall(center=center, epsilon=0.3, **clips)
            query = RegionQuery.from_ball(ball, ClassificationSpec(target=2, num_classes=3))
            assert query.center.tobytes() == np.asarray(ball.center, dtype=float).tobytes()
            assert (query.epsilon, query.target) == (0.3, 2)
            assert (query.clip_min, query.clip_max) == (ball.clip_min, ball.clip_max)

    def test_the_centre_is_keyed_as_a_flat_float64_vector(self, tmp_path):
        """A list, an integer array, a float32 array and a column of the
        same values are one query."""
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        reference = cache.key(RegionQuery(np.array([1.0, 0.0, 0.5]), 0.1, 1))
        for center in ([1, 0, 0.5], np.array([1.0, 0.0, 0.5], dtype=np.float32),
                       np.array([[1.0], [0.0], [0.5]])):
            assert cache.key(RegionQuery(center, 0.1, 1)) == reference


class TestAdmission:
    def test_admit_publishes_one_complete_file_and_no_scratch(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        key = cache.admit(_query(), _verdict())
        assert _entries(tmp_path) == [f"{key}.json"]
        with open(tmp_path / f"{key}.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["signature"] == config_fingerprint(CONFIG)
        assert (payload["stage"], payload["peak_error_terms"]) == ("chzonotope", 9)
        # The key pins the query, so the payload records no region.
        assert not {"center", "epsilon", "target", "clip_min", "clip_max"} & set(payload)

    def test_readmitting_a_query_replaces_its_entry(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        cache.admit(_query(), _verdict(VerificationOutcome.UNKNOWN))
        cache.admit(_query(), _verdict())
        assert len(_entries(tmp_path)) == 1
        assert cache.lookup(_query()).certified

    @pytest.mark.parametrize("outcome", list(VerificationOutcome))
    def test_every_verdict_field_round_trips(self, tmp_path, outcome):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        live = _verdict(
            outcome, selected_alpha2=0.05, selected_solver2="fb",
            slope_optimized=True, notes="live",
        )
        cache.admit(_query(), live)
        served = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST).lookup(_query())
        for name in (
            "outcome", "contained", "certified", "margin", "iterations_phase1",
            "iterations_phase2", "time_seconds", "selected_alpha2",
            "selected_solver2", "slope_optimized", "stage", "peak_error_terms",
        ):
            assert getattr(served, name) == getattr(live, name), name
        assert served.notes == "live [cached]"
        assert served.cached and served.cache_tier == "disk"
        assert not live.cached and live.cache_tier is None

    def test_a_torn_entry_reads_as_a_miss_until_replaced(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        (tmp_path / f"{cache.key(_query())}.json").write_text('{"outcome": "verif')
        cache.refresh(force=True)
        assert cache.lookup(_query()) is None
        cache.admit(_query(), _verdict())
        assert cache.lookup(_query()).certified

    def test_an_unstamped_entry_is_rejected(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        key = cache.admit(_query(), _verdict())
        path = tmp_path / f"{key}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["signature"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.lookup(_query()) is None

    def test_an_entry_deleted_after_the_snapshot_reads_as_a_miss(self, tmp_path):
        cache = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        key = cache.admit(_query(), _verdict())
        os.remove(tmp_path / f"{key}.json")
        assert cache.lookup(_query()) is None

    def test_a_missing_directory_is_created(self, tmp_path):
        directory = tmp_path / "a" / "b"
        cache = TieredVerdictCache(str(directory), CONFIG, DIGEST)
        assert directory.is_dir()
        cache.admit(_query(), _verdict())
        assert cache.lookup(_query()) is not None


class TestSnapshot:
    def test_refresh_is_gated_on_the_directory_mtime(self, tmp_path):
        # An mtime well outside the racy window, so the snapshot is stable.
        old = time.time() - 60.0
        os.utime(tmp_path, (old, old))
        reader = TieredVerdictCache(str(tmp_path), CONFIG, DIGEST)
        scans = reader.scans
        assert not reader.refresh()
        assert reader.scans == scans
        assert reader.refresh(force=True)
        assert reader.scans == scans + 1

        TieredVerdictCache(str(tmp_path), CONFIG, DIGEST).admit(_query(), _verdict())
        assert reader.lookup(_query()) is None  # not in the snapshot yet
        assert reader.refresh()
        assert reader.lookup(_query()) is not None

    def test_a_lookup_refreshes_only_past_the_staleness_bound(self, tmp_path):
        views = {
            seconds: TieredVerdictCache(str(tmp_path), CONFIG, DIGEST, refresh_seconds=seconds)
            for seconds in (None, 3600.0, 0.0)
        }
        scans = {seconds: view.scans for seconds, view in views.items()}
        TieredVerdictCache(str(tmp_path), CONFIG, DIGEST).admit(_query(), _verdict())
        served = {seconds: view.lookup(_query()) is not None for seconds, view in views.items()}
        assert served == {None: False, 3600.0: False, 0.0: True}
        assert {seconds: view.scans - scans[seconds] for seconds, view in views.items()} == {
            None: 0, 3600.0: 0, 0.0: 1,
        }

    def test_refresh_seconds_never_changes_keys_or_stamps(self, tmp_path):
        """The schedulers' views and the frontend's share one directory."""
        views = [
            TieredVerdictCache(str(tmp_path), CONFIG, DIGEST, refresh_seconds=seconds)
            for seconds in (None, 0.0, 0.25)
        ]
        assert len({view.key(_query()) for view in views}) == 1
        assert len({view.signature for view in views}) == 1
        views[0].admit(_query(), _verdict())
        for view in views:
            view.refresh()
            assert view.lookup(_query()).certified


@pytest.mark.parametrize("engine", ["batched", "sharded"])
def test_contained_children_are_certified_afresh(trained_mondeq, toy_data, tmp_path, engine):
    """A sweep at a smaller ε over the same rows answers nothing from the
    parents' entries, and its verdicts equal the cacheless sweep's."""
    xs, ys = toy_data
    rows = np.arange(120, 126)
    labels = ys[rows].astype(int)

    def scheduler(cache_dir):
        if engine == "batched":
            return BatchCertificationScheduler(
                trained_mondeq, CONFIG, batch_size=4, cache_dir=cache_dir
            )
        return ShardedScheduler(
            trained_mondeq, CONFIG, num_workers=2, batch_size=3,
            start_method="inline", cache_dir=cache_dir,
        )

    with scheduler(str(tmp_path)) as cached, scheduler(None) as cacheless:
        parents = cached.certify(xs[rows], labels, 0.05)
        assert parents.cache_hits == 0
        assert sum(result.certified for result in parents.results) > 0
        children = cached.certify(xs[rows], labels, 0.02)
        assert children.cache_hits == 0
        reference = cacheless.certify(xs[rows], labels, 0.02)
        assert [r.outcome for r in children.results] == [r.outcome for r in reference.results]
        assert [r.stage for r in children.results] == [r.stage for r in reference.results]
        assert cached.certify(xs[rows], labels, 0.02).cache_hits == len(rows)
