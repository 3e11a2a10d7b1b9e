"""The escalation waterfall's correctness contracts.

* **No-flip** — a ladder ending in ``chzonotope`` never flips a certified
  or falsified verdict relative to the pure CH-Zonotope sweep; ``Unknown``
  may only improve (cheap stages can add certificates, never remove one).
* **Stage accounting** — every resolved query records its resolving stage,
  the per-stage rows add up, and every scheduler runs every stage at one
  batch size.
* **Cache replay** — cached ladder verdicts carry their resolving stage
  and replay without re-climbing; interim (escalating) verdicts are never
  persisted by non-final shards.
* **Engine agreement** — the in-process scheduler, the sharded pool and
  the sequential climb produce the same verdicts.
"""

import numpy as np
import pytest

from repro.core.config import ContractionSettings, CraftConfig
from repro.core.results import VerificationOutcome, VerificationResult
from repro.engine import (
    DEFAULT_BATCH_SIZE,
    BatchCertificationScheduler,
    BatchedCraft,
    ShardedScheduler,
    should_escalate,
)
from repro.exceptions import ConfigurationError
from repro.verify.robustness import certify_local_robustness

LADDER = ("box", "zonotope", "chzonotope")


def _eval_set(toy_data, count=16):
    xs, ys = toy_data
    return xs[120 : 120 + count], ys[120 : 120 + count].astype(int)


def _config(**overrides):
    overrides.setdefault("domains", LADDER)
    overrides.setdefault("slope_optimization", "none")
    return CraftConfig(**overrides)


def _assert_no_flips(pure, ladder):
    __tracebackhide__ = True
    for p, l in zip(pure, ladder):
        # Falsified (misclassified) verdicts are domain-independent.
        assert (p.outcome == VerificationOutcome.MISCLASSIFIED) == (
            l.outcome == VerificationOutcome.MISCLASSIFIED
        )
        # Certified never flips to uncertified: the ladder's final stage is
        # the pure sweep's configuration, so escalation only adds.
        assert not (p.certified and not l.certified)


class TestShouldEscalate:
    def _result(self, outcome, certified=False):
        return VerificationResult(
            outcome=outcome, contained=False, certified=certified,
            margin=0.0 if certified else -1.0,
            iterations_phase1=0, iterations_phase2=0, time_seconds=0.0,
        )

    def test_resolved_verdicts_exit(self):
        assert not should_escalate(self._result(VerificationOutcome.VERIFIED, True))
        assert not should_escalate(self._result(VerificationOutcome.MISCLASSIFIED))

    def test_unresolved_verdicts_climb(self):
        for outcome in (
            VerificationOutcome.UNKNOWN,
            VerificationOutcome.NO_CONTAINMENT,
            VerificationOutcome.DIVERGED,
        ):
            assert should_escalate(self._result(outcome))


class TestLadderNoFlip:
    @pytest.mark.parametrize("epsilon", [1e-4, 0.05, 0.3])
    def test_ladder_never_flips_verdicts(self, trained_mondeq, toy_data, epsilon):
        xs, ys = _eval_set(toy_data)
        pure = certify_local_robustness(
            trained_mondeq, xs, ys, epsilon,
            CraftConfig(slope_optimization="none"), engine="batched",
        )
        ladder = certify_local_robustness(
            trained_mondeq, xs, ys, epsilon, _config(), engine="batched"
        )
        _assert_no_flips(pure, ladder)
        assert sum(r.certified for r in ladder) >= sum(r.certified for r in pure)

    def test_full_four_stage_ladder(self, trained_mondeq, toy_data):
        xs, ys = _eval_set(toy_data, count=10)
        pure = certify_local_robustness(
            trained_mondeq, xs, ys, 0.1,
            CraftConfig(slope_optimization="none"), engine="batched",
        )
        ladder = certify_local_robustness(
            trained_mondeq, xs, ys, 0.1,
            _config(domains=("box", "zonotope", "parallelotope", "chzonotope")),
            engine="batched",
        )
        _assert_no_flips(pure, ladder)

    def test_singleton_ladder_is_exactly_the_pure_sweep(self, trained_mondeq, toy_data):
        xs, ys = _eval_set(toy_data, count=8)
        pure = certify_local_robustness(
            trained_mondeq, xs, ys, 0.05,
            CraftConfig(slope_optimization="none"), engine="batched",
        )
        singleton = certify_local_robustness(
            trained_mondeq, xs, ys, 0.05,
            _config(domains=("chzonotope",)), engine="batched",
        )
        for p, s in zip(pure, singleton):
            assert p.outcome == s.outcome
            assert p.certified == s.certified
            if np.isfinite(p.margin) or np.isfinite(s.margin):
                assert p.margin == pytest.approx(s.margin, abs=1e-9)


class TestStageAccounting:
    def test_results_record_their_resolving_stage(self, trained_mondeq, toy_data):
        xs, ys = _eval_set(toy_data)
        results = BatchCertificationScheduler(trained_mondeq, _config()).certify(
            xs, ys, 0.3
        ).results
        for result in results:
            if result.outcome == VerificationOutcome.MISCLASSIFIED:
                assert result.stage is None
            else:
                assert result.stage in LADDER
                # A query resolved below the final stage must be certified
                # (only resolved verdicts stop the climb).
                if result.stage != LADDER[-1]:
                    assert result.certified

    def test_stage_stats_add_up(self, trained_mondeq, toy_data):
        xs, ys = _eval_set(toy_data)
        scheduler = BatchCertificationScheduler(trained_mondeq, _config())
        report = scheduler.certify(xs, ys, 0.3)
        results = report.results
        queued = sum(
            r.outcome != VerificationOutcome.MISCLASSIFIED for r in results
        )
        stats = {row.domain: row for row in scheduler.stage_stats}
        assert [row.as_row() for row in scheduler.stage_stats] == report.stages
        assert stats["box"].attempted == queued
        for lower, upper in zip(LADDER, LADDER[1:]):
            assert stats[lower].attempted == stats[lower].resolved + stats[lower].escalated
            assert stats[upper].attempted == stats[lower].escalated
        assert sum(s.certified for s in stats.values()) == sum(
            r.certified for r in results
        )

    @pytest.mark.parametrize("batch_size", [None, 5])
    def test_every_scheduler_runs_every_stage_at_one_batch_size(
        self, trained_mondeq, toy_data, batch_size
    ):
        """``batch_size=None`` means ``DEFAULT_BATCH_SIZE`` on every stage of
        every scheduler; an explicit size pins every stage."""
        xs, ys = _eval_set(toy_data, count=40)
        expected = DEFAULT_BATCH_SIZE if batch_size is None else batch_size
        config = CraftConfig.escalation(slope_optimization="none")
        scheduler = BatchCertificationScheduler(trained_mondeq, config, batch_size=batch_size)
        report = scheduler.certify(xs, ys, 0.3)
        with ShardedScheduler(
            trained_mondeq, config, num_workers=2, batch_size=batch_size, start_method="inline"
        ) as sharded:
            sharded_report = sharded.certify(xs, ys, 0.3)
        assert scheduler.batch_size == sharded.batch_size == expected
        for rows in (report.stages, sharded_report.stages):
            assert [row["domain"] for row in rows] == list(LADDER)
            assert [row["batch_size"] for row in rows] == [expected] * len(LADDER)
        # The in-process waterfall (one worker) cuts each stage's queries
        # into as few shards of at most that size as it can.
        assert report.stages[0]["attempted"] > 5
        for row in report.stages:
            assert row["batches"] == -(-row["attempted"] // expected)
        assert report.num_batches == sum(row["batches"] for row in report.stages)

    def test_scheduler_reports_stage_rows(self, trained_mondeq, toy_data):
        xs, ys = _eval_set(toy_data, count=8)
        report = BatchCertificationScheduler(trained_mondeq, _config()).certify(
            xs, ys, 0.3
        )
        assert [row["domain"] for row in report.stages] == list(LADDER)
        assert report.stage_counts  # at least one resolved stage
        row = report.as_row()
        assert row["stages"] == report.stages

    def test_batched_craft_rejects_ladder_configs(self, trained_mondeq):
        with pytest.raises(ConfigurationError, match="ladder"):
            BatchedCraft(trained_mondeq, _config())


class TestLadderCache:
    def test_cached_ladder_verdicts_replay_with_stage(
        self, trained_mondeq, toy_data, tmp_path
    ):
        xs, ys = _eval_set(toy_data, count=10)
        config = _config()
        cold = BatchCertificationScheduler(
            trained_mondeq, config, cache_dir=str(tmp_path)
        ).certify(xs, ys, 0.3)
        assert cold.cache_hits == 0
        warm = BatchCertificationScheduler(
            trained_mondeq, config, cache_dir=str(tmp_path)
        ).certify(xs, ys, 0.3)
        assert warm.cache_hits == len(xs)
        # No batches ran: cached verdicts replay without re-climbing.
        assert warm.num_batches == 0
        for c, w in zip(cold.results, warm.results):
            assert c.outcome == w.outcome
            assert c.stage == w.stage
            assert w.from_cache

    def test_interim_verdicts_are_not_persisted(
        self, trained_mondeq, toy_data, tmp_path
    ):
        """A non-final shard must not cache escalating verdicts — a crash
        mid-ladder would otherwise replay an interim Unknown as final."""
        import os
        import pickle

        from repro.engine.cache import RegionQuery
        from repro.engine.sharded import _Shard, _build_worker_state, _execute_shard
        from repro.verify.specs import ball_bounds

        xs, ys = _eval_set(toy_data, count=6)
        config = _config(
            # A one-iteration budget leaves every query unresolved in the
            # Box stage.
            contraction=ContractionSettings(max_iterations=1),
        )
        state = _build_worker_state(
            pickle.dumps((trained_mondeq, config, str(tmp_path), False))
        )
        queries = [
            RegionQuery(center=x, epsilon=0.3, target=int(y)) for x, y in zip(xs, ys)
        ]
        lower, upper = ball_bounds(xs, 0.3, 0.0, 1.0)
        shard = _Shard(
            indices=np.arange(len(xs)), centers=xs, lower=lower, upper=upper,
            targets=ys, anchors=None, queries=queries, domain="box", final=False,
        )
        indices, results, _, _ = _execute_shard(state, shard)
        assert indices.tolist() == list(range(len(xs)))
        assert all(result.stage == "box" for result in results)
        assert any(should_escalate(result) for result in results)
        for query, result in zip(queries, results):
            key = state.cache.key(query)
            entry_exists = os.path.exists(os.path.join(str(tmp_path), f"{key}.json"))
            assert entry_exists == (not should_escalate(result))


class TestEngineAgreement:
    @pytest.mark.parametrize("epsilon", [0.05, 0.3])
    def test_sequential_ladder_matches_batched(self, trained_mondeq, toy_data, epsilon):
        xs, ys = _eval_set(toy_data, count=8)
        config = _config()
        batched = certify_local_robustness(
            trained_mondeq, xs, ys, epsilon, config, engine="batched"
        )
        sequential = certify_local_robustness(
            trained_mondeq, xs, ys, epsilon, config, engine="sequential"
        )
        for bat, seq in zip(batched, sequential):
            assert bat.outcome == seq.outcome
            assert bat.certified == seq.certified
            assert bat.stage == seq.stage
            if np.isfinite(bat.margin) or np.isfinite(seq.margin):
                assert bat.margin == pytest.approx(seq.margin, abs=1e-9)

    @pytest.mark.tier1
    def test_sharded_ladder_matches_batched(self, trained_mondeq, toy_data):
        """The pool transport (the inline one under ``REPRO_SHARD_WORKERS=1``)
        against the in-process scheduler, over several shards per stage."""
        import os

        xs, ys = _eval_set(toy_data)
        config = _config()
        batched = certify_local_robustness(
            trained_mondeq, xs, ys, 0.3, config, engine="batched"
        )
        workers = int(os.environ.get("REPRO_SHARD_WORKERS", "2"))
        with ShardedScheduler(
            trained_mondeq, config, num_workers=workers, batch_size=3,
            start_method="inline" if workers == 1 else None,
        ) as scheduler:
            report = scheduler.certify(xs, ys, 0.3)
        for bat, sha in zip(batched, report.results):
            assert bat.outcome == sha.outcome
            assert bat.certified == sha.certified
            assert bat.stage == sha.stage
            if np.isfinite(bat.margin) or np.isfinite(sha.margin):
                assert bat.margin == pytest.approx(sha.margin, abs=1e-9)
        # The sharded waterfall reports per-stage rows too.
        assert [row["domain"] for row in report.stages] == list(LADDER)

    def test_splitting_certifier_accepts_ladders(self, trained_mondeq, toy_data):
        from repro.domains.interval import Interval
        from repro.verify.global_cert import DomainSplittingCertifier

        xs, _ = toy_data
        config = _config(contraction=ContractionSettings(max_iterations=200))
        region = Interval.from_center_radius(xs[120], 0.05)
        ladder = DomainSplittingCertifier(
            trained_mondeq, config, max_depth=1, engine="batched"
        ).certify_region(region)
        pure = DomainSplittingCertifier(
            trained_mondeq,
            CraftConfig(
                slope_optimization="none",
                contraction=ContractionSettings(max_iterations=200),
            ),
            max_depth=1,
            engine="batched",
        ).certify_region(region)
        assert ladder.coverage >= pure.coverage
        sequential = DomainSplittingCertifier(
            trained_mondeq, config, max_depth=1, engine="sequential"
        ).certify_region(region)
        assert ladder.coverage == pytest.approx(sequential.coverage, rel=1e-9)
