"""Differential fuzzing: sequential, batched and sharded paths must agree.

Hypothesis generates random monotone-DEQ models, input regions and
``CraftConfig``s (including the Table 4 ablation switches), then asserts the three execution strategies
return *exactly* the same verdicts — outcome, containment, certification,
selected tightening parameters — and margins/bounds within 1e-9.  The
sharded path runs through :class:`ShardedScheduler`'s inline mode with a
tiny shard width, so every example exercises multi-shard scattering and
per-sample early exit at hypothesis speed; real multi-process parity is
pinned by the seeded test at the bottom and by
``tests/engine/test_sharded.py``.

Cold-cache vs cache-hit runs are fuzzed too: a second sweep over the same
regions must answer entirely from the on-disk fixpoint cache with
identical verdicts, and the cache-on sweep must match the cacheless
engine verdict-for-verdict, cold and on a permuted warm replay alike.
Escalation waterfalls are fuzzed over random ladders
(ascending domain subsequences): the sequential per-sample climb, the
in-process ``BatchCertificationScheduler`` and the sharded waterfall over
several shards per stage must agree on verdicts *and* resolving stages.
"""

import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ContractionSettings, CraftConfig
from repro.engine import BatchedCraft, ShardedScheduler
from repro.verify.robustness import build_fixpoint_problem, certify_sample
from repro.verify.specs import ClassificationSpec, LinfBall

from strategies import (
    craft_configs,
    domain_ladders,
    epsilons,
    input_regions,
    mondeq_models,
)

BOUND_TOL = 1e-9

FUZZ = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _assert_agree(reference, candidate):
    __tracebackhide__ = True
    assert reference.outcome == candidate.outcome
    assert reference.contained == candidate.contained
    assert reference.certified == candidate.certified
    assert reference.selected_solver2 == candidate.selected_solver2
    assert reference.selected_alpha2 == candidate.selected_alpha2
    # Every engine must leave phase one after the same number of
    # iterations, not just reach the same verdict.
    assert reference.iterations_phase1 == candidate.iterations_phase1
    if np.isfinite(reference.margin) or np.isfinite(candidate.margin):
        assert reference.margin == pytest.approx(candidate.margin, abs=BOUND_TOL)
    else:
        assert reference.margin == candidate.margin
    ref_el = reference.output_element
    cand_el = candidate.output_element
    if ref_el is not None and cand_el is not None:
        ref_lower, ref_upper = ref_el.concretize_bounds()
        cand_lower, cand_upper = cand_el.concretize_bounds()
        bounds_close = np.allclose(
            ref_lower, cand_lower, atol=BOUND_TOL
        ) and np.allclose(ref_upper, cand_upper, atol=BOUND_TOL)
        if not bounds_close:
            # Phase two retains the best-margin iterate under a strict
            # ``>`` comparison.  When two successive iterates' margins tie
            # at ulp distance, the engines — whose stacked vs per-sample
            # BLAS pipelines differ in the last ulp — may legitimately
            # retain *different* (equally good) iterates, and the stored
            # output elements then differ by the iterate gap even though
            # every verdict-level field above already agreed.  Accept the
            # divergence only under a genuine tie: the reported best
            # margins must agree far below BOUND_TOL, which distinguishes
            # a tie-break (margins equal to ~1e-15) from a real parity
            # bug (margins move along with the element).
            tie_tol = 1e-12 * max(1.0, abs(reference.margin))
            assert abs(reference.margin - candidate.margin) <= tie_tol, (
                "output-element bounds diverged without a margin tie: "
                f"margins {reference.margin!r} vs {candidate.margin!r}, "
                f"lower {ref_lower} vs {cand_lower}, "
                f"upper {ref_upper} vs {cand_upper}"
            )


class TestDifferentialFuzzing:
    @FUZZ
    @given(
        model=mondeq_models(),
        config=craft_configs(),
        epsilon=epsilons(),
        data=st.data(),
    )
    def test_three_paths_agree(self, model, config, epsilon, data):
        xs = data.draw(input_regions(model.input_dim))
        # Mostly the predicted class (exercising real certification), one
        # deliberate mismatch (exercising the MISCLASSIFIED short-circuit).
        labels = np.array([int(model.predict(x)) for x in xs])
        labels[-1] = (labels[-1] + 1) % model.output_dim

        sequential = [
            certify_sample(model, x, int(label), epsilon, config)
            for x, label in zip(xs, labels)
        ]
        batched = BatchedCraft(model, config).certify(xs, labels, epsilon)
        with ShardedScheduler(
            model, config, num_workers=2, batch_size=2, start_method="inline"
        ) as scheduler:
            sharded = scheduler.certify(xs, labels, epsilon).results

        for seq, bat, sha in zip(sequential, batched, sharded):
            _assert_agree(seq, bat)
            _assert_agree(seq, sha)

    @FUZZ
    @given(
        model=mondeq_models(),
        config=craft_configs(),
        ladder=domain_ladders(),
        epsilon=epsilons(),
        data=st.data(),
    )
    def test_random_ladders_agree_across_engines(
        self, model, config, ladder, epsilon, data
    ):
        """Escalation waterfalls over random ladders: the sequential
        per-sample climb, the in-process BatchCertificationScheduler and
        the sharded waterfall (two shards per stage) must return the same
        verdicts — and, when the ladder ends in the fuzzed config's own
        domain family, the same no-flip guarantee the dedicated escalation
        tests pin."""
        from repro.engine import BatchCertificationScheduler

        config = replace(config, domains=ladder)
        xs = data.draw(input_regions(model.input_dim, count=3))
        labels = np.array([int(model.predict(x)) for x in xs])
        labels[-1] = (labels[-1] + 1) % model.output_dim

        sequential = [
            certify_sample(model, x, int(label), epsilon, config)
            for x, label in zip(xs, labels)
        ]
        batched = BatchCertificationScheduler(model, config).certify(xs, labels, epsilon).results
        with ShardedScheduler(
            model, config, num_workers=2, batch_size=2, start_method="inline"
        ) as scheduler:
            sharded = scheduler.certify(xs, labels, epsilon).results

        for seq, bat, sha in zip(sequential, batched, sharded):
            assert seq.stage == bat.stage == sha.stage
            _assert_agree(seq, bat)
            _assert_agree(seq, sha)

    @FUZZ
    @given(model=mondeq_models(), config=craft_configs(), epsilon=epsilons())
    def test_cold_cache_then_hits_agree(self, model, config, epsilon):
        rng = np.random.default_rng(17)
        xs = rng.uniform(-1.0, 1.0, size=(3, model.input_dim))
        labels = np.array([int(model.predict(x)) for x in xs])
        with tempfile.TemporaryDirectory() as cache_dir:
            with ShardedScheduler(
                model, config, num_workers=2, batch_size=2,
                start_method="inline", cache_dir=cache_dir,
            ) as scheduler:
                cold = scheduler.certify(xs, labels, epsilon)
                warm = scheduler.certify(xs, labels, epsilon)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(xs)
        assert warm.num_batches == 0
        for fresh, cached in zip(cold.results, warm.results):
            assert fresh.outcome == cached.outcome
            assert fresh.contained == cached.contained
            assert fresh.certified == cached.certified
            if np.isfinite(fresh.margin):
                assert fresh.margin == pytest.approx(cached.margin, abs=1e-12)
            assert "[cached]" in cached.notes

    @FUZZ
    @given(
        model=mondeq_models(),
        config=craft_configs(),
        epsilon=epsilons(),
        permutation_seed=st.integers(0, 2**16),
    )
    def test_cache_layouts_never_change_verdicts(
        self, model, config, epsilon, permutation_seed
    ):
        """The cache's one layout, a file per exact key, never changes a
        verdict: the cold cache-on sweep must equal the cacheless engine,
        and a warm replay over a *permuted* query order must equal the
        cold sweep.  Any deviation is a key collision or a torn entry."""
        from repro.engine import BatchCertificationScheduler

        rng = np.random.default_rng(23)
        xs = rng.uniform(-1.0, 1.0, size=(4, model.input_dim))
        labels = np.array([int(model.predict(x)) for x in xs])

        cacheless = BatchedCraft(model, config).certify(
            xs, labels, epsilon, clip_min=None, clip_max=None
        )
        with tempfile.TemporaryDirectory() as cache_dir:
            scheduler = BatchCertificationScheduler(
                model, config, batch_size=2, cache_dir=cache_dir
            )
            cold = scheduler.certify(
                xs, labels, epsilon, clip_min=None, clip_max=None
            )
            order = np.random.default_rng(permutation_seed).permutation(len(xs))
            warm = scheduler.certify(
                xs[order], labels[order], epsilon, clip_min=None, clip_max=None
            )
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(xs)
        for fresh, cached in zip(cacheless, cold.results):
            _assert_agree(fresh, cached)
        for position, original in enumerate(order):
            replayed = warm.results[position]
            reference = cold.results[original]
            assert reference.outcome == replayed.outcome
            assert reference.contained == replayed.contained
            assert reference.certified == replayed.certified
            if np.isfinite(reference.margin):
                assert reference.margin == pytest.approx(
                    replayed.margin, abs=1e-12
                )
            assert "[cached]" in replayed.notes


class TestStaggeredEarlyExit:
    def test_mixed_radius_regions_agree(self, trained_mondeq):
        """Mixed epsilons in one sweep exit phases at different iterations;
        the shard decomposition must not change any verdict."""
        from repro.core.craft import CraftVerifier

        model = trained_mondeq
        config = CraftConfig(
            slope_optimization="none",
            contraction=ContractionSettings(max_iterations=120, history_size=6),
            tighten_max_iterations=20,
        )
        rng = np.random.default_rng(3)
        centers = rng.uniform(0.0, 1.0, size=(6, model.input_dim))
        radii = [1e-5, 1e-3, 0.02, 0.1, 0.25, 0.4]
        balls = [
            LinfBall(center=c, epsilon=r, clip_min=None, clip_max=None)
            for c, r in zip(centers, radii)
        ]
        specs = [
            ClassificationSpec(target=int(model.predict(c)), num_classes=model.output_dim)
            for c in centers
        ]

        verifier = CraftVerifier(config)
        sequential = [
            verifier.solve(build_fixpoint_problem(model, ball, spec, config))
            for ball, spec in zip(balls, specs)
        ]
        batched = BatchedCraft(model, config).certify_regions(balls, specs)
        with ShardedScheduler(
            model, config, num_workers=3, batch_size=2, start_method="inline"
        ) as scheduler:
            sharded = scheduler.certify_regions(balls, specs)

        # The mixture must actually stagger phase exits across the sweep.
        assert len({r.iterations_phase1 for r in batched if r.contained}) >= 2
        for seq, bat, sha in zip(sequential, batched, sharded):
            _assert_agree(seq, bat)
            _assert_agree(seq, sha)

    def test_multiprocess_shards_match_inline(self, trained_mondeq, toy_data):
        """Seeded end-to-end check that real fork workers return the same
        verdicts as the inline shard path (the fuzzing reference)."""
        xs, ys = toy_data
        exs, eys = xs[120:132], ys[120:132].astype(int)
        config = CraftConfig(slope_optimization="none")
        kwargs = dict(num_workers=2, batch_size=3, timeout_seconds=300.0)
        with ShardedScheduler(
            trained_mondeq, config, start_method="inline", **kwargs
        ) as scheduler:
            inline = scheduler.certify(exs, eys, 0.05).results
        with ShardedScheduler(
            trained_mondeq, config, start_method="fork", **kwargs
        ) as scheduler:
            forked = scheduler.certify(exs, eys, 0.05).results
        for ref, cand in zip(inline, forked):
            _assert_agree(ref, cand)
