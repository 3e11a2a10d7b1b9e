"""Batched-vs-sequential parity: the engine's core correctness contract.

For seeded sets of regions the batched driver must return identical
verdicts (outcome, containment, certification, selected tightening
parameters) and matching bounds (within 1e-9) to the per-sample sequential
``CraftVerifier`` loop — including batches whose samples exit early at
different iterations.

Phase-2 iteration *counts* are not compared here: margins agree to about
1e-16, and the phase-two stop rule could end the two loops a step apart
when its extrapolated margin lands within that of 0.  Equal counts on the
seeded corpora are pinned in ``tests/core/test_stop_rule.py``.
"""

import numpy as np
import pytest

from repro.core.config import ContractionSettings, CraftConfig
from repro.engine import BatchedCraft
from repro.exceptions import ConfigurationError
from repro.experiments.ablation import ABLATION_NAMES
from repro.verify.robustness import certify_local_robustness, certify_sample

BOUND_TOL = 1e-9


def _assert_result_parity(sequential, batched):
    __tracebackhide__ = True
    assert sequential.outcome == batched.outcome
    assert sequential.contained == batched.contained
    assert sequential.certified == batched.certified
    assert sequential.iterations_phase1 == batched.iterations_phase1
    assert sequential.selected_solver2 == batched.selected_solver2
    assert sequential.selected_alpha2 == batched.selected_alpha2
    if np.isfinite(sequential.margin) or np.isfinite(batched.margin):
        assert sequential.margin == pytest.approx(batched.margin, abs=BOUND_TOL)
    else:
        assert sequential.margin == batched.margin
    for seq_el, bat_el in (
        (sequential.output_element, batched.output_element),
        (
            sequential.fixpoint_abstraction.element
            if sequential.fixpoint_abstraction is not None
            else None,
            batched.fixpoint_abstraction.element
            if batched.fixpoint_abstraction is not None
            else None,
        ),
    ):
        assert (seq_el is None) == (bat_el is None)
        if seq_el is not None:
            seq_lower, seq_upper = seq_el.concretize_bounds()
            bat_lower, bat_upper = bat_el.concretize_bounds()
            np.testing.assert_allclose(seq_lower, bat_lower, atol=BOUND_TOL)
            np.testing.assert_allclose(seq_upper, bat_upper, atol=BOUND_TOL)


def _evaluation_set(model, toy_data, count=16):
    """The first ``count`` held-out points, labelled with ``model``'s own
    predictions so that every region reaches the abstract analysis (the
    trained toy model misclassifies 11 of the first 16 dataset labels)."""
    xs = toy_data[0][120 : 120 + count]
    return xs, model.predict_batch(xs)


class TestBatchedParity:
    @pytest.mark.parametrize("domain", ["chzonotope", "box", "zonotope"])
    @pytest.mark.parametrize("epsilon", [1e-4, 0.05, 0.5])
    def test_verdicts_identical_to_sequential_loop(
        self, trained_mondeq, toy_data, epsilon, domain
    ):
        """≥16 seeded regions per domain: identical verdicts, bounds within 1e-9."""
        xs, ys = _evaluation_set(trained_mondeq, toy_data)
        assert xs.shape[0] >= 16
        config = CraftConfig(domains=(domain,), slope_optimization="none")
        sequential = [
            certify_sample(trained_mondeq, x, int(y), epsilon, config)
            for x, y in zip(xs, ys)
        ]
        batched = BatchedCraft(trained_mondeq, config).certify(xs, ys, epsilon)
        for seq, bat in zip(sequential, batched):
            _assert_result_parity(seq, bat)

    def test_early_exit_mixture(self, trained_mondeq, toy_data):
        """Samples certifying at different iterations (and some never) share
        one batch without influencing each other."""
        xs, ys = _evaluation_set(trained_mondeq, toy_data)
        # At a tiny radius a query exits phase two on its first usable
        # iteration; at a large one some batch mates keep iterating.
        config = CraftConfig(slope_optimization="none")
        craft = BatchedCraft(trained_mondeq, config)
        for epsilon in (1e-5, 0.3):
            sequential = [
                certify_sample(trained_mondeq, x, int(y), epsilon, config) for x, y in zip(xs, ys)
            ]
            batched = craft.certify(xs, ys, epsilon)
            for seq, bat in zip(sequential, batched):
                _assert_result_parity(seq, bat)
            # The mixture must actually exercise staggered early exit — at
            # the tiny radius samples leave phase one at different
            # iterations, at the large radius certified samples leave phase
            # two before the stragglers that the stop rule ends.
            if epsilon == 1e-5:
                assert len({r.iterations_phase1 for r in batched if r.contained}) >= 2
            else:
                assert len({r.iterations_phase2 for r in batched if r.contained}) >= 2

    def test_parity_under_adaptive_line_search_and_slopes(self, trained_mondeq, toy_data):
        xs, ys = _evaluation_set(trained_mondeq, toy_data)
        config = CraftConfig(slope_optimization="reduced")
        sequential = [
            certify_sample(trained_mondeq, x, int(y), 0.4, config) for x, y in zip(xs, ys)
        ]
        batched = BatchedCraft(trained_mondeq, config).certify(xs, ys, 0.4)
        for seq, bat in zip(sequential, batched):
            _assert_result_parity(seq, bat)

    @pytest.mark.parametrize("name", ABLATION_NAMES)
    def test_parity_under_ablation_configs(self, trained_mondeq, toy_data, name):
        """Every Table 4 row has its own batched code paths (the Box and
        Zonotope stacks, the per-iteration containment gate, the aux-free
        FB layout, the slope grids, the escalation waterfall) — each must
        stay in lockstep with the sequential engine, resolving stage
        included.  At ε = 0.2 the ladder resolves rows in its Box and
        Zonotope stages; at ε = 0.4 the contained rows end uncertified
        after their slope attempts."""
        xs, ys = _evaluation_set(trained_mondeq, toy_data)
        config = CraftConfig.ablation(name)
        for epsilon in (0.2, 0.4):
            sequential = certify_local_robustness(
                trained_mondeq, xs, ys, epsilon, config, engine="sequential"
            )
            batched = certify_local_robustness(
                trained_mondeq, xs, ys, epsilon, config, engine="batched"
            )
            for seq, bat in zip(sequential, batched):
                _assert_result_parity(seq, bat)
                assert seq.stage == bat.stage

    def test_parity_with_pr_tightening(self, trained_mondeq, toy_data):
        xs, ys = _evaluation_set(trained_mondeq, toy_data, count=6)
        config = CraftConfig(slope_optimization="none", solver2="pr")
        sequential = [
            certify_sample(trained_mondeq, x, int(y), 0.05, config) for x, y in zip(xs, ys)
        ]
        batched = BatchedCraft(trained_mondeq, config).certify(xs, ys, 0.05)
        for seq, bat in zip(sequential, batched):
            _assert_result_parity(seq, bat)

    def test_parity_with_bounded_containment_budget(self, trained_mondeq, toy_data):
        """A tiny phase-one budget produces NO_CONTAINMENT identically."""
        xs, ys = _evaluation_set(trained_mondeq, toy_data, count=8)
        config = CraftConfig(
            slope_optimization="none",
            contraction=ContractionSettings(max_iterations=2),
        )
        sequential = [
            certify_sample(trained_mondeq, x, int(y), 0.05, config) for x, y in zip(xs, ys)
        ]
        batched = BatchedCraft(trained_mondeq, config).certify(xs, ys, 0.05)
        for seq, bat in zip(sequential, batched):
            _assert_result_parity(seq, bat)

    def test_parity_with_a_recomputed_basis(self, trained_mondeq, toy_data, stack_inverses):
        """Phase one's first basis is the identity (axis-aligned, no inverse);
        recomputing it at iteration 3 brings in PCA bases, which the
        batched stack inverts (the general path) in lockstep with the
        sequential engine.  FB, because the PR layout duplicates the z/u
        rows: its PCA bases have a null space whose orientation follows
        the batch's zero padding, so under PR the engines agree on
        verdicts but margins differ by up to ~6e-5."""
        xs, ys = _evaluation_set(trained_mondeq, toy_data)
        config = CraftConfig(
            slope_optimization="none",
            solver1="fb",
            alpha1=0.04,
            contraction=ContractionSettings(basis_recompute_every=3),
        )
        sequential = [
            certify_sample(trained_mondeq, x, int(y), 0.05, config) for x, y in zip(xs, ys)
        ]
        batched = BatchedCraft(trained_mondeq, config).certify(xs, ys, 0.05)
        assert stack_inverses
        assert max(result.iterations_phase1 for result in batched) > 3
        for seq, bat in zip(sequential, batched):
            _assert_result_parity(seq, bat)

    def test_front_end_routes_match(self, trained_mondeq, toy_data):
        """certify_local_robustness(engine=...) keeps both paths in lockstep."""
        xs, ys = _evaluation_set(trained_mondeq, toy_data, count=6)
        config = CraftConfig(slope_optimization="none")
        batched = certify_local_robustness(
            trained_mondeq, xs, ys, 0.05, config, engine="batched"
        )
        sequential = certify_local_robustness(
            trained_mondeq, xs, ys, 0.05, config, engine="sequential"
        )
        for seq, bat in zip(sequential, batched):
            _assert_result_parity(seq, bat)

    def test_engine_rejects_unknown_domains(self, trained_mondeq):
        """An unknown domain fails loudly instead of silently falling back
        to the sequential loop (CraftConfig itself validates the name, so
        the evasive construction below simulates a corrupted config)."""
        config = CraftConfig()
        object.__setattr__(config, "domains", ("octagon",))
        with pytest.raises(ConfigurationError, match="octagon"):
            BatchedCraft(trained_mondeq, config)

    @pytest.mark.parametrize("domain", ["box", "zonotope", "parallelotope"])
    def test_engine_accepts_all_repo_domains(self, trained_mondeq, domain):
        BatchedCraft(trained_mondeq, CraftConfig(domains=(domain,)))

    @pytest.mark.parametrize("epsilon", [1e-4, 0.05, 0.5])
    def test_parallelotope_verdict_parity(self, trained_mondeq, toy_data, epsilon):
        """The parallelotope pipeline reduces with an SVD every step over
        matrices the PR layout makes rank-deficient, so last-ulp BLAS
        differences between the stacked and sequential paths can rotate
        the reduction basis (see ``BatchedParallelotope._reduce_order``).
        Its parity contract is therefore verdict-level — outcomes,
        containment and certification identical, margins matching tightly
        in the certifiable regime."""
        xs, ys = _evaluation_set(trained_mondeq, toy_data)
        config = CraftConfig(domains=("parallelotope",), slope_optimization="none")
        sequential = [
            certify_sample(trained_mondeq, x, int(y), epsilon, config)
            for x, y in zip(xs, ys)
        ]
        batched = BatchedCraft(trained_mondeq, config).certify(xs, ys, epsilon)
        for seq, bat in zip(sequential, batched):
            assert seq.outcome == bat.outcome
            assert seq.contained == bat.contained
            assert seq.certified == bat.certified
            if seq.certified:
                assert seq.margin == pytest.approx(bat.margin, abs=1e-6)


class TestGlobalCertParity:
    @pytest.mark.parametrize("domain", ["chzonotope", "box"])
    def test_frontier_matches_recursive_decomposition(self, trained_mondeq, toy_data, domain):
        from repro.domains.interval import Interval
        from repro.verify.global_cert import DomainSplittingCertifier

        xs, ys = toy_data
        config = CraftConfig(
            domains=(domain,),
            slope_optimization="none",
            contraction=ContractionSettings(max_iterations=200),
        )
        region = Interval.from_center_radius(xs[120], 0.05)
        batched = DomainSplittingCertifier(
            trained_mondeq, config, max_depth=2, engine="batched"
        ).certify_region(region)
        sequential = DomainSplittingCertifier(
            trained_mondeq, config, max_depth=2, engine="sequential"
        ).certify_region(region)
        assert batched.total_volume == pytest.approx(sequential.total_volume, rel=1e-9)
        assert batched.coverage == pytest.approx(sequential.coverage, rel=1e-9)

        def signature(result):
            return sorted(
                (tuple(cell.region.lower), cell.predicted_class, cell.certified, cell.depth)
                for cell in result.cells
            )

        assert signature(batched) == signature(sequential)


class TestSlopeMarginThreshold:
    @pytest.mark.parametrize("driver", ["sequential", "batched"])
    def test_only_samples_within_the_threshold_try_slopes(
        self, trained_mondeq, toy_data, monkeypatch, driver
    ):
        """Slope optimisation starts only on uncertified samples whose margin
        exceeds ``-SLOPE_MARGIN_THRESHOLD`` (Section 6.3), in both drivers.
        At ε = 0.4 three of the eight regions end phase two uncertified,
        with margins of about -0.07, -0.08 and -0.15."""
        import repro.core.craft as sequential_craft
        import repro.engine.craft as batched_craft

        # The dataset's labels: the counts below are defined on them.
        xs, ys = toy_data[0][120:128], toy_data[1][120:128].astype(int)
        plain = BatchedCraft(trained_mondeq, CraftConfig(slope_optimization="none")).certify(
            xs, ys, 0.4
        )
        config = CraftConfig(slope_optimization="reduced")
        first_delta = config.slope_deltas()[0]
        module, driver_cls = {
            "sequential": (sequential_craft, sequential_craft.CraftVerifier),
            "batched": (batched_craft, batched_craft.BatchedCraft),
        }[driver]
        started = []
        start_tightening = driver_cls._start_tightening

        def recording(self, *args):
            if args[-1] == first_delta:
                # The batched driver starts one run per group of rows.
                started.append(len(args[1]) if driver == "batched" else 1)
            return start_tightening(self, *args)

        monkeypatch.setattr(driver_cls, "_start_tightening", recording)
        counts = []
        for threshold in (1.0, 0.1, 0.05):
            monkeypatch.setattr(module, "SLOPE_MARGIN_THRESHOLD", threshold)
            started.clear()
            if driver == "sequential":
                for x, y in zip(xs, ys):
                    certify_sample(trained_mondeq, x, int(y), 0.4, config)
            else:
                BatchedCraft(trained_mondeq, config).certify(xs, ys, 0.4)
            expected = sum(not r.certified and r.margin > -threshold for r in plain)
            assert sum(started) == expected
            counts.append(expected)
        assert counts == [3, 2, 0]
