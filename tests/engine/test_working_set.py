"""Cache-aware batch sizing and phase-two consolidation coverage.

Unit-tests the working-set estimator against known model shapes — the
small-input HCAS regime where batching wins and the input-dim-64 FC regime
where a 64-wide stack spills the last-level cache — and pins that periodic
phase-two consolidation (``tighten_consolidate_every``) keeps the
error-term count bounded across ≥50 tightening steps while the abstraction
stays sound (sampled concrete fixpoints remain inside it).
"""

import numpy as np
import pytest

from repro.core.config import CraftConfig
from repro.engine.working_set import (
    DEFAULT_LLC_BYTES,
    MAX_AUTO_BATCH,
    MIN_AUTO_BATCH,
    auto_batch_size,
    detect_llc_bytes,
    error_growth_per_step,
    max_error_terms,
    phase2_working_set_bytes,
    state_dim,
)
from repro.mondeq.model import MonDEQ
from repro.mondeq.solvers import solve_fixpoint
from repro.verify.robustness import fixpoint_set_abstraction

# Structural stand-ins for the two regimes of ROADMAP's measurements (at
# the smoke scale those measurements used): the HCAS FCx100 monDEQ (3
# inputs, latent 6) and an MNIST-like FCx40 (8x8 images, latent 10).  The
# wide *input* is what dominates the error-term growth and flips the
# batching economics.
HCAS_LIKE = dict(input_dim=3, latent_dim=6, output_dim=5)
WIDE_INPUT = dict(input_dim=64, latent_dim=10, output_dim=5)


def _model(**shape):
    return MonDEQ.random(monotonicity=8.0, seed=1, **shape)


class TestWorkingSetEstimator:
    def test_state_dim_tracks_solver_layout(self):
        model = _model(**HCAS_LIKE)
        assert state_dim(model, CraftConfig()) == 2 * 6  # PR carries aux block
        assert state_dim(model, CraftConfig(solver1="fb", alpha1=0.04)) == 6

    def test_growth_rate_matches_roadmap_model(self):
        """Phase-two error terms grow by the ReLU's Box columns (at most
        latent_dim: the PR auxiliary block passes through the ReLU) per
        tightening step; the shared input block adds none."""
        config = CraftConfig()
        assert error_growth_per_step(_model(**HCAS_LIKE), config) == 6
        assert error_growth_per_step(_model(**WIDE_INPUT), config) == 10

    def test_wide_input_model_has_much_larger_working_set(self):
        config = CraftConfig()
        hcas = phase2_working_set_bytes(_model(**HCAS_LIKE), config, batch_size=64)
        wide = phase2_working_set_bytes(_model(**WIDE_INPUT), config, batch_size=64)
        # The input-dim-64 net streams more per sample than HCAS: a wider
        # state (20 vs 12), a wider input block (64 vs 3) and more ReLU
        # columns per step (10 vs 6) over the 150-step horizon.
        assert wide > hcas
        assert wide > DEFAULT_LLC_BYTES  # batch 64 spills a 32 MiB LLC

    def test_consolidation_bounds_the_estimate(self):
        model = _model(**WIDE_INPUT)
        free = CraftConfig()
        bounded = CraftConfig(tighten_consolidate_every=5)
        assert max_error_terms(model, bounded) < max_error_terms(model, free)
        assert phase2_working_set_bytes(model, bounded, 64) < phase2_working_set_bytes(
            model, free, 64
        )

    def test_auto_batch_prefers_smaller_batches_for_wide_inputs(self):
        config = CraftConfig()
        budget = 32 * 2**20
        hcas = auto_batch_size(_model(**HCAS_LIKE), config, budget_bytes=budget)
        wide = auto_batch_size(_model(**WIDE_INPUT), config, budget_bytes=budget)
        assert hcas > wide
        # A 1,584-column horizon (20 + 64 + 150 * 10) at 3 live (20, k)
        # stacks fits 44 wide-input samples in 32 MiB.  Since phase two
        # shares the input symbols, a fixed batch 64 no longer collapses
        # on this shape, so the value is pinned, not a bound.
        assert wide == 44

    def test_auto_batch_respects_budget_monotonically(self):
        model = _model(**WIDE_INPUT)
        config = CraftConfig()
        sizes = [
            auto_batch_size(model, config, budget_bytes=budget)
            for budget in (2**20, 2**24, 2**28, 2**32)
        ]
        assert sizes == sorted(sizes)
        assert all(MIN_AUTO_BATCH <= size <= MAX_AUTO_BATCH for size in sizes)

    def test_explicit_overrides_win(self):
        model = _model(**WIDE_INPUT)
        assert auto_batch_size(model, CraftConfig(engine_batch_size=7)) == 7
        pinned = auto_batch_size(model, CraftConfig(cache_budget_bytes=2**20))
        assert pinned == auto_batch_size(model, CraftConfig(), budget_bytes=2**20)

    def test_stage_layout_clamps_the_estimate(self):
        """Per-stage sizing: the Box stage has no generator stack, the
        parallelotope stage has a constant-order one, and the zonotope
        family grows per step — a ladder must not shrink its cheap stages
        to the CH-Zonotope batch size."""
        model = _model(**WIDE_INPUT)
        ladder = CraftConfig(domains=("box", "zonotope", "parallelotope", "chzonotope"))
        assert max_error_terms(model, ladder, domain="box") == 1
        assert (
            max_error_terms(model, ladder, domain="parallelotope")
            < max_error_terms(model, ladder, domain="zonotope")
        )
        # Default (no override) sizes for the final, most precise stage.
        assert max_error_terms(model, ladder) == max_error_terms(
            model, ladder, domain="chzonotope"
        )
        budget = 32 * 2**20
        box = auto_batch_size(model, ladder, budget_bytes=budget, domain="box")
        chz = auto_batch_size(model, ladder, budget_bytes=budget, domain="chzonotope")
        assert box == MAX_AUTO_BATCH
        assert box > chz

    def test_stage_batch_sizes_cover_the_ladder(self):
        from repro.engine.working_set import stage_batch_sizes

        model = _model(**WIDE_INPUT)
        ladder = CraftConfig(domains=("box", "zonotope", "chzonotope"))
        sizes = stage_batch_sizes(model, ladder, budget_bytes=32 * 2**20)
        assert set(sizes) == set(ladder.domains)
        assert sizes["box"] >= sizes["zonotope"] >= sizes["chzonotope"]
        # An explicit engine_batch_size pins every stage.
        pinned = stage_batch_sizes(
            model, ladder.with_updates(engine_batch_size=9), budget_bytes=32 * 2**20
        )
        assert set(pinned.values()) == {9}

    def test_llc_detection_has_a_floor(self, monkeypatch):
        assert detect_llc_bytes() > 0
        # Without sysfs (macOS, masked /sys) the default must come through.
        import repro.engine.working_set as ws

        monkeypatch.setattr(ws.glob, "glob", lambda pattern: [])
        assert detect_llc_bytes(default=123) == 123

    def test_working_set_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            phase2_working_set_bytes(_model(**HCAS_LIKE), CraftConfig(), 0)


class TestPhase2Consolidation:
    @pytest.fixture(scope="class")
    def sample(self, trained_mondeq, toy_data):
        xs, ys = toy_data
        for x, y in zip(xs[120:], ys[120:]):
            if trained_mondeq.predict(x) == int(y):
                return x
        pytest.skip("no correctly classified sample")

    def test_error_terms_bounded_across_50_steps(self, trained_mondeq, sample):
        """≥50 tightening steps: unbounded growth without consolidation,
        a cadence-sized bound with it."""
        steps = 55
        cadence = 5
        free = CraftConfig(slope_optimization="none")
        bounded = free.with_updates(tighten_consolidate_every=cadence)

        free_abs, _ = fixpoint_set_abstraction(
            trained_mondeq, sample, 0.05, free, tighten_iterations=steps
        )
        bounded_abs, _ = fixpoint_set_abstraction(
            trained_mondeq, sample, 0.05, bounded, tighten_iterations=steps
        )
        assert free_abs.contained and bounded_abs.contained

        model_growth = error_growth_per_step(trained_mondeq, bounded)
        n = state_dim(trained_mondeq, bounded)
        # Between consolidations at most `cadence` steps accumulate fresh
        # columns on top of the n square consolidated generators.
        bound = n + (cadence + 1) * model_growth
        assert bounded_abs.element.num_generators <= bound
        assert free_abs.element.num_generators > bound
        assert free_abs.element.num_generators > 2 * bounded_abs.element.num_generators

    def test_consolidated_abstraction_stays_sound(self, trained_mondeq, sample):
        """Concrete fixpoints of perturbed inputs stay inside the
        consolidated abstraction (the soundness property the suite's
        domain tests pin, checked end-to-end with consolidation on)."""
        config = CraftConfig(slope_optimization="none", tighten_consolidate_every=5)
        abstraction, extract_z = fixpoint_set_abstraction(
            trained_mondeq, sample, 0.05, config, tighten_iterations=52
        )
        assert abstraction.contained
        z_element = extract_z(abstraction.element)
        lower, upper = z_element.concretize_bounds()

        rng = np.random.default_rng(0)
        for _ in range(12):
            delta = rng.uniform(-0.05, 0.05, size=sample.shape)
            x = np.clip(sample + delta, 0.0, 1.0)
            z = solve_fixpoint(trained_mondeq, x, method="pr", tol=1e-11).z
            assert np.all(z >= lower - 1e-7)
            assert np.all(z <= upper + 1e-7)

    def test_consolidation_cadence_validation(self):
        with pytest.raises(Exception):
            CraftConfig(tighten_consolidate_every=-1)


class TestEstimateCalibration:
    """The analytic peak-error-term estimate vs the measured peaks the
    engines now record (``VerificationResult.peak_error_terms``) — the
    ROADMAP "calibrate the working-set estimate" follow-on."""

    def test_stage_error_term_estimates_cover_the_ladder(self):
        from repro.engine.working_set import stage_error_term_estimates

        model = _model(**WIDE_INPUT)
        ladder = CraftConfig(domains=("box", "zonotope", "chzonotope"))
        estimates = stage_error_term_estimates(model, ladder)
        assert set(estimates) == set(ladder.domains)
        assert estimates["box"] == 1
        assert estimates["zonotope"] == max_error_terms(model, ladder, domain="zonotope")

    def test_phase_one_cadence_raises_a_too_tight_phase_two_horizon(self):
        """A per-step phase-two cadence must not shrink the estimate below
        what phase one's consolidate-every-3 iterates actually stream."""
        model = _model(**WIDE_INPUT)
        per_step = CraftConfig(tighten_consolidate_every=1)
        assert max_error_terms(model, per_step) == max_error_terms(
            model, CraftConfig(tighten_consolidate_every=3)
        )

    @pytest.mark.parametrize("domain", ["chzonotope", "zonotope"])
    @pytest.mark.parametrize("cadence", [3, 5])
    def test_estimate_within_2x_of_measured_on_fuzzed_models(self, domain, cadence):
        """Across the fuzz-style model corpus the analytic estimate must be
        an upper bound on the measured peak and stay within 2x of it —
        looser would mis-size batches, tighter would risk unsoundness of
        the LLC fit."""
        from repro.core.config import ContractionSettings
        from repro.engine import BatchedCraft
        from repro.mondeq.model import MonDEQ

        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            model = MonDEQ.random(
                input_dim=3 + seed % 3, latent_dim=4 + seed % 4, output_dim=3,
                monotonicity=9.0 + seed, seed=seed,
            )
            xs = rng.uniform(-1.0, 1.0, size=(4, model.input_dim))
            labels = np.array([int(model.predict(x)) for x in xs])
            config = CraftConfig(
                domain=domain,
                slope_optimization="none",
                contraction=ContractionSettings(max_iterations=60, history_size=4),
                tighten_max_iterations=12,
                tighten_patience=5,
                tighten_consolidate_every=cadence,
            )
            results = BatchedCraft(model, config).certify(xs, labels, 0.03)
            measured = max((r.peak_error_terms or 0) for r in results)
            estimate = max_error_terms(model, config)
            assert measured > 0, "corpus sweep never grew an error term"
            assert measured <= estimate <= 2 * measured, (
                f"seed {seed}: estimate {estimate} vs measured {measured}"
            )

    def test_report_surfaces_estimate_vs_measured(self, trained_mondeq, toy_data):
        from repro.verify.robustness import RobustnessVerifier

        xs, ys = toy_data
        report = RobustnessVerifier(
            trained_mondeq,
            CraftConfig(slope_optimization="none", tighten_consolidate_every=4),
        ).evaluate(xs[120:126], ys[120:126].astype(int), 0.05, run_attack=False)
        row = report.as_row()
        calibration = row["error_terms"]["chzonotope"]
        assert calibration["estimated"] >= calibration["measured"] > 0
