"""Integration tests for Craft-based local robustness certification."""

import numpy as np
import pytest

from repro.core.config import ContractionSettings, CraftConfig
from repro.core.craft import CraftVerifier
from repro.core.results import VerificationOutcome
from repro.engine.escalation import should_escalate
from repro.mondeq.attacks import PGDConfig, pgd_attack
from repro.mondeq.solvers import solve_fixpoint
from repro.verify.robustness import (
    RobustnessVerifier,
    build_fixpoint_problem,
    certify_sample,
    climb_ladder,
    fixpoint_set_abstraction,
)
from repro.verify.specs import ClassificationSpec, LinfBall
from repro.exceptions import VerificationError


@pytest.fixture(scope="module")
def config():
    return CraftConfig(slope_optimization="none")


class TestCertifySample:
    def test_small_epsilon_certified(self, trained_mondeq, trained_sample, config):
        x, label = trained_sample
        result = certify_sample(trained_mondeq, x, label, epsilon=1e-4, config=config)
        assert result.outcome is VerificationOutcome.VERIFIED
        assert result.contained and result.certified

    def test_misclassified_sample_short_circuits(self, trained_mondeq, trained_sample, config):
        x, label = trained_sample
        wrong_label = (label + 1) % trained_mondeq.output_dim
        result = certify_sample(trained_mondeq, x, wrong_label, epsilon=0.01, config=config)
        assert result.outcome is VerificationOutcome.MISCLASSIFIED
        assert not result.certified

    def test_certified_samples_resist_pgd(self, trained_mondeq, trained_sample, config):
        """Soundness cross-check: a certified radius admits no adversarial example."""
        x, label = trained_sample
        epsilon = 0.02
        result = certify_sample(trained_mondeq, x, label, epsilon, config)
        if result.certified:
            attack = pgd_attack(
                trained_mondeq, x, label, epsilon, PGDConfig(steps=30, restarts=3, targeted=True),
                seed=0,
            )
            assert not attack.success

    def test_monotone_in_epsilon(self, trained_mondeq, trained_sample, config):
        x, label = trained_sample
        small = certify_sample(trained_mondeq, x, label, 1e-4, config)
        large = certify_sample(trained_mondeq, x, label, 0.05, config)
        if large.certified:
            assert small.certified
        if small.margin > -np.inf and large.margin > -np.inf:
            assert small.margin >= large.margin - 1e-6

    def test_fb_then_pr_rejected(self, trained_mondeq, trained_sample):
        x, label = trained_sample
        config = CraftConfig(solver1="fb", solver2="pr", slope_optimization="none")
        with pytest.raises(VerificationError):
            certify_sample(trained_mondeq, x, label, 0.01, config)

    def test_box_domain_configuration_runs(self, trained_mondeq, trained_sample):
        x, label = trained_sample
        config = CraftConfig(domains=("box",), slope_optimization="none",
                             contraction=ContractionSettings(max_iterations=200))
        result = certify_sample(trained_mondeq, x, label, 1e-5, config)
        assert result.outcome in (
            VerificationOutcome.VERIFIED,
            VerificationOutcome.UNKNOWN,
            VerificationOutcome.NO_CONTAINMENT,
            VerificationOutcome.DIVERGED,
        )


class TestFixpointSetAbstraction:
    def test_contains_sampled_concrete_fixpoints(self, trained_mondeq, trained_sample, config, rng):
        x, _ = trained_sample
        epsilon = 0.03
        abstraction, extract_z = fixpoint_set_abstraction(
            trained_mondeq, x, epsilon, config, tighten_iterations=15
        )
        assert abstraction.contained
        z_element = extract_z(abstraction.element)
        lower, upper = z_element.concretize_bounds()
        for _ in range(40):
            perturbed = np.clip(x + rng.uniform(-epsilon, epsilon, size=x.shape), 0.0, 1.0)
            z_star = solve_fixpoint(trained_mondeq, perturbed, tol=1e-10).z
            assert np.all(z_star >= lower - 1e-6)
            assert np.all(z_star <= upper + 1e-6)

    def test_tightening_never_loses_fixpoints(self, trained_mondeq, trained_sample, config, rng):
        """More tightening iterations keep the abstraction sound (Def. 3.2)."""
        x, _ = trained_sample
        epsilon = 0.02
        abstraction, extract_z = fixpoint_set_abstraction(
            trained_mondeq, x, epsilon, config, tighten_iterations=40
        )
        z_element = extract_z(abstraction.element)
        lower, upper = z_element.concretize_bounds()
        for _ in range(25):
            perturbed = np.clip(x + rng.uniform(-epsilon, epsilon, size=x.shape), 0.0, 1.0)
            z_star = solve_fixpoint(trained_mondeq, perturbed, tol=1e-10).z
            assert np.all(z_star >= lower - 1e-6) and np.all(z_star <= upper + 1e-6)


class TestProblemConstruction:
    def test_dimension_mismatch_rejected(self, trained_mondeq, config):
        ball = LinfBall(center=np.zeros(trained_mondeq.input_dim + 1), epsilon=0.1)
        spec = ClassificationSpec(target=0, num_classes=trained_mondeq.output_dim)
        with pytest.raises(VerificationError):
            build_fixpoint_problem(trained_mondeq, ball, spec, config)

    def test_problem_pieces_consistent(self, trained_mondeq, trained_sample, config):
        x, label = trained_sample
        ball = LinfBall(center=x, epsilon=0.01)
        spec = ClassificationSpec(target=label, num_classes=trained_mondeq.output_dim)
        problem = build_fixpoint_problem(trained_mondeq, ball, spec, config)
        # The initial state is the PR-layout singleton of the concrete fixpoint.
        assert problem.initial_state.dim == 2 * trained_mondeq.latent_dim
        stepped = problem.contraction_step(problem.initial_state)
        assert stepped.dim == problem.initial_state.dim
        output = problem.extract_output(stepped)
        assert output.dim == trained_mondeq.output_dim


    @pytest.mark.parametrize("domain", ["box", "zonotope", "parallelotope", "chzonotope"])
    def test_problem_lives_in_the_configured_domain(self, trained_mondeq, trained_sample, domain):
        """The initial state takes the precondition's class, and it is the
        singleton of the centre's concrete fixpoint at the solver defaults."""
        x, label = trained_sample
        config = CraftConfig(domains=(domain,), slope_optimization="none")
        ball = LinfBall(center=x, epsilon=0.01)
        spec = ClassificationSpec(target=label, num_classes=trained_mondeq.output_dim)
        problem = build_fixpoint_problem(trained_mondeq, ball, spec, config)
        assert type(problem.input_element) is type(ball.to_element(domain))
        assert type(problem.initial_state) is type(problem.input_element)
        anchor = solve_fixpoint(trained_mondeq, x, method="pr", alpha=config.alpha1).z
        np.testing.assert_array_equal(
            problem.initial_state.center, np.concatenate([anchor, anchor])
        )


class TestClimbLadder:
    def test_a_singleton_configuration_runs_one_verifier(
        self, trained_mondeq, trained_sample, config
    ):
        x, label = trained_sample
        ball = LinfBall(center=x, epsilon=0.3)
        spec = ClassificationSpec(target=label, num_classes=trained_mondeq.output_dim)
        climbed = climb_ladder(trained_mondeq, ball, spec, config)
        direct = CraftVerifier(config).solve(
            build_fixpoint_problem(trained_mondeq, ball, spec, config)
        )
        assert climbed.stage == "chzonotope"
        assert climbed.outcome == direct.outcome
        assert climbed.margin == direct.margin
        assert climbed.iterations_phase1 == direct.iterations_phase1
        assert climbed.iterations_phase2 == direct.iterations_phase2

    @pytest.mark.parametrize(
        "epsilon, resolving_stage",
        [(0.05, "box"), (0.3, "zonotope"), (0.5, "chzonotope")],
    )
    def test_the_climb_leaves_at_the_first_resolving_stage(
        self, trained_mondeq, trained_sample, epsilon, resolving_stage
    ):
        """Box certifies the small ball, only the zonotope the middle one,
        and the large one stays unresolved up to the final stage."""
        x, label = trained_sample
        ladder = CraftConfig.escalation(slope_optimization="none")
        ball = LinfBall(center=x, epsilon=epsilon)
        spec = ClassificationSpec(target=label, num_classes=trained_mondeq.output_dim)
        singles = {
            stage.domain: climb_ladder(trained_mondeq, ball, spec, stage)
            for stage in ladder.stage_configs()
        }
        below = ladder.domains[: ladder.domains.index(resolving_stage)]
        assert all(should_escalate(singles[domain]) for domain in below)
        climbed = climb_ladder(trained_mondeq, ball, spec, ladder)
        assert climbed.stage == resolving_stage
        assert climbed.outcome == singles[resolving_stage].outcome
        assert climbed.margin == singles[resolving_stage].margin

    def test_certify_sample_climbs_the_ladder(self, trained_mondeq, trained_sample):
        x, label = trained_sample
        ladder = CraftConfig.escalation(slope_optimization="none")
        sample = certify_sample(trained_mondeq, x, label, 0.3, ladder)
        ball = LinfBall(center=x, epsilon=0.3, clip_min=0.0, clip_max=1.0)
        spec = ClassificationSpec(target=label, num_classes=trained_mondeq.output_dim)
        climbed = climb_ladder(trained_mondeq, ball, spec, ladder)
        assert (sample.stage, sample.outcome, sample.margin) == (
            climbed.stage, climbed.outcome, climbed.margin
        )


class TestVerifierHarness:
    def test_report_aggregation(self, trained_mondeq, toy_data, config):
        xs, ys = toy_data
        verifier = RobustnessVerifier(trained_mondeq, config, PGDConfig(steps=3, restarts=1))
        report = verifier.evaluate(xs[120:], ys[120:], epsilon=0.01, max_samples=6)
        assert report.num_samples == 6
        assert report.num_certified <= report.num_correct
        assert report.num_contained >= report.num_certified
        row = report.as_row()
        assert set(row) >= {"model", "epsilon", "acc", "bound", "cont", "cert", "time"}
        # The PGD bound is an upper bound on certified accuracy (soundness).
        assert report.num_certified <= report.num_bound
