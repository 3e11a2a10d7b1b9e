"""Unit tests for the Craft verifier core (Algorithm 1) on synthetic problems."""

import numpy as np
import pytest

from repro.core.config import ContractionSettings, CraftConfig
from repro.core.craft import CraftVerifier, FixpointProblem
from repro.core.results import PostconditionCheck, VerificationOutcome
from repro.domains.chzonotope import CHZonotope
from repro.exceptions import VerificationError


def _affine_problem(factor=0.5, offset=1.0, radius=0.3, threshold=1.5, diverge=False):
    """A synthetic fixpoint problem: x -> factor*x + offset on a 2-d state.

    The unique fixpoint is ``offset / (1 - factor)`` per dimension; the
    postcondition asks whether every fixpoint coordinate exceeds ``threshold``.
    """
    dim = 2
    fixpoint = offset / (1.0 - factor)
    rate = 1.5 if diverge else factor

    def step(element):
        return element.affine(rate * np.eye(dim), offset * np.ones(dim))

    def factory(solver, alpha, slope_delta):
        del solver, alpha, slope_delta
        return step

    def postcondition(element):
        lower, _ = element.concretize_bounds()
        margin = float(lower.min() - threshold)
        return PostconditionCheck(holds=margin > 0, margin=margin, lower_bounds=lower)

    initial = CHZonotope.from_center_radius([fixpoint, fixpoint], radius)
    return FixpointProblem(
        input_element=initial,
        initial_state=initial,
        contraction_step=step,
        tightening_step_factory=factory,
        extract_output=lambda element: element,
        postcondition=postcondition,
        description="synthetic affine fixpoint",
    )


def _config(**kwargs):
    defaults = dict(
        slope_optimization="none",
        contraction=ContractionSettings(max_iterations=100, consolidate_every=1, basis_recompute_every=1),
    )
    defaults.update(kwargs)
    return CraftConfig(**defaults)


class TestCraftVerifier:
    def test_verifies_true_property(self):
        verifier = CraftVerifier(_config())
        result = verifier.solve(_affine_problem(threshold=1.5))
        assert result.outcome is VerificationOutcome.VERIFIED
        assert result.contained and result.certified
        assert result.margin > 0

    def test_unknown_for_false_property(self):
        # fixpoint is exactly 2.0; requiring > 2.5 cannot be certified.
        verifier = CraftVerifier(_config())
        result = verifier.solve(_affine_problem(threshold=2.5))
        assert result.outcome is VerificationOutcome.UNKNOWN
        assert result.contained and not result.certified
        assert result.margin < 0

    def test_divergence_reported(self):
        verifier = CraftVerifier(_config(contraction=ContractionSettings(max_iterations=50, abort_width=1e3)))
        result = verifier.solve(_affine_problem(diverge=True))
        assert result.outcome in (VerificationOutcome.DIVERGED, VerificationOutcome.NO_CONTAINMENT)
        assert not result.certified

    def test_missing_postcondition_rejected(self):
        problem = _affine_problem()
        problem.postcondition = None
        with pytest.raises(VerificationError):
            CraftVerifier(_config()).solve(problem)

    def test_compute_fixpoint_set_contains_true_fixpoint(self):
        verifier = CraftVerifier(_config())
        abstraction = verifier.compute_fixpoint_set(_affine_problem(), tighten_iterations=10)
        assert abstraction.contained
        assert abstraction.element.contains_point(np.array([2.0, 2.0]), tol=1e-7)
        assert abstraction.iterations_phase2 == 10

    def test_phase_two_improves_margin(self):
        verifier = CraftVerifier(_config())
        problem = _affine_problem(threshold=1.9)
        contraction = verifier.find_fixpoint_abstraction(problem)
        loose_margin = problem.postcondition(contraction.state).margin
        result = verifier.solve(problem)
        assert result.margin >= loose_margin

    def test_result_summary_format(self):
        result = CraftVerifier(_config()).solve(_affine_problem())
        text = result.summary()
        assert "verified" in text
        assert "margin" in text

    def test_candidate_parameters_respect_solver_choice(self):
        pr_config = _config(solver2="pr", alpha1=0.07)
        assert pr_config.candidate_parameters() == (("pr", 0.07),)
        fixed_fb = _config(solver2="fb", alpha2_grid=(0.3,))
        assert fixed_fb.candidate_parameters() == (("fb", 0.3),)
        searched = _config(solver2="fb")
        assert len(searched.candidate_parameters()) == len(searched.alpha2_grid)

    def test_slope_deltas_by_mode(self):
        assert _config().slope_deltas() == ()
        assert len(_config(slope_optimization="reduced").slope_deltas()) == 4
        assert len(_config(slope_optimization="reference").slope_deltas()) == 8
