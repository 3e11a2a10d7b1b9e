"""Unit tests for the Kleene-iteration baseline."""

import numpy as np
import pytest

from repro.core.config import KleeneSettings
from repro.core.kleene import KleeneEngine
from repro.domains.interval import Interval
from repro.domains.zonotope import Zonotope
from repro.exceptions import DomainError


def contraction_step(factor=0.5, offset=1.0):
    def step(element):
        dim = element.dim
        return element.affine(factor * np.eye(dim), offset * np.ones(dim))

    return step


class TestKleeneEngine:
    def test_post_fixpoint_found_for_contraction(self):
        engine = KleeneEngine(KleeneSettings(max_iterations=200, semantic_unrolling=0))
        result = engine.run(contraction_step(), Interval.from_point([0.0]))
        assert result.converged
        # Without semantic unrolling the Kleene result must contain the
        # fixpoint 2.0 *and* every intermediate loop-head state down to the
        # first propagated one (1.0).
        assert result.state.contains_point(np.array([2.0]), tol=1e-6)
        assert result.state.contains_point(np.array([1.0]), tol=1e-6)

    def test_kleene_looser_than_fixpoint_set(self):
        engine = KleeneEngine(KleeneSettings(max_iterations=200, semantic_unrolling=0))
        result = engine.run(contraction_step(), Interval.from_point([0.0]))
        assert result.converged
        # the fixpoint set is the single point {2.0}; Kleene covers [0, 2].
        assert result.state.width[0] >= 1.9

    def test_join_counter_increases(self):
        engine = KleeneEngine(KleeneSettings(max_iterations=50, semantic_unrolling=3))
        result = engine.run(contraction_step(), Interval.from_point([0.0]))
        assert result.joins > 0
        assert len(result.width_trace) == result.iterations

    def test_divergence_detected(self):
        def expanding(element):
            return element.affine(2.0 * np.eye(element.dim), np.ones(element.dim))

        engine = KleeneEngine(KleeneSettings(max_iterations=100, abort_width=1e3, semantic_unrolling=0))
        result = engine.run(expanding, Interval.from_center_radius([0.0], 1.0))
        assert result.diverged

    def test_widening_guarantees_termination(self):
        def drifting(element):
            return element.translate(np.ones(element.dim))

        settings = KleeneSettings(
            max_iterations=500, semantic_unrolling=0, widen_after=5,
            widening_threshold=1e4, abort_width=1e9,
        )
        result = KleeneEngine(settings).run(drifting, Interval.from_point([0.0]))
        assert result.converged
        assert result.widenings > 0
        assert result.iterations < 500

    def test_zonotope_domain_supported(self):
        engine = KleeneEngine(KleeneSettings(max_iterations=100, semantic_unrolling=1))
        result = engine.run(contraction_step(0.3, 0.7), Zonotope.from_point([0.0, 0.0]))
        assert result.converged
        assert result.state.contains_point(np.array([1.0, 1.0]), tol=1e-6)

    def test_domain_without_join_rejected(self):
        engine = KleeneEngine()
        element = object()
        with pytest.raises(DomainError):
            engine.run(lambda e: e, element)

    def test_default_settings_used_when_none(self):
        engine = KleeneEngine()
        result = engine.run(contraction_step(), Interval.from_point([0.0]))
        assert result.converged
