"""Unit tests for the CH-Zonotope domain (Section 4)."""

import numpy as np
import pytest

from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.zonotope import Zonotope
from repro.exceptions import DomainError, ImproperZonotopeError


@pytest.fixture
def improper(rng):
    """A generic improper CH-Zonotope in 3 dimensions with 5 error terms."""
    return CHZonotope(
        rng.normal(size=3), rng.normal(size=(3, 5)), np.abs(rng.normal(size=3))
    )


class TestRepresentation:
    def test_negative_box_rejected(self):
        with pytest.raises(DomainError):
            CHZonotope(np.zeros(2), np.eye(2), np.array([-0.1, 0.0]))

    def test_proper_detection(self):
        proper = CHZonotope(np.zeros(2), np.eye(2), np.zeros(2))
        assert proper.is_proper
        rank_deficient = CHZonotope(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2))
        assert not rank_deficient.is_proper
        rectangular = CHZonotope(np.zeros(2), np.ones((2, 3)), np.zeros(2))
        assert not rectangular.is_proper

    def test_decompose_and_to_zonotope(self, improper):
        zonotope, box = improper.decompose()
        assert isinstance(zonotope, Zonotope)
        assert isinstance(box, Interval)
        cast = improper.to_zonotope()
        assert cast.num_generators == improper.num_generators + np.count_nonzero(improper.box)

    def test_from_interval_keeps_radius_in_generators(self):
        element = CHZonotope.from_interval(Interval([-1.0, 0.0], [1.0, 2.0]))
        assert not element.has_box_component
        lower, upper = element.concretize_bounds()
        assert np.allclose(lower, [-1.0, 0.0])
        assert np.allclose(upper, [1.0, 2.0])

    def test_bounds_include_box_component(self):
        element = CHZonotope(np.zeros(1), np.array([[1.0]]), np.array([0.5]))
        lower, upper = element.concretize_bounds()
        assert np.allclose(lower, [-1.5])
        assert np.allclose(upper, [1.5])


class TestTransformers:
    def test_affine_sound_and_clears_box(self, rng, improper):
        weight = rng.normal(size=(2, 3))
        bias = rng.normal(size=2)
        image = improper.affine(weight, bias)
        assert not image.has_box_component
        for point in improper.sample(150, rng):
            assert image.contains_point(weight @ point + bias, tol=1e-7)

    def test_relu_sound_on_samples(self, rng, improper):
        relu = improper.relu()
        for point in improper.sample(200, rng):
            assert relu.contains_point(np.maximum(point, 0.0), tol=1e-7)

    def test_relu_keeps_generator_count(self, improper):
        relu = improper.relu()
        assert relu.num_generators == improper.num_generators

    def test_relu_writes_fresh_errors_into_the_box(self):
        element = CHZonotope(np.zeros(2), 0.5 * np.eye(2), np.zeros(2))
        relu = element.relu()
        assert relu.num_generators == element.num_generators
        assert relu.has_box_component

    def test_relu_pass_through(self, rng):
        element = CHZonotope(np.array([-1.0, -1.0]), 0.5 * np.eye(2), np.zeros(2))
        relu = element.relu(pass_through=np.array([False, True]))
        lower, upper = relu.concretize_bounds()
        assert lower[1] == pytest.approx(-1.5)
        assert lower[0] == pytest.approx(0.0)

    def test_sum_adds_boxes_and_concatenates_generators(self, improper):
        total = improper.sum(improper)
        assert total.num_generators == 2 * improper.num_generators
        assert np.allclose(total.box, 2 * improper.box)


class TestConsolidation:
    def test_consolidated_element_is_proper(self, improper):
        assert improper.consolidate().is_proper

    def test_consolidation_is_sound(self, rng, improper):
        consolidated = improper.consolidate()
        for point in improper.sample(200, rng):
            assert consolidated.contains_point(point, tol=1e-7)

    def test_consolidation_with_expansion_is_larger(self, improper):
        plain = improper.consolidate()
        expanded = improper.consolidate(w_mul=0.1, w_add=0.05)
        assert np.all(expanded.width >= plain.width - 1e-12)
        assert expanded.contains(plain)

    def test_consolidation_with_custom_basis(self, rng, improper):
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        consolidated = improper.consolidate(basis=basis)
        for point in improper.sample(100, rng):
            assert consolidated.contains_point(point, tol=1e-7)

    def test_consolidation_preserves_box_and_center(self, improper):
        consolidated = improper.consolidate()
        assert np.allclose(consolidated.box, improper.box)
        assert np.allclose(consolidated.center, improper.center)

    def test_negative_expansion_rejected(self, improper):
        with pytest.raises(DomainError):
            improper.consolidate(w_mul=-0.1)

    def test_consolidation_of_degenerate_element(self):
        element = CHZonotope.from_point([1.0, 2.0])
        consolidated = element.consolidate()
        assert consolidated.is_proper
        assert consolidated.contains_point(np.array([1.0, 2.0]))


class TestContainment:
    def test_requires_proper_outer(self, improper):
        with pytest.raises(ImproperZonotopeError):
            improper.contains(improper)

    def test_scaled_copy_is_contained(self, improper):
        outer = improper.consolidate(w_mul=0.05)
        inner = CHZonotope(improper.center, 0.9 * improper.generators, 0.9 * improper.box)
        assert outer.contains(inner)

    def test_containment_never_unsound(self, rng):
        """If the check claims containment, no sampled inner point escapes."""
        for trial in range(20):
            trial_rng = np.random.default_rng(trial)
            outer = CHZonotope(
                trial_rng.normal(size=3),
                trial_rng.normal(size=(3, 6)),
                np.abs(trial_rng.normal(size=3)),
            ).consolidate()
            inner = CHZonotope(
                outer.center + 0.05 * trial_rng.normal(size=3),
                0.4 * trial_rng.normal(size=(3, 4)),
                0.1 * np.abs(trial_rng.normal(size=3)),
            )
            if not outer.contains(inner):
                continue
            for point in np.vstack(
                [inner.sample_vertices(100, trial_rng), inner.sample(100, trial_rng)]
            ):
                assert outer.contains_point(point, tol=1e-6)

    def test_obvious_non_containment_detected(self):
        outer = CHZonotope(np.zeros(2), np.eye(2), np.zeros(2))
        inner = CHZonotope(np.array([10.0, 0.0]), 0.1 * np.eye(2), np.zeros(2))
        assert not outer.contains(inner)

    def test_margin_monotone_in_inner_size(self):
        outer = CHZonotope(np.zeros(2), np.eye(2), np.zeros(2))
        small = CHZonotope(np.zeros(2), 0.2 * np.eye(2), np.zeros(2))
        large = CHZonotope(np.zeros(2), 0.8 * np.eye(2), np.zeros(2))
        assert np.all(outer.containment_margin(small) <= outer.containment_margin(large))

    def test_box_difference_compensation(self):
        """A centre offset can be compensated by a larger outer Box component."""
        outer = CHZonotope(np.zeros(1), np.array([[1.0]]), np.array([1.0]))
        inner = CHZonotope(np.array([0.8]), np.array([[0.9]]), np.zeros(1))
        assert outer.contains(inner)

    def test_dimension_mismatch(self):
        outer = CHZonotope(np.zeros(2), np.eye(2), np.zeros(2))
        inner = CHZonotope(np.zeros(3), np.eye(3), np.zeros(3))
        with pytest.raises(DomainError):
            outer.contains(inner)


class TestJoin:
    def test_join_contains_both(self, rng):
        a = CHZonotope(np.zeros(2), np.array([[1.0, 0.1], [0.2, 0.6]]), np.array([0.1, 0.0]))
        b = CHZonotope(np.ones(2), np.array([[0.8, 0.0], [0.1, 0.4]]), np.array([0.0, 0.2]))
        joined = a.join(b)
        for point in np.vstack([a.sample(100, rng), b.sample(100, rng)]):
            assert joined.contains_point(point, tol=1e-7)

    def test_join_mismatched_generators_falls_back_to_hull(self, rng):
        a = CHZonotope(np.zeros(2), np.eye(2), np.zeros(2))
        b = CHZonotope(np.ones(2), np.ones((2, 3)), np.zeros(2))
        joined = a.join(b)
        for point in np.vstack([a.sample(50, rng), b.sample(50, rng)]):
            assert joined.contains_point(point, tol=1e-7)

    def test_widen_reaches_threshold(self):
        a = CHZonotope(np.zeros(1), np.array([[1.0]]), np.zeros(1))
        b = CHZonotope(np.zeros(1), np.array([[2.0]]), np.zeros(1))
        widened = a.widen(b, threshold=10.0)
        assert widened.concretize_bounds()[1][0] == 10.0


class TestUtilities:
    def test_enlarge_box(self, improper):
        enlarged = improper.enlarge_box(0.25)
        assert np.allclose(enlarged.box, improper.box + 0.25)
        with pytest.raises(DomainError):
            improper.enlarge_box(-1.0)

    def test_equality(self):
        a = CHZonotope(np.zeros(2), np.eye(2), np.zeros(2))
        b = CHZonotope(np.zeros(2), np.eye(2), np.zeros(2))
        c = CHZonotope(np.ones(2), np.eye(2), np.zeros(2))
        assert a == b
        assert a != c
