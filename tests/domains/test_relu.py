"""Unit tests for the shared ReLU relaxation."""

import numpy as np
import pytest

from repro.domains.relu import ReLURelaxation, default_slopes, relaxation_is_sound, relu_relaxation
from repro.exceptions import DomainError


class TestDefaultSlopes:
    def test_minimum_area_slope(self):
        slopes = default_slopes(np.array([-1.0]), np.array([3.0]))
        assert slopes[0] == pytest.approx(0.75)

    def test_degenerate_range(self):
        slopes = default_slopes(np.array([0.0]), np.array([0.0]))
        assert np.all((slopes >= 0) & (slopes <= 1))


class TestRelaxation:
    def test_stable_neurons(self):
        relaxation = relu_relaxation(np.array([1.0, -3.0]), np.array([2.0, -1.0]))
        assert np.allclose(relaxation.slopes, [1.0, 0.0])
        assert np.allclose(relaxation.new_errors, 0.0)
        assert not relaxation.crossing.any()

    def test_crossing_neuron_band_is_sound(self, rng):
        lower, upper = np.array([-2.0]), np.array([1.5])
        relaxation = relu_relaxation(lower, upper)
        assert relaxation.crossing[0]
        assert relaxation_is_sound(relaxation, lower, upper, samples=512, rng=rng)

    def test_custom_slopes_remain_sound(self, rng):
        lower, upper = np.array([-1.0, -2.0]), np.array([2.0, 0.5])
        for slope in (0.0, 0.3, 0.6, 1.0):
            relaxation = relu_relaxation(lower, upper, slopes=np.array([slope, slope]))
            assert relaxation_is_sound(relaxation, lower, upper, samples=512, rng=rng)

    def test_slopes_clipped_into_unit_interval(self):
        relaxation = relu_relaxation(np.array([-1.0]), np.array([1.0]), slopes=np.array([5.0]))
        assert relaxation.slopes[0] == 1.0

    def test_pass_through_dims_are_identity(self):
        relaxation = relu_relaxation(
            np.array([-1.0, -1.0]), np.array([1.0, 1.0]), pass_through=np.array([False, True])
        )
        assert relaxation.slopes[1] == 1.0
        assert relaxation.new_errors[1] == 0.0
        assert relaxation.crossing[0]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(DomainError):
            relu_relaxation(np.array([1.0]), np.array([0.0]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DomainError):
            relu_relaxation(np.array([0.0, 1.0]), np.array([1.0]))

    def test_pass_through_shape_checked(self):
        with pytest.raises(DomainError):
            relu_relaxation(np.array([-1.0]), np.array([1.0]), pass_through=np.array([True, False]))

    def test_batched_bounds_match_row_by_row(self, rng):
        """The batched stacks relax ``(B, n)`` bounds in one call; each row
        must equal the single-element relaxation bit for bit."""
        centers = rng.normal(size=(6, 5))
        radii = rng.uniform(0.0, 1.5, size=(6, 5))
        lower, upper = centers - radii, centers + radii
        slopes = rng.uniform(-0.2, 1.2, size=5)
        pass_through = np.array([False, True, False, False, True])
        batched = relu_relaxation(lower, upper, slopes=slopes, pass_through=pass_through)
        rows = [
            relu_relaxation(low, up, slopes=slopes, pass_through=pass_through)
            for low, up in zip(lower, upper)
        ]
        assert batched.crossing.any()
        for name in ("slopes", "offsets", "new_errors", "crossing"):
            stacked = np.stack([getattr(row, name) for row in rows])
            np.testing.assert_array_equal(getattr(batched, name), stacked)

    def test_relaxation_dataclass_fields(self):
        relaxation = relu_relaxation(np.array([-1.0]), np.array([1.0]))
        assert isinstance(relaxation, ReLURelaxation)
        assert relaxation.offsets[0] == pytest.approx(relaxation.new_errors[0])
