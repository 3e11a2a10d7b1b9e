"""Unit tests for the batched CH-Zonotope: per-sample parity with the
sequential domain, property-based soundness, and stack bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings

from strategies import box_vectors, centers, generator_matrices, sample_points, weight_matrices

from repro.domains.chzonotope import CHZonotope
from repro.engine.batched_chzonotope import BatchedCHZonotope
from repro.exceptions import DimensionMismatchError, DomainError, ImproperZonotopeError


def _random_stack(rng, batch=5, dim=4, k=6, with_box=True):
    elements = [
        CHZonotope(
            rng.normal(size=dim),
            rng.normal(size=(dim, k)),
            rng.uniform(0, 0.5, size=dim) if with_box else None,
        )
        for _ in range(batch)
    ]
    return elements, BatchedCHZonotope.from_elements(elements)


def _assert_bounds_match(batched, elements, tol=1e-12):
    lower, upper = batched.concretize_bounds()
    for index, element in enumerate(elements):
        e_lower, e_upper = element.concretize_bounds()
        np.testing.assert_allclose(lower[index], e_lower, atol=tol)
        np.testing.assert_allclose(upper[index], e_upper, atol=tol)


class TestStackBookkeeping:
    def test_round_trip(self, rng):
        elements, batched = _random_stack(rng)
        assert batched.batch_size == len(elements)
        for index, element in enumerate(elements):
            restored = batched.element(index)
            np.testing.assert_allclose(restored.center, element.center)
            np.testing.assert_allclose(restored.box, element.box)
            np.testing.assert_allclose(restored.generators, element.generators)

    def test_from_elements_pads_ragged_generator_counts(self, rng):
        elements = [
            CHZonotope(rng.normal(size=3), rng.normal(size=(3, k)), None)
            for k in (0, 2, 5)
        ]
        batched = BatchedCHZonotope.from_elements(elements)
        assert batched.num_generators == 5
        _assert_bounds_match(batched, elements)

    def test_select_gathers_rows(self, rng):
        elements, batched = _random_stack(rng)
        selected = batched.select([3, 1])
        _assert_bounds_match(selected, [elements[3], elements[1]])

    def test_compress_drops_dead_columns(self, rng):
        elements, batched = _random_stack(rng, k=3)
        padded = BatchedCHZonotope(
            batched.center,
            np.concatenate([batched.generators, np.zeros((5, 4, 2))], axis=2),
            batched.box,
        )
        compressed = padded.compress()
        assert compressed.num_generators == 3
        _assert_bounds_match(compressed, elements)

    def test_dimension_mismatch_rejected(self, rng):
        elements, batched = _random_stack(rng)
        other = BatchedCHZonotope.from_points(rng.normal(size=(4, 4)))
        with pytest.raises(DimensionMismatchError):
            batched.sum(other)
        with pytest.raises(DomainError):
            BatchedCHZonotope(np.zeros((2, 3)), box=-np.ones((2, 3)))


class TestTransformerParity:
    """Sample ``i`` of every batched transformer equals the sequential one."""

    def test_affine_shared_weight(self, rng):
        elements, batched = _random_stack(rng)
        weight = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        _assert_bounds_match(
            batched.affine(weight, bias),
            [element.affine(weight, bias) for element in elements],
        )

    def test_affine_per_sample_weights(self, rng):
        elements, batched = _random_stack(rng)
        weights = rng.normal(size=(5, 2, 4))
        _assert_bounds_match(
            batched.affine(weights),
            [element.affine(weights[i]) for i, element in enumerate(elements)],
        )

    def test_relu(self, rng):
        elements, batched = _random_stack(rng)
        _assert_bounds_match(batched.relu(), [element.relu() for element in elements])

    def test_relu_pass_through(self, rng):
        elements, batched = _random_stack(rng)
        mask = np.array([True, False, True, False])
        _assert_bounds_match(
            batched.relu(pass_through=mask),
            [element.relu(pass_through=mask) for element in elements],
        )

    def test_sum(self, rng):
        elements, batched = _random_stack(rng)
        others, batched_others = _random_stack(rng, k=2)
        _assert_bounds_match(
            batched.sum(batched_others),
            [element.sum(other) for element, other in zip(elements, others)],
        )

    def test_scale_and_translate(self, rng):
        elements, batched = _random_stack(rng)
        offset = rng.normal(size=4)
        _assert_bounds_match(
            batched.scale(-1.5).translate(offset),
            [element.scale(-1.5).translate(offset) for element in elements],
        )

    def test_consolidate_with_expansion(self, rng):
        elements, batched = _random_stack(rng)
        consolidated = batched.consolidate(w_mul=1e-3, w_add=1e-2)
        reference = [element.consolidate(w_mul=1e-3, w_add=1e-2) for element in elements]
        _assert_bounds_match(consolidated, reference, tol=1e-9)
        for index, element in enumerate(reference):
            assert consolidated.element(index).is_proper
            for point in sample_points(elements[index], count=8, seed=index):
                assert consolidated.element(index).contains_point(point, tol=1e-6)

    def test_containment_margin(self, rng):
        elements, batched = _random_stack(rng)
        outers = [element.consolidate(w_add=0.1) for element in elements]
        batched_outer = BatchedCHZonotope.from_elements(outers)
        inners = [element.scale(0.5) for element in elements]
        batched_inner = BatchedCHZonotope.from_elements(inners)
        margins = batched_outer.containment_margin(batched_inner)
        flags = batched_outer.contains(batched_inner)
        for index, (outer, inner) in enumerate(zip(outers, inners)):
            np.testing.assert_allclose(
                margins[index], outer.containment_margin(inner), atol=1e-9
            )
            assert bool(flags[index]) == outer.contains(inner)

    def test_containment_requires_proper_outer(self, rng):
        _, batched = _random_stack(rng, k=6)
        with pytest.raises(ImproperZonotopeError):
            batched.containment_margin(batched)

    def test_pca_basis_matches_sequential(self, rng):
        elements, batched = _random_stack(rng)
        bases = batched.pca_basis()
        for index, element in enumerate(elements):
            np.testing.assert_allclose(bases[index], element.pca_basis(), atol=1e-9)

    def test_pca_basis_identity_for_degenerate_rows(self):
        batched = BatchedCHZonotope.from_points(np.zeros((3, 4)))
        np.testing.assert_allclose(batched.pca_basis(), np.broadcast_to(np.eye(4), (3, 4, 4)))


class TestBatchedSoundness:
    """Property-based: batched transformers over-approximate on samples."""

    @settings(max_examples=25, deadline=None)
    @given(
        center=centers(),
        generators=generator_matrices(),
        box=box_vectors(),
        weight=weight_matrices(),
    )
    def test_affine_then_relu_sound(self, center, generators, box, weight):
        element = CHZonotope(center, generators, box)
        batched = BatchedCHZonotope.from_elements([element, element.scale(0.5)])
        image = batched.affine(weight).relu()
        for index, source in enumerate([element, element.scale(0.5)]):
            restored = image.element(index)
            for point in sample_points(source, count=10):
                assert restored.contains_point(np.maximum(weight @ point, 0.0), tol=1e-6)

    def test_samples_lie_within_bounds(self, rng):
        _, batched = _random_stack(rng)
        lower, upper = batched.concretize_bounds()
        points = batched.sample(50, rng)
        assert np.all(points >= lower[:, None, :] - 1e-9)
        assert np.all(points <= upper[:, None, :] + 1e-9)
