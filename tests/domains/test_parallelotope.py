"""Unit tests for the PCA parallelotope enclosure (Fig. 7).

``ParallelotopeZonotope.reduce`` is the repository's one PCA enclosure: the
Theorem 4.1 consolidation of :meth:`CHZonotope.consolidate` without
expansion, applied to a zonotope.
"""

import numpy as np
import pytest

from repro.domains.chzonotope import CHZonotope
from repro.domains.parallelotope import ParallelotopeZonotope
from repro.domains.zonotope import Zonotope


def _rotated(angle, radii):
    rotation = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )
    return rotation @ np.diag(radii)


class TestEnclosure:
    def test_enclosing_zonotope_is_sound_and_square(self, rng):
        z = Zonotope(rng.normal(size=2), rng.normal(size=(2, 5)))
        p = ParallelotopeZonotope.reduce(z)
        assert p.num_generators == z.dim
        for point in z.sample(200, rng):
            assert p.contains_point(point, tol=1e-7)

    def test_is_the_consolidation_without_expansion(self, rng):
        z = Zonotope(rng.normal(size=3), rng.normal(size=(3, 7)))
        consolidated = CHZonotope.from_zonotope(z).consolidate(w_mul=0.0, w_add=0.0)
        reduced = ParallelotopeZonotope.reduce(z)
        assert np.array_equal(reduced.center, consolidated.center)
        assert np.array_equal(reduced.generators, consolidated.generators)
        assert not consolidated.has_box_component

    def test_enclosing_point_is_proper(self):
        p = ParallelotopeZonotope.reduce(Zonotope.from_point([1.0, 2.0]))
        assert np.linalg.matrix_rank(p.generators) == p.dim

    def test_exact_on_skewed_parallelotopes(self):
        """A parallelotope-shaped zonotope is its own PCA enclosure (up to
        round-off)."""
        generators = _rotated(0.7, [2.0, 0.1])
        exact_volume = 4 * abs(np.linalg.det(generators))
        reduced = ParallelotopeZonotope.reduce(Zonotope(np.zeros(2), generators))
        assert 4 * abs(np.linalg.det(reduced.generators)) == pytest.approx(exact_volume, rel=1e-6)

    def test_tighter_than_box_on_rotated_sets(self):
        """The paper's Fig. 7 ordering: Box >= Parallelotope for skewed sets."""
        z = Zonotope(np.zeros(2), _rotated(0.8, [3.0, 0.2]))
        parallelotope_volume = 4 * abs(np.linalg.det(ParallelotopeZonotope.reduce(z).generators))
        assert parallelotope_volume <= z.to_interval().volume + 1e-9
