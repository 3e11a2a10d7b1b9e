"""Property-based tests (hypothesis) for the abstract-domain invariants.

These encode the soundness contracts the whole verifier relies on:

* abstract transformers over-approximate the concrete function on samples,
* consolidation, expansion and the PCA enclosure only ever enlarge
  concretisations,
* the Theorem 4.2 containment check is never unsound,
* joins are upper bounds.

The element strategies are shared with the engine tests via
:mod:`strategies` (``tests/strategies.py``), so every abstract transformer
— sequential and batched — is exercised on the same distribution.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from strategies import (
    FINITE,
    box_vectors,
    centers,
    generator_matrices,
    sample_points,
    weight_matrices,
)

from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.parallelotope import ParallelotopeZonotope
from repro.domains.zonotope import Zonotope

_DIM = 3

widths = st.builds(
    lambda lower, width: (lower, lower + width),
    centers(bound=4.0),
    box_vectors(bound=3.0),
)


@settings(max_examples=40, deadline=None)
@given(center=centers(), generators=generator_matrices(), box=box_vectors(), weight=weight_matrices())
def test_chzonotope_affine_transformer_sound(center, generators, box, weight):
    element = CHZonotope(center, generators, box)
    image = element.affine(weight)
    for point in sample_points(element):
        assert image.contains_point(weight @ point, tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(center=centers(), generators=generator_matrices(), box=box_vectors())
def test_chzonotope_relu_transformer_sound(center, generators, box):
    element = CHZonotope(center, generators, box)
    image = element.relu()
    for point in sample_points(element):
        assert image.contains_point(np.maximum(point, 0.0), tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    center=centers(),
    generators=generator_matrices(),
    box=box_vectors(),
    w_mul=st.floats(0, 0.2, **FINITE),
    w_add=st.floats(0, 0.2, **FINITE),
)
def test_consolidation_and_expansion_enlarge(center, generators, box, w_mul, w_add):
    element = CHZonotope(center, generators, box)
    consolidated = element.consolidate(w_mul=w_mul, w_add=w_add)
    assert consolidated.is_proper
    for point in sample_points(element):
        assert consolidated.contains_point(point, tol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    center=centers(),
    generators=generator_matrices(),
    box=box_vectors(),
    inner_center=centers(),
    inner_generators=generator_matrices(),
)
def test_containment_check_never_unsound(center, generators, box, inner_center, inner_generators):
    outer = CHZonotope(center, generators, box).consolidate()
    inner = CHZonotope(center + 0.05 * (inner_center - center), 0.3 * inner_generators, None)
    if outer.contains(inner):
        for point in np.vstack(
            [inner.sample_vertices(24, np.random.default_rng(1)), sample_points(inner)]
        ):
            assert outer.contains_point(point, tol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    center=centers(),
    generators=generator_matrices(),
    other_center=centers(),
    other_generators=generator_matrices(),
)
def test_chzonotope_join_is_upper_bound(center, generators, other_center, other_generators):
    a = CHZonotope(center, generators, None)
    b = CHZonotope(other_center, other_generators, None)
    joined = a.join(b)
    for point in np.vstack([sample_points(a), sample_points(b, seed=2)]):
        assert joined.contains_point(point, tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(bounds=widths, weight=weight_matrices())
def test_interval_affine_sound(bounds, weight):
    lower, upper = bounds
    box = Interval(lower, upper)
    image = box.affine(weight)
    for point in sample_points(box):
        assert image.contains_point(weight @ point, tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(center=centers(), generators=generator_matrices())
def test_zonotope_relu_sound(center, generators):
    z = Zonotope(center, generators)
    image = z.relu()
    for point in sample_points(z):
        assert image.contains_point(np.maximum(point, 0.0), tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(center=centers(), generators=generator_matrices(), factor=st.floats(-2, 2, **FINITE))
def test_zonotope_scale_sound(center, generators, factor):
    z = Zonotope(center, generators)
    image = z.scale(factor)
    for point in sample_points(z):
        assert image.contains_point(factor * point, tol=1e-6)


# ----------------------------------------------------------------------
# The PCA parallelotope enclosure
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(center=centers(), generators=generator_matrices(count=7))
def test_pca_enclosure_contains_zonotope(center, generators):
    z = Zonotope(center, generators)
    enclosure = ParallelotopeZonotope.reduce(z)
    assert enclosure.num_generators == z.dim
    for point in np.vstack(
        [sample_points(z), z.sample_vertices(12, np.random.default_rng(3))]
    ):
        assert enclosure.contains_point(point, tol=1e-5)
