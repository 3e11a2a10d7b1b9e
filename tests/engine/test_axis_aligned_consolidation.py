"""Axis-aligned consolidation: an identity basis skips every inverse, bit for bit.

Phase one's first consolidation basis is computed from a point and is the
identity, so ``BatchedCHZonotope.consolidate`` skips ``inv(basis)`` and
the projection, and the consolidated stack carries its inverse ``1/c``
into ``containment_margin``.  The general (LU) path is the reference: the
shortcut must reproduce its arrays byte for byte.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strategies import FINITE

from repro.core.config import CraftConfig
from repro.engine import batched_chzonotope
from repro.engine.batched_chzonotope import BatchedCHZonotope
from repro.experiments.model_zoo import get_model
from repro.verify.robustness import certify_local_robustness

ZEROS = st.sampled_from([0.0, -0.0])


def _general_path(function, *args):
    """``function(*args)`` with the identity shortcut turned off."""
    with mock.patch.object(batched_chzonotope, "_is_identity", return_value=False):
        return function(*args)


@st.composite
def stacks(draw, batch, dim):
    """Stacks rich in zeros: ``k = 0``, ``-0.0`` entries, all-zero rows and
    zero Box radii.  Generators are C- or Fortran-ordered: numpy's sum
    order follows the layout once ``k`` exceeds 8."""
    count = draw(st.integers(0, 12))
    entries = st.one_of(ZEROS, st.floats(-1e6, 1e6, **FINITE))
    generators = draw(arrays(np.float64, (batch, dim, count), elements=entries)).copy()
    zero_rows = draw(arrays(np.bool_, (batch, dim)))
    generators[zero_rows] = draw(ZEROS)
    generators = np.asarray(generators, order=draw(st.sampled_from("CF")))
    center = draw(arrays(np.float64, (batch, dim), elements=st.floats(-10, 10, **FINITE)))
    box = draw(
        arrays(np.float64, (batch, dim), elements=st.one_of(ZEROS, st.floats(0, 5, **FINITE)))
    )
    return BatchedCHZonotope(center, generators, box)


@st.composite
def identity_bases(draw, batch, dim):
    """A per-sample ``(B, n, n)`` identity, some of its zeros ``-0.0``."""
    shape = (batch, dim, dim)
    basis = np.broadcast_to(np.eye(dim), shape).copy()
    basis[draw(arrays(np.bool_, shape)) & (basis == 0)] = -0.0
    return basis


@st.composite
def consolidations(draw):
    """``(stack, identity basis, w_mul, w_add, inner stack)`` of one shape;
    ``w_add`` straddles the 1e-12 coefficient floor."""
    batch = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 4))
    return (
        draw(stacks(batch, dim)),
        draw(identity_bases(batch, dim)),
        draw(st.sampled_from([0.0, 1e-3, 0.5])),
        draw(st.sampled_from([0.0, 1e-13, 1e-12, 1e-2])),
        draw(stacks(batch, dim)),
    )


def _assert_bytes_equal(expected, actual):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(consolidations())
def test_identity_basis_consolidation_equals_the_general_path(drawn):
    stack, basis, w_mul, w_add, _ = drawn
    expected = _general_path(stack.consolidate, basis, w_mul, w_add)
    actual = stack.consolidate(basis, w_mul, w_add)
    assert type(actual) is type(expected)
    for name in ("center", "generators", "box"):
        _assert_bytes_equal(getattr(expected, name), getattr(actual, name))


@settings(max_examples=200, deadline=None)
@given(consolidations(), st.data())
def test_diagonal_outer_margin_equals_the_general_path(drawn, data):
    stack, basis, w_mul, w_add, inner = drawn
    rows = data.draw(st.lists(st.integers(0, stack.batch_size - 1), min_size=1, max_size=4))
    expected = _general_path(stack.consolidate, basis, w_mul, w_add)
    with mock.patch.object(np.linalg, "inv", side_effect=AssertionError("inverted")):
        actual = stack.consolidate(basis, w_mul, w_add)
        margin = actual.containment_margin(inner)
        flags = actual.contains(inner)
        # The inverse diagonal travels with the rows through select.
        selected = actual.select(rows).containment_margin(inner.select(rows))
    _assert_bytes_equal(expected.containment_margin(inner), margin)
    _assert_bytes_equal(expected.contains(inner), flags)
    _assert_bytes_equal(expected.select(rows).containment_margin(inner.select(rows)), selected)


def test_a_phase_one_sweep_inverts_no_stack(stack_inverses):
    """512 HCAS regions at ε = 0.05 finish phase one before the first basis
    recomputation, so every consolidation is axis-aligned and no error
    matrix is inverted (the general path inverts 8 stacks here).  Only
    stacks are counted: the PR solver still inverts its 2-d resolvent."""
    model, dataset = get_model("HCAS-FCx100", "smoke")
    rng = np.random.default_rng(5)
    rows = rng.integers(0, dataset.x_test.shape[0], size=512)
    jitter = rng.uniform(-0.02, 0.02, size=(512, dataset.x_test.shape[1]))
    xs = np.clip(dataset.x_test[rows] + jitter, 0.0, 1.0)
    results = certify_local_robustness(
        model, xs, dataset.y_test[rows], 0.05, CraftConfig(), engine="batched"
    )
    assert sum(result.certified for result in results) > 400
    recompute = CraftConfig().contraction.basis_recompute_every
    assert max(result.iterations_phase1 for result in results) < recompute
    assert stack_inverses == []
