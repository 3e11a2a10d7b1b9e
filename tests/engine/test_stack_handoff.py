"""The batched engine keeps every sample in a stack from precondition to result.

* **Inputs.**  ``from_bounds`` builds the input stack from box bounds and
  equals ``from_elements`` over ``LinfBall.to_element`` bit for bit, shapes
  included, on all four domains.
* **Hand-off.**  ``gather`` re-stacks rows of several stacks and equals
  ``from_elements`` over ``element`` bit for bit: the column count and
  order decide numpy's summation order, so a gather that only described
  the same sets would move margins at the last ulp.
* **Results.**  Results hold row references; an element is built on its
  first read, equal to the eager one, and a result survives pickling,
  ``replace``, ``==`` and ``copy.deepcopy``.  A sweep builds no element
  nobody reads, sharded or not.
"""

import copy
import dataclasses
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strategies import FINITE, box_vectors, centers, sparse_generator_stacks

from repro.core.config import CraftConfig
from repro.core.results import (
    FixpointAbstraction,
    StackRow,
    VerificationOutcome,
    VerificationResult,
)
from repro.engine import ShardedScheduler
from repro.engine.batched_chzonotope import BatchedCHZonotope
from repro.engine.batched_domains import BatchedBox, batched_domain_for
from repro.exceptions import DomainError
from repro.experiments.model_zoo import get_model
from repro.verify.robustness import certify_local_robustness
from repro.verify.specs import LinfBall

SHARD_WORKERS = int(os.environ.get("REPRO_SHARD_WORKERS", "2"))
DOMAINS = ["chzonotope", "zonotope", "parallelotope", "box"]
#: Every stack class reached from a domain name.
STACKS = sorted({batched_domain_for(domain) for domain in DOMAINS}, key=lambda cls: cls.__name__)


def _assert_bit_equal(expected, actual):
    assert type(actual) is type(expected)
    if isinstance(expected, BatchedBox):
        names = ("_lower", "_upper")
    else:
        names = ("_center", "_generators", "_box")
    for name in names:
        want, got = getattr(expected, name), getattr(actual, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS)
@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(centers(dim=4, bound=1.5), min_size=1, max_size=5),
    epsilon=st.one_of(st.just(0.0), st.floats(0.0, 0.6, **FINITE)),
    clip=st.sampled_from([(0.0, 1.0), (None, None), (0.0, None), (None, 0.5)]),
)
def test_from_bounds_equals_stacked_ball_elements(domain, rows, epsilon, clip):
    # Centres reach outside [0, 1], so clipping leaves zero-radius axes.
    balls = [LinfBall(center, epsilon, *clip) for center in rows]
    cls = batched_domain_for(domain)
    expected = cls.from_elements([ball.to_element(domain) for ball in balls])
    bounds = [ball.bounds() for ball in balls]
    actual = cls.from_bounds(
        np.stack([lower for lower, _ in bounds]), np.stack([upper for _, upper in bounds])
    )
    _assert_bit_equal(expected, actual)


@pytest.mark.parametrize("domain", DOMAINS)
def test_from_bounds_keeps_the_interval_check(domain):
    cls = batched_domain_for(domain)
    lower = np.array([[0.0, 1.0]])
    with pytest.raises(DomainError):
        cls.from_bounds(lower, lower - 1e-6)
    # Within the interval tolerance the bounds clamp instead.
    _assert_bit_equal(cls.from_bounds(lower, lower), cls.from_bounds(lower, lower - 1e-13))


# ----------------------------------------------------------------------
# Hand-off
# ----------------------------------------------------------------------


@st.composite
def _stack(draw, cls, dim):
    batch = draw(st.integers(1, 3))
    count = draw(st.integers(0, 4))
    center = np.stack(draw(st.lists(centers(dim), min_size=batch, max_size=batch)))
    box = np.stack(draw(st.lists(box_vectors(dim), min_size=batch, max_size=batch)))
    if cls is BatchedBox:
        return cls(center - box, center + box)
    generators = draw(sparse_generator_stacks(batch, dim, count))
    if cls is BatchedCHZonotope:
        # -0.0 Box radii survive element() and must survive the gather too.
        box[draw(arrays(np.bool_, box.shape))] = -0.0
        return cls(center, generators, box)
    return cls(center, generators, None)


@pytest.mark.parametrize("cls", STACKS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gather_equals_elements_restacked(cls, data):
    dim = data.draw(st.integers(1, 3))
    stacks = data.draw(st.lists(_stack(cls, dim), min_size=1, max_size=3))
    picks = data.draw(
        st.lists(
            st.integers(0, len(stacks) - 1).flatmap(
                lambda which: st.tuples(
                    st.just(which), st.integers(0, stacks[which].batch_size - 1)
                )
            ),
            min_size=1,
            max_size=6,
        )
    )
    which = np.array([which for which, _ in picks])
    rows = np.array([row for _, row in picks])
    expected = cls.from_elements([stacks[w].element(r) for w, r in picks])
    _assert_bit_equal(expected, cls.gather(stacks, which, rows))


def test_gather_pads_to_exactly_the_gathered_rows():
    # Row 0 keeps columns 0 and 2, row 1 keeps column 1 of a wider stack;
    # a single gathered row is padded to its own count only.
    generators = np.zeros((2, 2, 5))
    generators[0, :, 0] = [1.0, -0.0]
    generators[0, :, 2] = [0.0, 2.0]
    generators[0, :, 3] = -0.0
    generators[1, :, 1] = [3.0, 4.0]
    stack = BatchedCHZonotope(np.zeros((2, 2)), generators, None)
    both = BatchedCHZonotope.gather([stack], np.zeros(2, dtype=int), np.array([0, 1]))
    np.testing.assert_array_equal(both.generators[0], [[1.0, 0.0], [-0.0, 2.0]])
    np.testing.assert_array_equal(both.generators[1], [[3.0, 0.0], [4.0, 0.0]])
    assert np.signbit(both.generators[0, 1, 0]) and not np.signbit(both.generators[1, 1, 1])
    assert BatchedCHZonotope.gather([stack], [0], np.array([1])).num_generators == 1
    empty = BatchedCHZonotope(np.zeros((1, 2)), np.zeros((1, 2, 0)), None)
    assert BatchedCHZonotope.gather([empty, stack], [0], np.array([0])).num_generators == 0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


def _lazy_result(stack, row):
    return VerificationResult(
        outcome=VerificationOutcome.VERIFIED,
        contained=True,
        certified=True,
        margin=0.5,
        iterations_phase1=3,
        iterations_phase2=2,
        time_seconds=0.0,
        fixpoint_abstraction=FixpointAbstraction(
            element=StackRow(stack, row), contained=True, iterations_phase1=3, iterations_phase2=2
        ),
        output_element=StackRow(stack, row),
    )


def _wide_stack(rng, batch=64):
    generators = rng.normal(size=(batch, 6, 20))
    generators[:, :, 7] = 0.0
    box = rng.uniform(0, 1, size=(batch, 6))
    return BatchedCHZonotope(rng.normal(size=(batch, 6)), generators, box)


def test_a_lazy_element_is_the_eager_one_built_once(rng):
    stack = _wide_stack(rng)
    result = _lazy_result(stack, 5)
    element = result.output_element
    eager = stack.element(5)
    for name in ("center", "generators", "box"):
        assert getattr(element, name).tobytes() == getattr(eager, name).tobytes()
    assert element.num_generators == 19
    assert result.output_element is element
    assert result.fixpoint_abstraction.element == eager


def test_a_lazy_result_survives_pickling_replace_and_deepcopy(rng):
    stack = _wide_stack(rng)
    result = _lazy_result(stack, 9)
    data = pickle.dumps(result)
    # The pickle carries the result's own row, not the 64-row stack.
    assert len(data) < len(pickle.dumps(stack)) / 8
    restored = pickle.loads(data)
    assert restored == result
    assert restored.output_element == stack.element(9)
    replaced = dataclasses.replace(restored, notes="replaced")
    assert dataclasses.replace(result, notes="replaced") == replaced
    assert copy.deepcopy(_lazy_result(stack, 9)) == result
    stripped = dataclasses.replace(_lazy_result(stack, 9), output_element=None)
    assert stripped.output_element is None
    assert stripped != result


@pytest.fixture
def element_calls(monkeypatch):
    """Counts ``element()`` calls on every stack class."""
    calls = []
    for cls in STACKS:
        if "element" not in cls.__dict__:
            continue
        original = cls.__dict__["element"]

        def counted(self, index, original=original):
            calls.append(type(self).__name__)
            return original(self, index)

        monkeypatch.setattr(cls, "element", counted)
    return calls


@pytest.fixture(scope="module")
def hcas():
    model, dataset = get_model("HCAS-FCx100", "smoke")
    xs = np.clip(dataset.x_test[:24] + 0.01, 0.0, 1.0)
    return model, xs, model.predict_batch(xs)


def test_a_batched_sweep_builds_no_element_until_one_is_read(hcas, element_calls):
    model, xs, labels = hcas
    results = certify_local_robustness(model, xs, labels, 0.05, CraftConfig(), engine="batched")
    contained = [result for result in results if result.contained]
    assert contained and element_calls == []
    element = contained[0].fixpoint_abstraction.element
    assert element_calls == ["BatchedCHZonotope"]
    assert contained[0].fixpoint_abstraction.element is element
    assert contained[0].output_element.dim == model.output_dim
    assert len(element_calls) == 2


def test_an_inline_verdict_only_sweep_builds_no_element(hcas, element_calls):
    model, xs, labels = hcas
    with ShardedScheduler(
        model, CraftConfig(), num_workers=1, keep_abstractions=False
    ) as scheduler:
        results = scheduler.certify(xs, labels, 0.05).results
    assert any(result.contained for result in results)
    for result in results:
        assert result.fixpoint_abstraction is None and result.output_element is None
    assert element_calls == []


@pytest.mark.tier1
def test_sharded_elements_equal_the_batched_engine(hcas):
    model, xs, labels = hcas
    config = CraftConfig()
    batched = certify_local_robustness(model, xs, labels, 0.05, config, engine="batched")
    with ShardedScheduler(
        model, config, num_workers=SHARD_WORKERS, keep_abstractions=True, timeout_seconds=300.0
    ) as scheduler:
        sharded = scheduler.certify(xs, labels, 0.05).results
    assert sum(result.contained for result in batched) > 0
    for expected, actual in zip(batched, sharded):
        assert actual.certified == expected.certified
        if expected.fixpoint_abstraction is None:
            assert actual.fixpoint_abstraction is None
            continue
        assert actual.fixpoint_abstraction.element == expected.fixpoint_abstraction.element
        assert actual.output_element == expected.output_element
