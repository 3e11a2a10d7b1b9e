"""Unit tests for the domain-generic stacking layer (engine/batched_domains).

Three layers of coverage:

* **Transformer parity** — every stacked transformer of ``BatchedBox`` and
  ``BatchedZonotope`` must equal its sequential counterpart applied per
  sample (the engine parity contract, here at the granularity of single
  operations rather than whole verification runs).
* **Dispatch** — ``batched_domain_for`` resolves every repo domain and
  fails loudly (``ConfigurationError``) for unknown names.
* **Front-end behaviour** — the engine choice is logged exactly once per
  (engine, domain) pair, and multi-domain sweeps return identical verdicts
  across all three engines (`certify_local_robustness` smoke).
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.config import CraftConfig
from repro.domains.interval import Interval
from repro.domains.parallelotope import ParallelotopeZonotope
from repro.domains.zonotope import Zonotope
from repro.engine import (
    BatchedBox,
    BatchedCHZonotope,
    BatchedDomain,
    BatchedParallelotope,
    BatchedZonotope,
    batched_domain_for,
)
from repro.exceptions import ConfigurationError, DomainError
from strategies import box_vectors, centers, generator_matrices, weight_matrices

ATOL = 1e-12


def _boxes(count=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-2.0, 1.0, size=(count, dim))
    return [Interval(lo, lo + rng.uniform(0.0, 2.0, size=dim)) for lo in lower]


def _zonotopes(count=4, dim=3, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Zonotope(
            rng.uniform(-2.0, 2.0, size=dim),
            rng.uniform(-1.0, 1.0, size=(dim, rng.integers(0, k + 1))),
        )
        for _ in range(count)
    ]


def _assert_bounds_match(stack, elements):
    __tracebackhide__ = True
    lower, upper = stack.concretize_bounds()
    for index, element in enumerate(elements):
        seq_lower, seq_upper = element.concretize_bounds()
        np.testing.assert_allclose(lower[index], seq_lower, atol=ATOL)
        np.testing.assert_allclose(upper[index], seq_upper, atol=ATOL)


class TestDispatch:
    def test_known_domains(self):
        assert batched_domain_for("chzonotope") is BatchedCHZonotope
        assert batched_domain_for("box") is BatchedBox
        assert batched_domain_for("zonotope") is BatchedZonotope
        assert batched_domain_for("parallelotope") is BatchedParallelotope

    def test_unknown_domain_raises(self):
        with pytest.raises(ConfigurationError, match="octagon"):
            batched_domain_for("octagon")

    def test_stacks_satisfy_protocol(self):
        for cls, elements in (
            (BatchedBox, _boxes()),
            (BatchedZonotope, _zonotopes()),
        ):
            stack = cls.from_elements(elements)
            assert isinstance(stack, BatchedDomain)
            for name in (
                "from_elements", "from_points", "element", "select", "affine",
                "relu", "sum", "relu_slopes", "consolidate", "contains",
                "pca_basis", "concretize_bounds",
            ):
                assert callable(getattr(cls, name)), name


class TestBatchedBoxParity:
    def test_roundtrip(self):
        elements = _boxes()
        stack = BatchedBox.from_elements(elements)
        assert stack.batch_size == len(elements)
        _assert_bounds_match(stack, elements)
        for index, element in enumerate(elements):
            extracted = stack.element(index)
            np.testing.assert_allclose(extracted.lower, element.lower, atol=ATOL)
            np.testing.assert_allclose(extracted.upper, element.upper, atol=ATOL)

    @settings(max_examples=25, deadline=None)
    @given(weight=weight_matrices(rows=2), bias=centers(dim=2))
    def test_affine_matches_sequential(self, weight, bias):
        elements = _boxes()
        stack = BatchedBox.from_elements(elements).affine(weight, bias)
        _assert_bounds_match(stack, [e.affine(weight, bias) for e in elements])

    def test_per_sample_affine(self):
        elements = _boxes()
        rng = np.random.default_rng(1)
        weights = rng.uniform(-2.0, 2.0, size=(len(elements), 2, 3))
        stack = BatchedBox.from_elements(elements).affine(weights)
        _assert_bounds_match(stack, [e.affine(w) for e, w in zip(elements, weights)])

    def test_relu_matches_sequential_and_ignores_slopes(self):
        elements = _boxes(seed=3)
        pass_through = np.array([False, True, False])
        stack = BatchedBox.from_elements(elements)
        batched = stack.relu(slopes=np.full(3, 0.5), pass_through=pass_through)
        _assert_bounds_match(batched, [e.relu(pass_through=pass_through) for e in elements])

    def test_sum_matches_sequential(self):
        left, right = _boxes(seed=4), _boxes(seed=5)
        stack = BatchedBox.from_elements(left).sum(BatchedBox.from_elements(right))
        _assert_bounds_match(stack, [a.sum(b) for a, b in zip(left, right)])

    def test_consolidate_matches_domain_ops(self):
        from repro.core.contraction import domain_ops_for

        ops = domain_ops_for("box")
        elements = _boxes(seed=6)
        for w_mul, w_add in ((0.0, 0.0), (1e-3, 1e-2)):
            stack = BatchedBox.from_elements(elements).consolidate(None, w_mul, w_add)
            _assert_bounds_match(
                stack, [ops.consolidate(e, None, w_mul, w_add) for e in elements]
            )

    def test_contains_matches_subset_check(self):
        outer = _boxes(seed=7)
        inner = [
            Interval(e.lower + 0.3 * e.radius, e.upper - 0.3 * e.radius) for e in outer
        ]
        flags = BatchedBox.from_elements(outer).contains(BatchedBox.from_elements(inner))
        assert flags.shape == (len(outer),)
        for index, (o, i) in enumerate(zip(outer, inner)):
            assert flags[index] == i.is_subset_of(o)
        # Shift one inner element outside to exercise the negative branch.
        shifted = list(inner)
        shifted[0] = shifted[0].translate(10.0 * np.ones(3))
        flags = BatchedBox.from_elements(outer).contains(BatchedBox.from_elements(shifted))
        assert not flags[0] and flags[1:].all()

    def test_pca_basis_is_none(self):
        assert BatchedBox.from_elements(_boxes()).pca_basis() is None

    def test_invalid_bounds_rejected(self):
        with pytest.raises(DomainError):
            BatchedBox(np.ones((2, 3)), np.zeros((2, 3)))


class TestBatchedZonotopeParity:
    def test_roundtrip_and_zero_box(self):
        elements = _zonotopes()
        stack = BatchedZonotope.from_elements(elements)
        _assert_bounds_match(stack, elements)
        assert not np.any(stack.box > 0)
        for index, element in enumerate(elements):
            extracted = stack.element(index)
            assert isinstance(extracted, Zonotope)
            got_lower, got_upper = extracted.concretize_bounds()
            want_lower, want_upper = element.concretize_bounds()
            np.testing.assert_allclose(got_lower, want_lower, atol=ATOL)
            np.testing.assert_allclose(got_upper, want_upper, atol=ATOL)

    def test_box_component_rejected(self):
        with pytest.raises(DomainError):
            BatchedZonotope(np.zeros((2, 3)), np.zeros((2, 3, 1)), np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(weight=weight_matrices(rows=3), bias=centers())
    def test_affine_matches_sequential(self, weight, bias):
        elements = _zonotopes(seed=8)
        stack = BatchedZonotope.from_elements(elements).affine(weight, bias)
        assert isinstance(stack, BatchedZonotope)
        _assert_bounds_match(stack, [e.affine(weight, bias) for e in elements])

    @settings(max_examples=25, deadline=None)
    @given(center=centers(), generators=generator_matrices(), radius=box_vectors())
    def test_relu_fresh_errors_become_columns(self, center, generators, radius):
        """The zonotope ReLU must never populate the Box component — fresh
        error terms become generator columns, per-sample identical to
        ``Zonotope.relu``."""
        element = Zonotope(center, generators)
        stack = BatchedZonotope.from_elements([element, element.translate(radius)])
        batched = stack.relu()
        assert isinstance(batched, BatchedZonotope)
        assert not np.any(batched.box > 0)
        _assert_bounds_match(batched, [element.relu(), element.translate(radius).relu()])

    def test_transformers_preserve_type(self):
        stack = BatchedZonotope.from_elements(_zonotopes(seed=9))
        for result in (
            stack.affine(np.eye(3)),
            stack.relu(),
            stack.sum(stack),
            stack.scale(0.5),
            stack.translate(np.ones(3)),
            stack.consolidate(None, 0.0, 0.0),
            stack.select(np.array([0, 1])),
            stack.compress(),
        ):
            assert isinstance(result, BatchedZonotope)
            assert not np.any(result.box > 0)

    def test_consolidate_and_contains_match_domain_ops(self):
        from repro.core.contraction import domain_ops_for

        ops = domain_ops_for("zonotope")
        elements = _zonotopes(seed=10)
        stack = BatchedZonotope.from_elements(elements)
        consolidated = stack.consolidate(None, 1e-3, 1e-2)
        sequential = [ops.consolidate(e, None, 1e-3, 1e-2) for e in elements]
        _assert_bounds_match(consolidated, sequential)
        flags = consolidated.contains(stack)
        for index, (outer, inner) in enumerate(zip(sequential, elements)):
            assert flags[index] == ops.contains(outer, inner)


class TestBatchedParallelotope:
    """Soundness of the order-bounded stack, via the shared hypothesis
    strategies — same over-approximation contract as the sequential domain
    property tests, here at the stack granularity."""

    def test_roundtrip_and_zero_box(self):
        elements = _zonotopes(seed=11)
        stack = BatchedParallelotope.from_elements(elements)
        _assert_bounds_match(stack, elements)
        assert not np.any(stack.box > 0)

    @settings(max_examples=25, deadline=None)
    @given(center=centers(), generators=generator_matrices(count=6))
    def test_relu_reduces_order_and_encloses(self, center, generators):
        """The parallelotope ReLU is the zonotope ReLU followed by an
        enclosing reduction: the result is square (``k == dim``) and
        contains the unreduced zonotope ReLU image per sample."""
        element = Zonotope(center, generators)
        stack = BatchedParallelotope.from_elements([element, element.scale(0.5)])
        reduced = stack.relu()
        assert isinstance(reduced, BatchedParallelotope)
        assert reduced.num_generators == reduced.dim
        unreduced = BatchedZonotope.from_elements([element, element.scale(0.5)]).relu()
        assert reduced.contains(unreduced, tol=1e-7).all()

    @settings(max_examples=25, deadline=None)
    @given(center=centers(), generators=generator_matrices(count=5))
    def test_relu_sound_on_sampled_points(self, center, generators):
        """Over-approximation contract: the concrete ReLU image of every
        sampled point stays inside the reduced stack's concretisation."""
        element = Zonotope(center, generators)
        stack = BatchedParallelotope.from_elements([element])
        points = stack.sample(32, np.random.default_rng(0))[0]
        lower, upper = stack.relu().concretize_bounds()
        images = np.maximum(points, 0.0)
        assert np.all(images >= lower[0] - 1e-7)
        assert np.all(images <= upper[0] + 1e-7)

    def test_transformers_preserve_type(self):
        stack = BatchedParallelotope.from_elements(_zonotopes(seed=12))
        for result in (
            stack.affine(np.eye(3)),
            stack.relu(),
            stack.sum(stack),
            stack.consolidate(None, 0.0, 0.0),
            stack.select(np.array([0, 1])),
        ):
            assert isinstance(result, BatchedParallelotope)
            assert not np.any(result.box > 0)

    def test_single_sample_matches_sequential_element(self):
        """A one-sample stack has no batch padding, so the reduction must
        match the sequential ``ParallelotopeZonotope`` bit-for-bit."""
        for seed in range(3):
            rng = np.random.default_rng(seed)
            center = rng.normal(size=3)
            generators = rng.normal(size=(3, 5))
            sequential = ParallelotopeZonotope(center, generators).relu()
            batched = BatchedParallelotope.from_elements(
                [Zonotope(center, generators)]
            ).relu()
            seq_lower, seq_upper = sequential.concretize_bounds()
            lower, upper = batched.concretize_bounds()
            np.testing.assert_allclose(lower[0], seq_lower, atol=ATOL)
            np.testing.assert_allclose(upper[0], seq_upper, atol=ATOL)

    def test_sequential_pipeline_element_is_type_stable(self):
        element = ParallelotopeZonotope(np.zeros(3), np.eye(3))
        for result in (
            element.affine(np.eye(3)),
            element.sum(element),
            element.relu(),
            element.scale(0.5),
            element.translate(np.ones(3)),
        ):
            assert isinstance(result, ParallelotopeZonotope)
        assert element.relu().num_generators == element.dim


class TestFrontEndDispatch:
    def test_engine_choice_logged_once(self, trained_mondeq, toy_data, caplog):
        from repro.verify import robustness

        xs, ys = toy_data
        exs, eys = xs[120:122], ys[120:122].astype(int)
        config = CraftConfig(domains=("box",), slope_optimization="none")
        robustness._LOGGED_ENGINE_CHOICES.discard(("batched", "box"))
        with caplog.at_level(logging.INFO, logger="repro.verify.robustness"):
            robustness.certify_local_robustness(
                trained_mondeq, exs, eys, 0.01, config, engine="batched"
            )
            robustness.certify_local_robustness(
                trained_mondeq, exs, eys, 0.01, config, engine="batched"
            )
        records = [
            record
            for record in caplog.records
            if "dispatching to engine='batched' for domain='box'" in record.getMessage()
        ]
        assert len(records) == 1

    @pytest.mark.tier1
    def test_hcas_scale_multi_domain_parity(self):
        """Blocking HCAS-smoke parity: the bench job that also asserts this
        is continue-on-error (timing noise must not block merges), but
        verdict parity is correctness, so it is re-checked here in tier 1
        at the same model scale."""
        from repro.experiments.model_zoo import get_model
        from repro.verify.robustness import certify_local_robustness

        model, dataset = get_model("HCAS-FCx100", "smoke")
        xs, ys = dataset.x_test[:6], dataset.y_test[:6].astype(int)
        for domain in ("chzonotope", "box", "zonotope"):
            config = CraftConfig(domains=(domain,), slope_optimization="none")
            sequential = certify_local_robustness(
                model, xs, ys, 0.03, config, engine="sequential"
            )
            batched = certify_local_robustness(model, xs, ys, 0.03, config, engine="batched")
            for seq, bat in zip(sequential, batched):
                assert seq.outcome == bat.outcome
                assert seq.contained == bat.contained
                assert seq.certified == bat.certified
                if np.isfinite(seq.margin):
                    assert seq.margin == pytest.approx(bat.margin, abs=1e-9)

    @pytest.mark.parametrize("domain", ["box", "zonotope"])
    def test_sharded_engine_covers_domain(self, trained_mondeq, toy_data, domain):
        """Box/Zonotope sweeps run through the sharded scheduler with
        verdicts identical to the batched engine."""
        from repro.engine import ShardedScheduler
        from repro.verify.robustness import certify_local_robustness

        xs, ys = toy_data
        exs, eys = xs[120:126], ys[120:126].astype(int)
        config = CraftConfig(domains=(domain,), slope_optimization="none")
        batched = certify_local_robustness(
            trained_mondeq, exs, eys, 0.05, config, engine="batched"
        )
        with ShardedScheduler(
            trained_mondeq, config, num_workers=2, batch_size=2, start_method="inline"
        ) as scheduler:
            sharded = scheduler.certify(exs, eys, 0.05).results
        for bat, sha in zip(batched, sharded):
            assert bat.outcome == sha.outcome
            assert bat.certified == sha.certified
            if np.isfinite(bat.margin):
                assert bat.margin == pytest.approx(sha.margin, abs=1e-9)
