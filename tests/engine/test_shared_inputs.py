"""Shared input symbols in phase two: slice soundness and no-flip parity.

Phase-two steps of the CH-Zonotope and Zonotope domains keep the input
region's error symbols as one leading block of the state's generator
matrix and add each step's injection into it
(``make_abstract_step(..., input_terms=k)``).  Two properties pin that:

* **Slice soundness.**  For an input ``x = c + r * nu`` the state restricted
  to the input symbols ``nu`` must still contain the concrete fixpoint:
  ``|z*(x) - c_S - A_x nu| <= |A_rest| 1 + b`` on the ``z`` rows, where
  ``A_x`` is the leading block.  Plain containment of ``z*(x)`` in the
  state would also hold if the injection landed on the wrong columns; the
  slice check does not.
* **No flips against the fresh-symbol reference.**  The reference is built
  here from public pieces — the same :class:`FixpointProblem` with
  ``input_terms=0`` and a plain :func:`make_abstract_step` factory — and
  every engine (sequential, batched, sharded with ``REPRO_SHARD_WORKERS``
  pool workers) must certify every region the reference certifies, after
  the same number of phase-one iterations.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.core.config import CraftConfig
from repro.core.craft import CraftVerifier, open_input_block
from repro.engine import BatchedCraft, ShardedScheduler
from repro.engine.batched_chzonotope import BatchedCHZonotope
from repro.experiments.model_zoo import get_model
from repro.mondeq.abstract_solvers import (
    layout_for,
    make_abstract_step,
    make_batched_abstract_step,
)
from repro.mondeq.model import MonDEQ
from repro.mondeq.solvers import solve_fixpoint
from repro.verify.robustness import build_fixpoint_problem
from repro.verify.specs import ClassificationSpec, LinfBall

SHARD_WORKERS = int(os.environ.get("REPRO_SHARD_WORKERS", "2"))

#: Structural stand-ins for the two benchmark models: FCx40 at smoke scale
#: (8x8 inputs, latent 10) and HCAS-FCx100 at smoke scale.
FCX40_SHAPE = dict(input_dim=64, latent_dim=10, output_dim=10)
HCAS_SHAPE = dict(input_dim=3, latent_dim=6, output_dim=5)

STEPS = 12
#: The slice run consolidates once after this many steps and reopens the
#: block on the consolidated state, which is input-independent.
CONSOLIDATE_AFTER = 6
SAMPLES = 200
#: Fixpoint solves stop at 1e-12; the rest is float64 round-off.
SLICE_TOL = 1e-9


def _contained_regions(model, epsilon, count, seed):
    """Balls whose phase-one state contains the fixpoint set."""
    config = CraftConfig()
    verifier = CraftVerifier(config)
    rng = np.random.default_rng(seed)
    regions = []
    for _ in range(count):
        center = rng.uniform(0.2, 0.8, size=model.input_dim)
        ball = LinfBall(center=center, epsilon=epsilon, clip_min=None, clip_max=None)
        problem = build_fixpoint_problem(model, ball, None, config)
        contraction = verifier.find_fixpoint_abstraction(problem)
        assert contraction.contained
        regions.append((ball, problem.input_element, contraction.state))
    return regions


def _input_symbols(dim, seed):
    """Half box corners, half uniform draws of the input symbols ``nu``."""
    rng = np.random.default_rng(seed)
    corners = rng.choice([-1.0, 1.0], size=(SAMPLES // 2, dim))
    uniform = rng.uniform(-1.0, 1.0, size=(SAMPLES - SAMPLES // 2, dim))
    return np.vstack([corners, uniform])


def _sequential_states(model, solver, alpha, input_element, state):
    layout = layout_for(model, "pr")
    k = model.input_dim
    step = make_abstract_step(model, layout, input_element, solver, alpha, input_terms=k)
    state = open_input_block(state, k)
    states = []
    for iteration in range(1, STEPS + 1):
        if iteration == CONSOLIDATE_AFTER + 1:
            state = open_input_block(state.consolidate(), k)
        state = step(state)
        states.append([(state.center, state.generators, state.box)])
    return states


def _batched_states(model, solver, alpha, input_elements, states):
    layout = layout_for(model, "pr")
    k = model.input_dim
    step = make_batched_abstract_step(
        model, layout, BatchedCHZonotope.from_elements(input_elements), solver, alpha,
        input_terms=k,
    )
    state = open_input_block(BatchedCHZonotope.from_elements(states), k)
    trace = []
    for iteration in range(1, STEPS + 1):
        if iteration == CONSOLIDATE_AFTER + 1:
            state = open_input_block(state.consolidate(), k)
        state = step(state)
        trace.append(list(zip(state.center, state.generators, state.box)))
    return trace


def _worst_slice_violation(model, balls, trace, nus):
    """Largest ``|z* - c - A_x nu| - (|A_rest| 1 + b)`` over every state."""
    p, k = model.latent_dim, model.input_dim
    worst = -np.inf
    for row, ball in enumerate(balls):
        fixpoints = np.stack([
            solve_fixpoint(model, ball.center + ball.epsilon * nu, method="pr", tol=1e-12).z
            for nu in nus
        ])
        for states in trace:
            center, generators, box = states[row]
            block = generators[:p, :k]
            assert np.abs(block).max() > 0, "the input block carries no input dependence"
            slack = np.abs(generators[:p, k:]).sum(axis=1) + box[:p]
            deviation = np.abs(fixpoints - center[:p] - nus @ block.T)
            worst = max(worst, float((deviation - slack).max()))
    return worst


@pytest.mark.parametrize("shape", [FCX40_SHAPE, HCAS_SHAPE], ids=["fcx40", "hcas"])
@pytest.mark.parametrize("solver, alpha", [("fb", 0.1), ("pr", 0.1)])
class TestSliceSoundness:
    @pytest.fixture
    def setup(self, shape):
        model = MonDEQ.random(monotonicity=8.0, seed=4, **shape)
        regions = _contained_regions(model, epsilon=0.02, count=3, seed=5)
        return model, regions, _input_symbols(model.input_dim, seed=6)

    def test_sequential_slices_contain_the_fixpoints(self, setup, solver, alpha):
        model, regions, nus = setup
        for ball, input_element, state in regions:
            trace = _sequential_states(model, solver, alpha, input_element, state)
            assert _worst_slice_violation(model, [ball], trace, nus) <= SLICE_TOL

    def test_batched_slices_contain_the_fixpoints(self, setup, solver, alpha):
        model, regions, nus = setup
        balls, input_elements, states = zip(*regions)
        trace = _batched_states(model, solver, alpha, input_elements, states)
        assert _worst_slice_violation(model, balls, trace, nus) <= SLICE_TOL


@pytest.mark.parametrize("shape", [FCX40_SHAPE, HCAS_SHAPE], ids=["fcx40", "hcas"])
def test_drivers_reopen_the_block_after_consolidation(shape):
    """Phase two opens the input block once, on the contained state; the
    states both drivers hand back after the whole budget keep it aligned."""
    model = MonDEQ.random(monotonicity=8.0, seed=4, **shape)
    regions = _contained_regions(model, epsilon=0.02, count=3, seed=5)
    nus = _input_symbols(model.input_dim, seed=6)
    steps = 8
    config = CraftConfig(alpha2_grid=(0.1,), tighten_max_iterations=steps)
    balls = [ball for ball, _, _ in regions]
    # A target the model does not predict never certifies, so both drivers
    # return their best-margin state once the stop rule ends the run (after
    # 5 of the 8 steps); compute_fixpoint_set below takes all 8.
    specs = [
        ClassificationSpec(
            target=(int(model.predict(ball.center)) + 1) % model.output_dim,
            num_classes=model.output_dim,
        )
        for ball in balls
    ]
    verifier = CraftVerifier(config)
    fixpoint_sets = [
        verifier.compute_fixpoint_set(
            build_fixpoint_problem(model, ball, None, config), tighten_iterations=steps
        ).element
        for ball in balls
    ]
    # Phase one's generators, the block, and at most one ReLU column per
    # latent coordinate and step.
    contained = [state.num_generators for _, _, state in regions]
    k, p = model.input_dim, model.latent_dim
    for element, start in zip(fixpoint_sets, contained):
        assert element.num_generators <= start + k + steps * p
    sequential = [
        verifier.solve(build_fixpoint_problem(model, ball, spec, config))
        for ball, spec in zip(balls, specs)
    ]
    batched = BatchedCraft(model, config).certify_regions(balls, specs)
    for elements in (
        fixpoint_sets,
        [result.fixpoint_abstraction.element for result in sequential],
        [result.fixpoint_abstraction.element for result in batched],
    ):
        trace = [[(e.center, e.generators, e.box) for e in elements]]
        assert _worst_slice_violation(model, balls, trace, nus) <= SLICE_TOL


def _fresh_symbol_problem(model, ball, spec, config):
    """The fresh-symbol reference: same problem, ``input_terms=0`` and a
    plain :func:`make_abstract_step` tightening factory."""
    problem = build_fixpoint_problem(model, ball, spec, config)
    layout = layout_for(model, config.solver1)

    def factory(solver, alpha, slope_delta):
        return make_abstract_step(
            model, layout, problem.input_element, solver, alpha,
            slope_delta=slope_delta,
        )

    return dataclasses.replace(problem, input_terms=0, tightening_step_factory=factory)


def _regions(model, xs, epsilon, clip):
    """Balls around ``xs`` with the model's own predictions as targets."""
    bounds = (0.0, 1.0) if clip else (None, None)
    balls = [LinfBall(x, epsilon, *bounds) for x in xs]
    specs = [
        ClassificationSpec(target=int(model.predict(x)), num_classes=model.output_dim)
        for x in xs
    ]
    return balls, specs


def _corpus():
    model, dataset = get_model("FCx40", "smoke")
    yield "fcx40", model, *_regions(model, dataset.x_test, 0.05, clip=True)
    for seed in range(3):
        model = MonDEQ.random(
            input_dim=3 + seed, latent_dim=5 + seed, output_dim=3,
            monotonicity=8.0 + seed, seed=20 + seed,
        )
        xs = np.random.default_rng(30 + seed).uniform(-1.0, 1.0, size=(6, model.input_dim))
        yield f"random-{seed}", model, *_regions(model, xs, 0.04, clip=False)


@pytest.mark.tier1
@pytest.mark.parametrize("domain", ["chzonotope", "zonotope"])
def test_no_flips_against_fresh_symbol_reference(domain):
    config = CraftConfig(domains=(domain,), slope_optimization="none")
    verifier = CraftVerifier(config)
    reference_total = 0
    for name, model, balls, specs in _corpus():
        reference = [
            verifier.solve(_fresh_symbol_problem(model, ball, spec, config))
            for ball, spec in zip(balls, specs)
        ]
        sequential = [
            verifier.solve(build_fixpoint_problem(model, ball, spec, config))
            for ball, spec in zip(balls, specs)
        ]
        batched = BatchedCraft(model, config).certify_regions(balls, specs)
        with ShardedScheduler(
            model, config, num_workers=SHARD_WORKERS, batch_size=2, timeout_seconds=300.0
        ) as scheduler:
            sharded = scheduler.certify_regions(balls, specs)
        reference_total += sum(r.certified for r in reference)
        for engine, results in (
            ("sequential", sequential), ("batched", batched), ("sharded", sharded)
        ):
            flips = [
                index
                for index, (ref, cand) in enumerate(zip(reference, results))
                if ref.certified and not cand.certified
            ]
            assert not flips, f"{name}/{engine}: certified -> uncertified at {flips}"
            assert sum(r.certified for r in results) >= sum(r.certified for r in reference)
            assert [r.iterations_phase1 for r in results] == [
                r.iterations_phase1 for r in reference
            ], f"{name}/{engine}: phase one moved"
    assert reference_total > 0, "the corpus certifies nothing; the check is vacuous"
