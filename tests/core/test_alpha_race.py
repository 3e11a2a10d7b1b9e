"""The phase-two alpha race (``CraftConfig.race_candidates``).

Both Craft drivers probe the ``alpha2_grid`` candidate of least
contraction factor rho((1 - alpha) I + alpha W) for ``PROBE_STEPS`` steps,
then walk the grid outward in alpha, towards smaller and then larger
alpha, and stop each side at the first probe that does not beat the
sample's leader.  A sample leaves on its first certificate, and the rest
resume their leader.  Three properties pin that:

* **Order.**  The factor equals the brute-force spectral radius, the start
  minimises it with ties in grid order (the first entry without a
  factor), and each walk is in alpha order outward from the start.
* **Work.**  Counted on synthetic problems: a step-1 certificate builds
  one step, tied probes stop each side after one probe, a walk follows
  its probe margin to the peak and one past it in both drivers, and a
  single candidate is one run.
* **No flips against the exhaustive search.**  The probe-every-alpha-then-
  restart search the race replaced is rebuilt here from single-alpha
  ``CraftVerifier.solve`` calls with the phase-two stop rule off; no
  engine (sequential, batched, sharded with ``REPRO_SHARD_WORKERS`` pool
  workers) may lose a certificate it gives.
"""

import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from test_craft import _affine_problem, _config

from repro.core.config import PROBE_STEPS, CraftConfig
from repro.core.craft import CraftVerifier
from repro.engine import BatchedCraft, ShardedScheduler
from repro.experiments.model_zoo import get_model
from repro.mondeq.abstract_solvers import fb_contraction_factor
from repro.mondeq.model import MonDEQ
from repro.verify.robustness import build_fixpoint_problem
from repro.verify.specs import ClassificationSpec, LinfBall

SHARD_WORKERS = int(os.environ.get("REPRO_SHARD_WORKERS", "2"))

#: The probe budget of the exhaustive search the race replaced.
EXHAUSTIVE_PROBE_STEPS = 30


def _random_model(seed):
    return MonDEQ.random(
        input_dim=3 + seed, latent_dim=5 + seed, output_dim=3,
        monotonicity=8.0 + seed, seed=20 + seed,
    )


# ----------------------------------------------------------------------
# Order
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_contraction_factor_matches_brute_force(seed):
    model = _random_model(seed)
    factor = fb_contraction_factor(model)
    identity = np.eye(model.latent_dim)
    for alpha in CraftConfig().alpha2_grid:
        brute = np.abs(np.linalg.eigvals((1 - alpha) * identity + alpha * model.w_matrix)).max()
        assert factor(alpha) == pytest.approx(brute, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_the_walk_starts_at_the_least_factor_and_runs_outward_in_alpha(seed):
    factor = fb_contraction_factor(_random_model(seed))
    config = CraftConfig(alpha2_grid=tuple(np.random.default_rng(seed).permutation(
        CraftConfig().alpha2_grid
    ).tolist()))
    start, smaller, larger = config.race_candidates(factor)
    assert sorted((start, *smaller, *larger)) == sorted(config.candidate_parameters())
    assert factor(start[1]) == min(factor(alpha) for alpha in config.alpha2_grid)
    assert [alpha for _, alpha in smaller] == sorted(
        (alpha for alpha in config.alpha2_grid if alpha < start[1]), reverse=True
    )
    assert [alpha for _, alpha in larger] == sorted(
        alpha for alpha in config.alpha2_grid if alpha > start[1]
    )


def test_the_start_takes_grid_order_on_ties_and_without_a_factor():
    config = CraftConfig(alpha2_grid=(0.2, 0.15, 0.05, 0.1))
    distance = lambda alpha: round(abs(alpha - 0.1), 12)  # noqa: E731
    assert config.race_candidates(distance) == (
        ("fb", 0.1), (("fb", 0.05),), (("fb", 0.15), ("fb", 0.2))
    )
    # 0.15 and 0.05 tie without 0.1; 0.15 comes first in the grid.
    tied = replace(config, alpha2_grid=(0.2, 0.15, 0.05))
    assert tied.race_candidates(distance) == (("fb", 0.15), (("fb", 0.05),), (("fb", 0.2),))
    assert config.race_candidates() == (("fb", 0.2), (("fb", 0.15), ("fb", 0.1), ("fb", 0.05)), ())
    assert replace(config, alpha2_grid=(0.3,)).race_candidates(distance) == (("fb", 0.3), (), ())
    assert replace(config, solver2="pr").race_candidates(distance) == (("pr", 0.1), (), ())


@pytest.mark.parametrize("name", ["FCx40", "HCAS-FCx100"])
def test_alpha_005_leads_on_the_smoke_models(name):
    model, _ = get_model(name, "smoke")
    assert CraftConfig().race_candidates(fb_contraction_factor(model))[0] == ("fb", 0.05)


def test_one_eigvals_call_per_problem(monkeypatch):
    model = _random_model(0)
    x = np.zeros(model.input_dim)
    config = CraftConfig(slope_optimization="none")
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda matrix: calls.append(1) or eigvals(matrix))
    problem = build_fixpoint_problem(
        model, LinfBall(x, 0.02), ClassificationSpec(int(model.predict(x)), 3), config
    )
    CraftVerifier(config).solve(problem)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# Work, counted on the synthetic affine problem
# ----------------------------------------------------------------------


class _CountingFactory:
    """A tightening factory recording ``[alpha, steps taken]`` per built step."""

    def __init__(self, factory):
        self._factory = factory
        self.built = []

    def __call__(self, solver, alpha, slope_delta):
        inner = self._factory(solver, alpha, slope_delta)
        entry = [alpha, 0]
        self.built.append(entry)

        def step(element):
            entry[1] += 1
            return inner(element)

        return step


def _counted(problem, contraction_factor=None):
    counter = _CountingFactory(problem.tightening_step_factory)
    problem.tightening_step_factory = counter
    problem.contraction_factor = contraction_factor
    return problem, counter


def test_a_step_one_certificate_builds_one_step():
    problem, counter = _counted(_affine_problem(threshold=1.5))
    result = CraftVerifier(_config()).solve(problem)
    assert result.certified and result.iterations_phase2 == 1
    assert counter.built == [[CraftConfig().alpha2_grid[0], 1]]


def test_losing_candidates_run_only_their_probe():
    config = _config()
    problem, counter = _counted(_affine_problem(threshold=2.5))
    result = CraftVerifier(config).solve(problem)
    assert not result.certified
    # Every candidate iterates the same map, so every probe margin ties.
    # Without a factor the walk starts at the first grid entry, the
    # smallest alpha; its one neighbour does not beat it, and it resumes.
    (start, start_steps), (neighbour, neighbour_steps) = counter.built
    assert (start, neighbour) == config.alpha2_grid[:2]
    assert neighbour_steps == PROBE_STEPS
    assert PROBE_STEPS < start_steps <= config.tighten_max_iterations
    assert result.selected_alpha2 == start
    assert result.iterations_phase2 == start_steps


def test_the_problem_factor_orders_the_race():
    problem, counter = _counted(
        _affine_problem(threshold=1.5), contraction_factor=lambda alpha: abs(alpha - 0.1)
    )
    result = CraftVerifier(_config()).solve(problem)
    assert counter.built == [[0.1, 1]]
    assert result.selected_alpha2 == 0.1


GRID = CraftConfig().alpha2_grid
#: The grid position the peak tests start their walk from (alpha 0.05).
START = 3


class _Scaling:
    """A phase-two step that scales the state about its centre by ``1.01 +
    0.01 d``, ``d`` being its alpha's grid distance from ``peak`` (0 for
    every alpha when ``peak`` is ``None``), and counts its calls per alpha
    in ``calls``.  The margin after a step falls strictly with the scale
    and with every further step, so a probe's margin is its first step's
    and peaks at ``peak``; a sample whose contained state does not certify
    never certifies."""

    def __init__(self, alpha, peak, calls):
        self.alpha = alpha
        self.scale = 1.01 + 0.01 * (0 if peak is None else abs(GRID.index(alpha) - peak))
        self.calls = calls

    def __call__(self, state):
        self.calls[self.alpha] = self.calls.get(self.alpha, 0) + 1
        return type(state)(state.center, state.generators * self.scale, state.box * self.scale)

    def select(self, rows):
        return self


def _walk(peak):
    """The alphas the walk from ``START`` probes when the probe margin peaks
    at grid position ``peak``: the start, the points towards the peak, one
    past it and one on the other side (smaller alpha first).  Tied probes
    (``peak`` ``None``) stop each side after one probe."""
    if peak is None:
        positions = [START, START - 1, START + 1]
    elif peak < START:
        positions = [START, *range(START - 1, peak - 2, -1), START + 1]
    elif peak > START:
        positions = [START, START - 1, *range(START + 1, peak + 2)]
    else:
        positions = [START, START - 1, START + 1]
    return [GRID[index] for index in positions if 0 <= index < len(GRID)]


def _peak_regions():
    """Regions of a random model whose contained states do not certify."""
    model = _random_model(0)
    xs = np.random.default_rng(30).uniform(-1.0, 1.0, size=(6, model.input_dim))
    return model, *_regions(model, xs, 0.6, clip=False)


@pytest.mark.parametrize("peak", [0, 1, START, 5, len(GRID) - 1, None])
def test_the_walk_follows_the_probe_margin_to_its_peak(peak, monkeypatch):
    """Both drivers probe the start, the ``k`` grid points towards the
    peak, one past it and one on the other side, and resume the peak (the
    start, the first probed, when every probe ties)."""
    import repro.engine.craft as batched_craft

    leader = GRID[START if peak is None else peak]

    config = CraftConfig(slope_optimization="none")
    distance = lambda alpha: abs(alpha - GRID[START])  # noqa: E731
    model, balls, specs = _peak_regions()
    contained = 0
    for ball, spec in zip(balls, specs):
        calls = {}
        problem = build_fixpoint_problem(model, ball, spec, config)
        problem.tightening_step_factory = lambda solver, alpha, delta: _Scaling(alpha, peak, calls)
        problem.contraction_factor = distance
        result = CraftVerifier(config).solve(problem)
        if not result.contained:
            continue
        contained += 1
        assert not result.certified
        assert list(calls) == _walk(peak)
        assert result.selected_alpha2 == leader
        assert calls.pop(leader) == result.iterations_phase2 == PROBE_STEPS + 1
        assert set(calls.values()) == {PROBE_STEPS}
    assert contained >= 3

    calls = {}
    make_step = batched_craft.make_batched_abstract_step

    def scaled_phase_two(model, layout, inputs, solver, alpha, **kwargs):
        if solver == "fb":
            return _Scaling(alpha, peak, calls)
        return make_step(model, layout, inputs, solver, alpha, **kwargs)

    monkeypatch.setattr(batched_craft, "make_batched_abstract_step", scaled_phase_two)
    monkeypatch.setattr(batched_craft, "fb_contraction_factor", lambda model: distance)
    results = BatchedCraft(model, config).certify_regions(balls, specs)
    assert sum(result.contained for result in results) == contained
    assert list(calls) == _walk(peak)
    assert calls.pop(leader) == PROBE_STEPS + 1
    assert set(calls.values()) == {PROBE_STEPS}
    for result in results:
        if result.contained:
            assert not result.certified and result.selected_alpha2 == leader


@pytest.mark.parametrize("single", [dict(alpha2_grid=(0.5,)), dict(solver2="pr")])
def test_a_single_candidate_is_one_run(single):
    problem, counter = _counted(_affine_problem(threshold=2.5))
    result = CraftVerifier(_config(**single)).solve(problem)
    assert not result.certified
    assert len(counter.built) == 1
    assert counter.built[0][1] == result.iterations_phase2


# ----------------------------------------------------------------------
# Resume equals restart, and no flips against the exhaustive search
# ----------------------------------------------------------------------


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
        model = _random_model(seed)
        xs = np.random.default_rng(30 + seed).uniform(-1.0, 1.0, size=(6, model.input_dim))
        yield f"random-{seed}", model, *_regions(model, xs, 0.04, clip=False)
    # Hard cells: a larger alpha leads for the first 3 steps and a smaller
    # one from step 4 on, so a 3-step probe loses 2 of these 12
    # certificates in the CH-Zonotope and Zonotope domains.
    model, dataset = get_model("HCAS-FCx100", "small")
    yield "hcas-small", model, *_regions(model, dataset.x_test[:12], 2.0, clip=False)


def _single_alpha(config, alpha, budget):
    return CraftVerifier(replace(config, alpha2_grid=(alpha,), tighten_max_iterations=budget))


def _exhaustive_search(problem, config):
    """Every grid alpha for 30 steps, then the best-margin alpha (the first
    on ties) restarted at the full budget, keeping the better record.  The
    stop rule is off, so every run that does not certify takes its whole
    budget and the engines' rule is checked against a reference free of it."""
    never_stop = lambda self, step, margin, earlier_margin: False  # noqa: E731
    with mock.patch.object(CraftConfig, "stop_tightening", never_stop):
        probes = [
            _single_alpha(config, alpha, EXHAUSTIVE_PROBE_STEPS).solve(problem)
            for alpha in config.alpha2_grid
        ]
        best = max(probes, key=lambda result: result.margin)
        if best.certified or not best.contained:
            return best
        budget = config.tighten_max_iterations
        full = _single_alpha(config, best.selected_alpha2, budget).solve(problem)
    return best if full.margin < best.margin else full


@pytest.mark.parametrize("domain", ["chzonotope", "zonotope"])
def test_a_resumed_winner_equals_a_restart(domain):
    """An uncertified sample's record is the one a single run of its
    winning alpha at the full budget gives: exactly in the sequential
    driver, and up to the float noise of a different batch composition
    (the engine parity tolerance) in the batched one."""
    config = CraftConfig(domains=(domain,), slope_optimization="none")
    resumed = 0
    for name, model, balls, specs in _corpus():
        batched = BatchedCraft(model, config).certify_regions(balls, specs)
        for ball, spec, raced_batch in zip(balls, specs, batched):
            problem = build_fixpoint_problem(model, ball, spec, config)
            raced = CraftVerifier(config).solve(problem)
            assert raced.certified == raced_batch.certified, name
            if not raced.contained or raced.certified:
                continue
            resumed += 1
            single = replace(config, alpha2_grid=(raced.selected_alpha2,))
            restart = CraftVerifier(single).solve(problem)
            assert raced.selected_alpha2 == restart.selected_alpha2, name
            assert raced.margin == restart.margin, name
            assert raced.iterations_phase2 == restart.iterations_phase2, name
            assert (
                raced.fixpoint_abstraction.width_trace_phase2
                == restart.fixpoint_abstraction.width_trace_phase2
            ), name
            restart = BatchedCraft(model, single).certify_regions([ball], [spec])[0]
            assert raced_batch.selected_alpha2 == restart.selected_alpha2, name
            assert raced_batch.margin == pytest.approx(restart.margin, abs=1e-9), name
    assert resumed > 0, "the corpus resumes no winner; the check is vacuous"


@pytest.mark.tier1
@pytest.mark.parametrize("domain", ["chzonotope", "zonotope", "box"])
def test_no_flips_against_the_exhaustive_search(domain):
    config = CraftConfig(domains=(domain,), slope_optimization="none")
    reference_total = 0
    for name, model, balls, specs in _corpus():
        problems = [build_fixpoint_problem(model, b, s, config) for b, s in zip(balls, specs)]
        reference = [_exhaustive_search(problem, config) for problem in problems]
        sequential = [CraftVerifier(config).solve(problem) for problem in problems]
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
    if domain != "box":
        assert reference_total > 0, "the corpus certifies nothing; the check is vacuous"
