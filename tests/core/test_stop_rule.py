"""The phase-two stop rule (``CraftConfig.stop_tightening``).

After a usable step ``t`` at which a sample has not certified, both Craft
drivers stop it once ``m + (B - t) (m - m') / PROBE_STEPS <= 0``: ``m`` is
its best margin, ``m'`` its best margin ``PROBE_STEPS`` usable steps
earlier and ``B`` the phase-two budget.  Four properties pin that:

* **A flat margin stops after one window**: the winner of the race takes
  ``PROBE_STEPS + 1`` steps, not the whole budget.
* **A steady climber is not cut**: a margin that rises by a constant step
  and crosses 0 near step 120 of 150 certifies in both drivers.
* **The window counts usable steps**: under the same-iteration-containment
  ablation the FCx40 smoke certificate reached at phase-two step 6 stays.
  The ablation rejects the states of steps 2-5 there, so a window of four
  wall steps sees no gain at step 5 and loses it.
* **One rule in both drivers**: sequential and batched phase-two counts
  are equal per sample.
"""

import numpy as np
import pytest
from test_alpha_race import _regions

import repro.engine.craft as batched_craft
from repro.core.config import PROBE_STEPS, CraftConfig
from repro.core.craft import CraftVerifier
from repro.engine import BatchedCraft
from repro.experiments.model_zoo import get_model
from repro.mondeq.model import MonDEQ
from repro.verify.robustness import build_fixpoint_problem
from repro.verify.specs import ClassificationSpec, LinfBall

BUDGET = CraftConfig().tighten_max_iterations


def test_the_rule_extrapolates_the_window_gain():
    config = CraftConfig()
    # Before a full window the earlier margin is -inf: keep going, also at
    # the budget's last step.
    assert not config.stop_tightening(PROBE_STEPS, -1.0, -np.inf)
    assert not config.stop_tightening(BUDGET, -1.0, -np.inf)
    # No gain: stop unless the margin is already positive.
    assert config.stop_tightening(PROBE_STEPS + 1, -1e-12, -1e-12)
    # A linear climber stops when its margin at the budget is <= 0.
    gain, step = 1.0 / 128.0, 100
    for final in (-1.0 / 64.0, 0.0, 1.0 / 64.0):
        margin = final - (BUDGET - step) * gain
        earlier = margin - PROBE_STEPS * gain
        assert config.stop_tightening(step, margin, earlier) == (final <= 0.0)
    # Arrays decide per row, as in the batched driver.
    stops = config.stop_tightening(10, np.array([-1.0, -1.0]), np.array([-1.0, -np.inf]))
    assert stops.tolist() == [True, False]


# ----------------------------------------------------------------------
# Synthetic phase-two margins, in both drivers
# ----------------------------------------------------------------------


def _constant_model(gap):
    """A 1-input, 1-latent, 2-class monDEQ with fixpoint ``z* = 2`` for every
    input, whose class-0 margin at a state ``z`` is ``z - 2 + gap``."""
    zero = np.zeros((1, 1))
    return MonDEQ(
        zero, zero, zero, np.array([2.0]), np.array([[1.0], [0.0]]),
        np.array([gap - 2.0, 0.0]), monotonicity=1.0,
    )


class _ScheduledStep:
    """Phase-two step ``t`` of a run: the box of radius
    ``max(radius - t * decrement, 0)`` around the fixpoint, so the margin
    is ``gap - radius + t * decrement`` until the radius reaches 0.  Works
    on sequential elements and batched stacks; a narrowed batched run
    keeps counting."""

    def __init__(self, radius, decrement):
        self.radius = radius
        self.decrement = decrement
        self.steps = 0

    def select(self, rows):
        return self

    def __call__(self, state):
        self.steps += 1
        rho = max(self.radius - self.steps * self.decrement, 0.0)
        lower, _ = state.concretize_bounds()
        centre = np.full_like(lower, 2.0)
        if hasattr(state, "batch_size"):
            return type(state).from_bounds(centre - rho, centre + rho)
        return type(state).from_center_radius(centre, rho)


def _certify(driver, monkeypatch, gap, radius, decrement):
    """One region of the constant model through ``driver`` with the
    scheduled phase-two step (phase one runs the model's own step)."""
    model = _constant_model(gap)
    config = CraftConfig(slope_optimization="none")
    ball = LinfBall(np.array([0.5]), 0.1, None, None)
    spec = ClassificationSpec(0, 2)
    if driver == "sequential":
        problem = build_fixpoint_problem(model, ball, spec, config)
        problem.tightening_step_factory = lambda *_: _ScheduledStep(radius, decrement)
        return CraftVerifier(config).solve(problem)
    build = batched_craft.make_batched_abstract_step

    def factory(*args, **kwargs):
        if "slope_delta" in kwargs:  # a phase-two run
            return _ScheduledStep(radius, decrement)
        return build(*args, **kwargs)

    monkeypatch.setattr(batched_craft, "make_batched_abstract_step", factory)
    return BatchedCraft(model, config).certify_regions([ball], [spec])[0]


@pytest.mark.parametrize("driver", ["sequential", "batched"])
def test_a_flat_margin_stops_after_one_window(driver, monkeypatch):
    result = _certify(driver, monkeypatch, gap=-0.5, radius=0.1, decrement=0.0)
    assert result.contained and not result.certified
    assert result.margin == pytest.approx(-0.6)
    assert result.iterations_phase2 == PROBE_STEPS + 1


@pytest.mark.parametrize("driver", ["sequential", "batched"])
def test_a_steady_climber_still_certifies(driver, monkeypatch):
    # The margin is t/128 - 0.94: it crosses 0 between steps 120 and 121.
    result = _certify(driver, monkeypatch, gap=0.25, radius=1.19, decrement=1.0 / 128.0)
    assert result.certified
    assert result.iterations_phase2 == 121


# ----------------------------------------------------------------------
# Real models
# ----------------------------------------------------------------------


def _sequential(model, balls, specs, config):
    return [
        CraftVerifier(config).solve(build_fixpoint_problem(model, ball, spec, config))
        for ball, spec in zip(balls, specs)
    ]


def test_same_iteration_containment_keeps_its_late_certificates(monkeypatch):
    model, dataset = get_model("FCx40", "smoke")
    config = CraftConfig(same_iteration_containment=True, slope_optimization="none")
    balls, specs = _regions(model, dataset.x_test, 0.05, clip=True)
    sequential = _sequential(model, balls, specs, config)
    batched = BatchedCraft(model, config).certify_regions(balls, specs)
    # The reference runs without the rule: every uncertified run takes its whole budget.
    monkeypatch.setattr(CraftConfig, "stop_tightening", lambda self, *args: False)
    reference = _sequential(model, balls, specs, config)
    late = [r for r in reference if r.certified and r.iterations_phase2 > PROBE_STEPS]
    assert late, "no certificate after the race probes; the check is vacuous"
    for rule, free, bat in zip(sequential, reference, batched):
        assert rule.certified == free.certified == bat.certified
        assert rule.iterations_phase2 == bat.iterations_phase2
        if free.certified:
            assert rule.iterations_phase2 == free.iterations_phase2


@pytest.mark.parametrize("name", ["fcx40", "random"])
def test_both_drivers_stop_at_the_same_step(name):
    if name == "fcx40":
        model, dataset = get_model("FCx40", "smoke")
        balls, specs = _regions(model, dataset.x_test, 0.05, clip=True)
    else:
        model = MonDEQ.random(input_dim=6, latent_dim=12, output_dim=4, monotonicity=5.0, seed=3)
        xs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(16, model.input_dim))
        balls, specs = _regions(model, xs, 0.05, clip=False)
    config = CraftConfig(slope_optimization="none")
    sequential = _sequential(model, balls, specs, config)
    batched = BatchedCraft(model, config).certify_regions(balls, specs)
    assert [r.certified for r in sequential] == [r.certified for r in batched]
    assert [r.iterations_phase2 for r in sequential] == [r.iterations_phase2 for r in batched]
    stopped = [r for r in sequential if r.contained and not r.certified]
    assert stopped, "every region certifies; the check is vacuous"
    assert all(r.iterations_phase2 < BUDGET for r in stopped)
