"""Escalation waterfall vs pure CH-Zonotope sweep (the PR 4 acceptance run).

Two deliverables per run:

* **Acceptance row** — the Box → Zonotope → CH-Zonotope ladder against the
  pure CH-Zonotope batched sweep on the HCAS smoke benchmark: asserted
  ≥2x faster at an equal-or-better certified count with **zero**
  certified/falsified verdict flips (the ladder's no-flip contract — its
  final stage is exactly the pure sweep's configuration).  Each arm is
  timed as the best of :data:`PASSES` passes.
* **Mixed-hardness row** — a sweep whose regions span trivial to hopeless
  radii, so the waterfall actually climbs: the per-stage histogram shows
  the cheap stages absorbing the easy queries and only the hard residue
  paying CH-Zonotope cost.

Rows are appended to ``BENCH_escalation.json`` (``$BENCH_OUTPUT_DIR`` or
the working directory), the same perf-trajectory scheme as the other
engine benchmarks; ``scripts/plot_bench_trajectory.py`` graphs all of
them together.
"""

import time

import numpy as np

from _harness import append_trajectory, run_once

from repro.core.config import CraftConfig
from repro.core.results import VerificationOutcome
from repro.engine import BatchCertificationScheduler
from repro.experiments.model_zoo import get_model
from repro.verify.robustness import certify_local_robustness
from repro.verify.specs import ClassificationSpec, LinfBall

LADDER = ("box", "zonotope", "chzonotope")
#: Passes per arm of the acceptance row; each arm reports its fastest.
PASSES = 5


def _count_flips(pure, ladder):
    """Certified→uncertified or falsified-status flips (must be zero)."""
    flips = 0
    for p, l in zip(pure, ladder):
        if p.certified and not l.certified:
            flips += 1
        if (p.outcome == VerificationOutcome.MISCLASSIFIED) != (
            l.outcome == VerificationOutcome.MISCLASSIFIED
        ):
            flips += 1
    return flips


def _best_of(passes, sweep):
    """``(fastest wall-clock, results of the last pass)`` over ``passes`` runs."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        results = sweep()
        times.append(time.perf_counter() - start)
    return min(times), results


def _hcas_sweep(regions=192, epsilon=0.1):
    model, dataset = get_model("HCAS-FCx100", "smoke")
    repeats = regions // len(dataset.x_test) + 1
    xs = np.vstack([dataset.x_test] * repeats)[:regions]
    ys = np.concatenate([dataset.y_test] * repeats)[:regions].astype(int)
    return model, xs, ys, epsilon


def _acceptance_row():
    """Pure CH-Zonotope vs ladder wall clock on the HCAS smoke sweep."""
    model, xs, ys, epsilon = _hcas_sweep()

    # Warm-up: first-touch BLAS initialisation must not bias either side.
    warm = CraftConfig(slope_optimization="none")
    certify_local_robustness(model, xs[:2], ys[:2], epsilon, warm, engine="batched")

    pure_config = CraftConfig(slope_optimization="none")
    pure_time, pure = _best_of(
        PASSES,
        lambda: certify_local_robustness(model, xs, ys, epsilon, pure_config, engine="batched"),
    )

    ladder_config = CraftConfig.escalation(LADDER, slope_optimization="none")
    ladder_time, ladder = _best_of(
        PASSES,
        lambda: certify_local_robustness(model, xs, ys, epsilon, ladder_config, engine="batched"),
    )

    stages = {name: 0 for name in LADDER}
    for result in ladder:
        if result.stage is not None:
            stages[result.stage] += 1
    return {
        "workload": "HCAS-FCx100 smoke sweep",
        "regions": len(xs),
        "epsilon": epsilon,
        "passes": PASSES,
        "pure_time": round(pure_time, 4),
        "ladder_time": round(ladder_time, 4),
        "speedup": round(pure_time / ladder_time, 2),
        "pure_certified": sum(r.certified for r in pure),
        "ladder_certified": sum(r.certified for r in ladder),
        "verdict_flips": _count_flips(pure, ladder),
        "stages": stages,
    }


def _mixed_hardness_row():
    """A sweep spanning trivial to hopeless radii — the waterfall climbs.

    The wide-input FCx40 model is used here because its interval (Box)
    iteration genuinely fails on the harder radii: the cheap stage absorbs
    the tiny-radius queries and the residue escalates, which is the
    scenario-diversity half of the PR's payoff (the HCAS acceptance row is
    so Box-friendly that nothing ever climbs).
    """
    model, dataset = get_model("FCx40", "smoke")
    xs = dataset.x_test[:16]
    predictions = model.predict_batch(xs)
    radii = np.tile([1e-3, 0.01, 0.05, 0.1], len(xs) // 4 + 1)[: len(xs)]
    balls = [
        LinfBall(center=x, epsilon=float(r), clip_min=0.0, clip_max=1.0)
        for x, r in zip(xs, radii)
    ]
    specs = [
        ClassificationSpec(target=int(p), num_classes=model.output_dim)
        for p in predictions
    ]

    from repro.engine.craft import BatchedCraft

    pure_config = CraftConfig(slope_optimization="none")
    start = time.perf_counter()
    pure = BatchedCraft(model, pure_config).certify_regions(balls, specs)
    pure_time = time.perf_counter() - start

    ladder = BatchCertificationScheduler(
        model, CraftConfig.escalation(LADDER, slope_optimization="none")
    )
    start = time.perf_counter()
    escalated = ladder.certify_regions(balls, specs)
    ladder_time = time.perf_counter() - start

    return {
        "workload": "FCx40 mixed-hardness regions",
        "regions": len(balls),
        "pure_time": round(pure_time, 3),
        "ladder_time": round(ladder_time, 3),
        "speedup": round(pure_time / ladder_time, 2),
        "pure_certified": sum(r.certified for r in pure),
        "ladder_certified": sum(r.certified for r in escalated),
        "verdict_flips": _count_flips(pure, escalated),
        "stage_rows": [stats.as_row() for stats in ladder.stage_stats],
    }


def test_escalation_waterfall(benchmark, record_rows):
    def experiment():
        return _acceptance_row(), _mixed_hardness_row()

    acceptance, mixed = run_once(benchmark, experiment)
    record_rows("Escalation ladder vs pure CH-Zonotope (HCAS smoke)", [acceptance])
    record_rows("Mixed-hardness waterfall (per-stage accounting)", [mixed])
    append_trajectory("escalation", {"acceptance": acceptance, "mixed_hardness": mixed})

    # The ladder's no-flip contract is unconditional; the ≥2x wall-clock
    # bound at an equal-or-better certified count is the PR's acceptance
    # criterion.
    assert acceptance["verdict_flips"] == 0
    assert mixed["verdict_flips"] == 0
    assert acceptance["ladder_certified"] >= acceptance["pure_certified"]
    assert acceptance["speedup"] >= 2.0
    # The mixed-hardness sweep must genuinely climb: at least one query
    # resolved in every configured stage.
    attempted = {row["domain"]: row["attempted"] for row in mixed["stage_rows"]}
    assert all(attempted[name] > 0 for name in LADDER)
