"""Per-query domain escalation: one sweep spanning the precision ladder.

Run with ``python examples/escalation_sweep.py``.  The script

1. trains a small monDEQ on a synthetic Gaussian-mixture task,
2. certifies a sweep with the pure CH-Zonotope batched engine (every
   query pays full precision),
3. re-runs the same sweep as a Box → Zonotope → CH-Zonotope **waterfall**
   (``CraftConfig.escalation()``): queries start in the cheapest domain
   and only the unresolved residue climbs — certified counts match, the
   expensive stack shrinks to the hard queries,
4. prints the per-stage accounting (attempted / resolved / escalated and
   the batch size every stage shares), and
5. replays the sweep from the on-disk fixpoint cache: cached verdicts
   carry their resolving stage, so nothing re-climbs the ladder.
"""

import tempfile
import time

import numpy as np

from repro import CraftConfig, MonDEQ
from repro.datasets.gaussian import make_gaussian_mixture
from repro.engine import BatchCertificationScheduler
from repro.mondeq.training import TrainingConfig, train


def main() -> None:
    print("=== 1. data and model ===")
    xs, ys = make_gaussian_mixture(num_samples=220, input_dim=5, num_classes=3, seed=7)
    model = MonDEQ.random(input_dim=5, latent_dim=8, output_dim=3, monotonicity=8.0, seed=5)
    train(model, xs[:150], ys[:150],
          TrainingConfig(epochs=15, batch_size=32, learning_rate=5e-3, solver_tol=1e-6),
          seed=0)
    eval_xs, eval_ys = xs[150:198], ys[150:198].astype(int)
    epsilon = 0.05
    print(f"certifying {len(eval_xs)} regions at eps={epsilon}")

    print("\n=== 2. pure CH-Zonotope sweep (every query pays full precision) ===")
    pure_config = CraftConfig(slope_optimization="none")
    start = time.perf_counter()
    pure = BatchCertificationScheduler(model, pure_config).certify(eval_xs, eval_ys, epsilon)
    pure_time = time.perf_counter() - start
    print(f"{pure.num_certified} certified in {pure_time:.2f}s")

    print("\n=== 3. escalation waterfall (cheap domains absorb the easy queries) ===")
    ladder_config = CraftConfig.escalation(slope_optimization="none")
    scheduler = BatchCertificationScheduler(model, ladder_config)
    start = time.perf_counter()
    ladder = scheduler.certify(eval_xs, eval_ys, epsilon)
    ladder_time = time.perf_counter() - start
    flips = sum(
        p.certified and not l.certified for p, l in zip(pure.results, ladder.results)
    )
    chz_row = next(row for row in ladder.stages if row["domain"] == "chzonotope")
    print(f"{ladder.num_certified} certified in {ladder_time:.2f}s — "
          f"certified verdict flips: {flips}")
    print(f"resolving stages: {ladder.stage_counts} — the CH-Zonotope stack "
          f"shrank from {len(pure.results)} queries to the "
          f"{chz_row['attempted']}-query hard residue (on HCAS-scale sweeps "
          f"that is the >2x win benchmarks/bench_escalation.py asserts)")

    print("\n=== 4. per-stage accounting ===")
    print(f"batch size of every stage: {scheduler.batch_size}")
    for row in ladder.stages:
        print(f"  {row['domain']:>11}: attempted={row['attempted']:>3} "
              f"resolved={row['resolved']:>3} certified={row['certified']:>3} "
              f"escalated={row['escalated']:>3} ({row['time']:.3f}s)")

    print("\n=== 5. cached verdicts replay at their resolving stage ===")
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = BatchCertificationScheduler(
            model, ladder_config, cache_dir=cache_dir
        ).certify(eval_xs, eval_ys, epsilon)
        warm = BatchCertificationScheduler(
            model, ladder_config, cache_dir=cache_dir
        ).certify(eval_xs, eval_ys, epsilon)
        assert warm.cache_hits == len(eval_xs) and warm.num_batches == 0
        print(f"cold: {cold.num_batches} batches; "
              f"warm: {warm.cache_hits} cache hits, {warm.num_batches} batches "
              f"(no ladder re-climb), stages preserved: "
              f"{warm.stage_counts == cold.stage_counts}")


if __name__ == "__main__":
    np.set_printoptions(precision=4, suppress=True)
    main()
