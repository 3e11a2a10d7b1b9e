"""Sharded certification: fan a sweep out to a pool of worker processes.

Run with ``python examples/sharded_sweep.py``.  The script

1. trains a small monDEQ on a synthetic Gaussian-mixture task,
2. certifies 48 l-infinity balls with the single-process batched engine,
3. certifies the same balls through the multi-process ``ShardedScheduler``
   (weights shipped to each worker once, shards streamed back as they
   finish) and checks the verdicts agree,
4. sets the shard width explicitly (the default is 256 regions per
   shard, split further so every worker gets one), and
5. re-runs the sweep against the shared on-disk fixpoint cache, which all
   workers write concurrently (atomic per-entry publication — no locks).
"""

import os
import tempfile
import time

import numpy as np

from repro import CraftConfig, MonDEQ, ShardedScheduler
from repro.datasets.gaussian import make_gaussian_mixture
from repro.engine import DEFAULT_BATCH_SIZE, BatchCertificationScheduler
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
    config = CraftConfig(slope_optimization="none")
    print(f"certifying {len(eval_xs)} regions at eps={epsilon}")

    print("\n=== 2. single-process batched engine ===")
    start = time.perf_counter()
    batched = BatchCertificationScheduler(model, config).certify(eval_xs, eval_ys, epsilon)
    batched_time = time.perf_counter() - start
    print(f"{batched.num_certified} certified in {batched_time:.2f}s — {batched.as_row()}")

    print("\n=== 3. sharded scheduler ===")
    workers = min(4, os.cpu_count() or 1)
    with ShardedScheduler(model, config, num_workers=workers) as scheduler:
        start = time.perf_counter()
        sharded = scheduler.certify(eval_xs, eval_ys, epsilon)
        sharded_time = time.perf_counter() - start
    agree = all(b.outcome == s.outcome for b, s in zip(batched.results, sharded.results))
    print(f"{sharded.num_certified} certified in {sharded_time:.2f}s over "
          f"{sharded.num_workers} workers / {sharded.num_batches} shards — "
          f"verdicts agree: {agree}")

    print("\n=== 4. explicit shard width ===")
    with ShardedScheduler(model, config, num_workers=workers, batch_size=4) as scheduler:
        narrow = scheduler.certify(eval_xs, eval_ys, epsilon)
    agree = all(b.outcome == n.outcome for b, n in zip(batched.results, narrow.results))
    print(f"batch_size=4 (default {DEFAULT_BATCH_SIZE}): {narrow.num_batches} shards — "
          f"verdicts agree: {agree}")

    print("\n=== 5. shared fixpoint cache across workers ===")
    with tempfile.TemporaryDirectory() as cache_dir:
        with ShardedScheduler(
            model, config, num_workers=workers, cache_dir=cache_dir
        ) as scheduler:
            cold = scheduler.certify(eval_xs, eval_ys, epsilon)
            warm = scheduler.certify(eval_xs, eval_ys, epsilon)
        print(f"cold run: {cold.as_row()}")
        print(f"warm run: {warm.as_row()}")
        assert warm.cache_hits == len(eval_xs)


if __name__ == "__main__":
    np.set_printoptions(precision=4, suppress=True)
    main()
