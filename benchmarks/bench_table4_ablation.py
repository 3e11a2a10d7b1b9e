"""Table 4 — ablation study on Craft's components, multi-domain and batched.

Two deliverables per run:

* **Ablation rows** (smoke scale): containment / certified counts per
  ablation configuration, now routed through the multi-domain batched
  engine — including the Box-domain ``no_zono_component`` row, which used
  to fall back to the sequential loop.
* **Engine sweep row**: a Table-4-style multi-domain sweep (CH-Zonotope,
  Box and plain Zonotope over the same regions) timed once through the
  sequential reference loop and once through the batched engine, with
  per-query verdict parity asserted and an aggregate ≥2x wall-clock
  acceptance bound — the ROADMAP "Batched engine coverage" item this
  generalisation closes.

The row dictionaries are appended to ``BENCH_table4_ablation.json``
(``$BENCH_OUTPUT_DIR`` or the working directory), mirroring the
``BENCH_sharded_engine.json`` perf trajectory that CI uploads as an
artifact.
"""

import time

import numpy as np

from _harness import append_trajectory, run_once

from repro.core.config import CraftConfig
from repro.experiments.ablation import run_table4
from repro.experiments.model_zoo import get_model
from repro.verify.robustness import certify_local_robustness

DOMAINS = ("chzonotope", "box", "zonotope")


def _engine_sweep_row(regions=24, epsilon=0.03):
    """Sequential-vs-batched wall clock over a multi-domain sweep."""
    model, dataset = get_model("HCAS-FCx100", "smoke")
    repeats = regions // len(dataset.x_test) + 1
    xs = np.vstack([dataset.x_test] * repeats)[:regions]
    ys = np.concatenate([dataset.y_test] * repeats)[:regions].astype(int)

    # Warm-up: first-touch BLAS initialisation must not bias either side.
    warm = CraftConfig(slope_optimization="none")
    certify_local_robustness(model, xs[:2], ys[:2], epsilon, warm, engine="batched")

    row = {"workload": "HCAS-FCx100 multi-domain sweep", "regions": regions, "epsilon": epsilon}
    sequential_total = 0.0
    batched_total = 0.0
    mismatches = 0
    for domain in DOMAINS:
        config = CraftConfig(domains=(domain,), slope_optimization="none")

        start = time.perf_counter()
        sequential = certify_local_robustness(
            model, xs, ys, epsilon, config, engine="sequential"
        )
        sequential_time = time.perf_counter() - start

        start = time.perf_counter()
        batched = certify_local_robustness(model, xs, ys, epsilon, config, engine="batched")
        batched_time = time.perf_counter() - start

        mismatches += sum(
            s.outcome != b.outcome or s.certified != b.certified or s.contained != b.contained
            for s, b in zip(sequential, batched)
        )
        sequential_total += sequential_time
        batched_total += batched_time
        row[f"{domain}_sequential_time"] = round(sequential_time, 3)
        row[f"{domain}_batched_time"] = round(batched_time, 3)
        row[f"{domain}_speedup"] = round(sequential_time / batched_time, 2)
        row[f"{domain}_certified"] = sum(r.certified for r in batched)
    row["sequential_time"] = round(sequential_total, 3)
    row["batched_time"] = round(batched_total, 3)
    row["speedup"] = round(sequential_total / batched_total, 2)
    row["verdict_mismatches"] = mismatches
    return row


def test_table4_ablation(benchmark, record_rows):
    def experiment():
        ablation_rows = run_table4(
            scale="smoke",
            epsilon=0.03,
            ablations=("reference", "no_zono_component", "only_pr", "no_expansion"),
        )
        return ablation_rows, _engine_sweep_row()

    ablation_rows, sweep = run_once(benchmark, experiment)
    record_rows("Table 4 (smoke scale): cont / cert / time per ablation", ablation_rows)
    record_rows("Multi-domain engine sweep (sequential vs batched)", [sweep])
    append_trajectory("table4_ablation", {"ablations": ablation_rows, "engine_sweep": sweep})

    by_name = {row["ablation"]: row for row in ablation_rows}
    assert by_name["no_zono_component"]["certified"] <= by_name["reference"]["certified"]
    # Engine parity is unconditional; the ≥2x wall-clock bound is the
    # acceptance criterion for the domain-generic batched engine.
    assert sweep["verdict_mismatches"] == 0
    assert sweep["speedup"] >= 2.0
