"""Ablation study on Craft's components (Table 4).

Each row disables or modifies one component of the reference configuration
(CH-Zonotope with PR-then-FB, slope optimisation, expansion) and re-runs the
local-robustness evaluation on the FCx87-scale model:

* ``no_zono_component``  — Box domain only (``domains=("box",)``).
* ``no_box_component``   — CH-Zonotope without the Box error vector, which
  is the plain Zonotope pipeline (``domains=("zonotope",)``): fresh ReLU
  error terms become generator columns.
* ``only_pr`` / ``only_fb`` — a single operator-splitting method for both
  phases.
* ``no_lambda_optimization`` / ``reduced_lambda_optimization`` — ReLU slope
  optimisation off / coarse.
* ``same_iteration_containment`` — certification only from states contained
  in their immediate predecessor (no fixpoint-set preservation).
* ``no_expansion`` — expansion disabled (``w_mul = w_add = 0``).
* ``escalation_ladder`` — the per-query domain waterfall (Box → Zonotope →
  CH-Zonotope): same final precision as the reference, cheap stages absorb
  the easy queries; the row's ``stages`` histogram shows where queries
  resolved.

Every row's sweep routes through the multi-domain batched certification
engine by default (``engine="batched"``) — the Box rows batch exactly like
the CH-Zonotope rows since the engine dispatches on ``CraftConfig.domains``.
``engine="sharded"`` fans each row out over worker processes and
``engine="sequential"`` restores the per-sample reference loop; all engines
produce identical counts (the parity contract).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import CraftConfig
from repro.core.results import VerificationOutcome
from repro.experiments.model_zoo import get_model
from repro.verify.robustness import certify_local_robustness

ABLATION_NAMES: Sequence[str] = (
    "reference",
    "no_zono_component",
    "no_box_component",
    "only_pr",
    "only_fb",
    "no_lambda_optimization",
    "reduced_lambda_optimization",
    "same_iteration_containment",
    "no_expansion",
    "escalation_ladder",
)

_SAMPLES_BY_SCALE = {"smoke": 4, "small": 16, "full": 40}


def run_table4(
    scale: str = "small",
    model_name: str = "FCx87",
    epsilon: float = 0.05,
    ablations: Optional[Sequence[str]] = None,
    max_samples: Optional[int] = None,
    engine: str = "batched",
    num_workers: Optional[int] = None,
) -> List[Dict]:
    """Containment count, certified count and mean runtime per ablation.

    ``engine`` selects the execution strategy for every row's sweep
    (``"batched"`` by default; ``"sharded"`` / ``"sequential"`` as in
    :func:`repro.verify.robustness.certify_local_robustness`).
    Misclassified samples are excluded from the per-row statistics, exactly
    as in the sequential implementation — the engines' prediction pass
    short-circuits them with a ``MISCLASSIFIED`` outcome.
    """
    model, dataset = get_model(model_name, scale)
    if ablations is None:
        ablations = ABLATION_NAMES if scale != "smoke" else ("reference", "no_zono_component")
    if max_samples is None:
        max_samples = _SAMPLES_BY_SCALE[scale]
    xs = dataset.x_test[:max_samples]
    ys = dataset.y_test[:max_samples].astype(int)

    rows = []
    for name in ablations:
        config = CraftConfig.ablation(name)
        results = certify_local_robustness(
            model, xs, ys, epsilon, config, engine=engine, num_workers=num_workers
        )
        evaluated = [
            result
            for result in results
            if result.outcome != VerificationOutcome.MISCLASSIFIED
        ]
        from repro.engine.escalation import stage_histogram

        rows.append(
            {
                "ablation": name,
                "evaluated": len(evaluated),
                "contained": sum(result.contained for result in evaluated),
                "certified": sum(result.certified for result in evaluated),
                "time": (
                    float(np.mean([result.time_seconds for result in evaluated]))
                    if evaluated
                    else 0.0
                ),
                # Resolving-stage histogram: single-domain rows collapse to
                # one stage; the escalation_ladder row shows the waterfall.
                "stages": stage_histogram(evaluated),
            }
        )
    return rows
