"""Correctness check, run outside the timed passes.

On a seeded subsample of a workload's answered queries:

(a) the verdict is compared with the sequential ``certify_sample``
    reference.  Engine verdicts and exact cache replays must match its
    outcome.  A verdict served by cache dominance may be more precise
    than a fresh analysis of the smaller region, so it only must not be
    *less* precise: the reference may not certify a region the cache did
    not.
(b) every certified region of the subsample is attacked: random corners
    of its clipped box, then the PGD attack of :mod:`repro.mondeq.attacks`.
    Any input the model misclassifies falsifies the certificate.

Each failed query counts towards ``failed_share``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import CraftConfig
from repro.core.results import VerificationResult
from repro.mondeq.attacks import PGDConfig, pgd_attack
from repro.mondeq.model import MonDEQ
from repro.verify.robustness import certify_sample

CORNERS = 64


@dataclass
class Query:
    """One answered region query of a workload run."""

    center: np.ndarray
    label: int
    epsilon: float
    result: Optional[VerificationResult]


def falsified(model: MonDEQ, query: Query, seed: int) -> bool:
    """Whether box corners or PGD find a misclassified input in the region."""
    rng = np.random.default_rng([seed, 4])
    lower = np.clip(query.center - query.epsilon, 0.0, 1.0)
    upper = np.clip(query.center + query.epsilon, 0.0, 1.0)
    corners = np.where(rng.random((CORNERS, query.center.size)) < 0.5, lower, upper)
    if np.any(model.predict_batch(corners) != query.label):
        return True
    return pgd_attack(model, query.center, query.label, query.epsilon, PGDConfig(), seed=rng).success


def check(model: MonDEQ, config: CraftConfig, queries: List[Query], seed: int) -> List[str]:
    """Return one line per failed query of ``queries`` (empty when all pass).

    Queries without a verdict are skipped: the run already counted them
    as failed.
    """
    failures = []
    for position, query in enumerate(queries):
        served = query.result
        if served is None:
            continue
        reasons = []
        reference = certify_sample(model, query.center, query.label, query.epsilon, config)
        if served.cache_tier == "dominance":
            if reference.certified and not served.certified:
                reasons.append(f"dominance verdict {served.outcome.value}, reference certifies")
        elif served.outcome != reference.outcome:
            reasons.append(f"verdict {served.outcome.value}, reference {reference.outcome.value}")
        if served.certified and falsified(model, query, seed + position):
            reasons.append("certified region falsified")
        if reasons:
            failures.append(f"query {position}: " + "; ".join(reasons))
    return failures
