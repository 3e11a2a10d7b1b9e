"""Result aggregation for the batched certification engine.

The engine certifies whole batches of regions; this module collects the
per-region :class:`~repro.core.results.VerificationResult` objects together
with scheduling metadata (cache hits, batch count, wall-clock time) and
derives the throughput-style summary rows the benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.results import VerificationResult


@dataclass
class EngineReport:
    """Aggregated outcome of one scheduler run over a set of regions."""

    results: List[VerificationResult] = field(default_factory=list)
    cache_hits: int = 0
    num_batches: int = 0
    elapsed_seconds: float = 0.0
    num_workers: int = 1
    #: Per-stage accounting rows of an escalation-ladder sweep
    #: (:class:`repro.engine.escalation.StageStats` ``as_row`` dicts,
    #: cheapest stage first); empty for cache-only or legacy reports.
    stages: List[Dict] = field(default_factory=list)

    @property
    def num_regions(self) -> int:
        return len(self.results)

    @property
    def num_contained(self) -> int:
        return sum(result.contained for result in self.results)

    @property
    def num_certified(self) -> int:
        return sum(result.certified for result in self.results)

    @property
    def throughput(self) -> float:
        """Certification queries per second of wall-clock time."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.num_regions / self.elapsed_seconds

    @property
    def mean_margin(self) -> float:
        margins = [result.margin for result in self.results if np.isfinite(result.margin)]
        return float(np.mean(margins)) if margins else float("nan")

    @property
    def stage_counts(self) -> Dict[str, int]:
        """Resolving-stage histogram of the per-query verdicts."""
        from repro.engine.escalation import stage_histogram

        return stage_histogram(self.results)

    def as_row(self) -> Dict:
        """Summary dictionary printed by the benchmark harness."""
        row = {
            "regions": self.num_regions,
            "contained": self.num_contained,
            "certified": self.num_certified,
            "cache_hits": self.cache_hits,
            "batches": self.num_batches,
            "workers": self.num_workers,
            "time": round(self.elapsed_seconds, 3),
            "regions_per_second": round(self.throughput, 2),
        }
        if self.stages:
            row["stages"] = self.stages
        return row
