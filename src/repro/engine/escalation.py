"""Per-query domain escalation: the mixed-domain waterfall scheduler.

The paper's Table 4 shows the precision/cost ladder Box → Zonotope →
CH-Zonotope: the cheap domains certify many queries in a fraction of the
time, and only the hard residue needs the expensive domain.  Until PR 4
the engines fixed **one** domain per sweep (``CraftConfig.domain``), so
every query paid CH-Zonotope cost even when Box would have certified it.

This module moves the domain choice into the scheduler.  An **escalation
ladder** (``CraftConfig.domains``, cheapest first) is run as a waterfall:

1. every query starts in the first (cheapest) configured domain;
2. queries whose verdict is *resolved* — ``VERIFIED`` (a sound
   certificate in any domain is final) or ``MISCLASSIFIED`` (falsified by
   the concrete network, domain-independent) — exit the waterfall early;
3. queries that come back ``UNKNOWN``, ``NO_CONTAINMENT`` or ``DIVERGED``
   are re-enqueued into the next, more precise stage;
4. the last stage's verdict is final whatever it is.

Because the final stage runs the exact single-domain configuration a pure
sweep would have used, a ladder ending in ``"chzonotope"`` can never flip
a certified or falsified verdict relative to the pure CH-Zonotope sweep —
escalation only ever *adds* certificates from cheaper stages.  That
no-flip property is the ladder's acceptance contract
(``tests/engine/test_escalation.py``, ``benchmarks/bench_escalation.py``).

:class:`EscalationLadder` is the single-process waterfall (used by the
batch scheduler and the domain-splitting certifier);
:class:`~repro.engine.sharded.ShardedScheduler` runs the same waterfall
with per-``(stage, batch)`` shards fanned out to worker processes, so
escalated stragglers never serialize a sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import CraftConfig
from repro.core.results import VerificationOutcome, VerificationResult
from repro.exceptions import ConfigurationError
from repro.mondeq.model import MonDEQ
from repro.verify.specs import ClassificationSpec, LinfBall

#: Regions per batch (per shard in the sharded scheduler) of every ladder
#: stage when the caller names no batch size.  Phase two shares the input's
#: error symbols and appends at most ``latent_dim`` columns per step, so a
#: batch's working set stays small; beyond 256 rows the per-batch Python
#: overhead is already negligible.
DEFAULT_BATCH_SIZE = 256


def resolve_batch_size(batch_size: Optional[int]) -> int:
    """``batch_size``, or :data:`DEFAULT_BATCH_SIZE` for ``None``; a
    non-positive size raises :class:`ConfigurationError`."""
    if batch_size is None:
        return DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise ConfigurationError("batch_size must be positive")
    return batch_size


def stage_histogram(results) -> Dict[str, int]:
    """Resolving-stage counts of a result list, cheapest domain first.

    The single shared copy of the histogram every report surface uses
    (:class:`~repro.engine.results.EngineReport`,
    ``RobustnessReport.stage_counts``, the Table 4 ablation rows) — the
    counting rule must not drift between them.  ``None`` stages
    (misclassified queries, which never enter the waterfall) are skipped.
    """
    from repro.core.config import DOMAIN_LADDER

    counts: Dict[str, int] = {}
    for result in results:
        if result is not None and result.stage is not None:
            counts[result.stage] = counts.get(result.stage, 0) + 1
    return {name: counts[name] for name in DOMAIN_LADDER if name in counts}


def should_escalate(result: VerificationResult) -> bool:
    """Whether a stage verdict re-enqueues the query into the next stage.

    Certified verdicts are sound in every domain and falsified verdicts
    (``MISCLASSIFIED``) are decided by the concrete network, so both are
    final; everything else — ``UNKNOWN``, ``NO_CONTAINMENT``,
    ``DIVERGED`` — may be an artefact of the cheap abstraction and climbs
    the ladder.
    """
    return not result.certified and result.outcome is not VerificationOutcome.MISCLASSIFIED


@dataclass
class StageStats:
    """Per-stage accounting of one waterfall sweep.

    ``elapsed_seconds`` is per-stage wall-clock in the single-process
    :class:`EscalationLadder`; the sharded scheduler instead sums the
    *worker-side* shard times of the stage (its shards run concurrently
    and interleave with other stages, so a stage has no well-defined
    wall-clock there) — compare the field across engines as work done,
    not as latency.  The same caveat applies to ``consolidation_seconds``.

    The consolidation counters aggregate the per-driver
    :class:`~repro.engine.craft.ConsolidationStats`.  ``peak_error_terms``
    is the largest generator-stack width any query of the stage streamed.
    """

    domain: str
    batch_size: int = 0
    attempted: int = 0
    resolved: int = 0
    certified: int = 0
    escalated: int = 0
    batches: int = 0
    elapsed_seconds: float = 0.0
    consolidations: int = 0
    consolidation_seconds: float = 0.0
    peak_error_terms: int = 0
    #: Queries this stage never ran because a *dominating* cache entry —
    #: a certified superset region, or a falsifying point inside the
    #: query — resolved in this stage's domain answered them
    #: (:mod:`repro.engine.cache_dominance`).  Attributed by the serving
    #: entry's resolving stage via :func:`fold_dominance_hits`.
    cache_dominance_hits: int = 0
    #: Total phase-one iterations the stage's queries ran.
    phase1_iterations: int = 0

    def record_consolidation(self, stats) -> None:
        """Fold one driver run's ``ConsolidationStats`` into this stage."""
        self.consolidations += stats.events
        self.consolidation_seconds += stats.seconds

    def record_results(self, results) -> None:
        """Fold a batch's phase-one iterations and error-term peaks."""
        for result in results:
            if result is None:
                continue
            self.phase1_iterations += result.iterations_phase1
            if result.peak_error_terms:
                self.peak_error_terms = max(
                    self.peak_error_terms, result.peak_error_terms
                )

    def as_row(self) -> Dict:
        return {
            "domain": self.domain,
            "batch_size": self.batch_size,
            "attempted": self.attempted,
            "resolved": self.resolved,
            "certified": self.certified,
            "escalated": self.escalated,
            "batches": self.batches,
            "time": round(self.elapsed_seconds, 3),
            "consolidations": self.consolidations,
            "consolidation_time": round(self.consolidation_seconds, 3),
            "peak_error_terms": self.peak_error_terms,
            "cache_dominance_hits": self.cache_dominance_hits,
            "phase1_iterations": self.phase1_iterations,
        }


def fold_dominance_hits(stage_rows: List[Dict], results) -> List[Dict]:
    """Attribute dominance-served verdicts to per-stage accounting rows.

    A dominance hit replays the serving entry's resolving stage, so it is
    counted against that stage's row (the stage whose work the cache
    saved).  Rows are copied, never mutated in place; stages that only
    appear through dominance hits (e.g. a sweep answered entirely from
    the cache, where no ladder ran) get a synthesised row, appended in
    ladder order.  Misclassified-point serves carry no stage (they never
    entered a waterfall) and are not attributed.
    """
    from repro.core.config import DOMAIN_LADDER

    hits: Dict[str, int] = {}
    for result in results:
        if (
            result is not None
            and result.cache_tier == "dominance"
            and result.stage is not None
        ):
            hits[result.stage] = hits.get(result.stage, 0) + 1
    if not hits:
        return stage_rows
    rows = [dict(row) for row in stage_rows]
    by_domain = {row["domain"]: row for row in rows}
    for name in DOMAIN_LADDER:
        if name in hits and name not in by_domain:
            row = StageStats(domain=name).as_row()
            rows.append(row)
            by_domain[name] = row
    for name, count in hits.items():
        if name in by_domain:
            by_domain[name]["cache_dominance_hits"] = (
                by_domain[name].get("cache_dominance_hits", 0) + count
            )
    return rows


class EscalationLadder:
    """Single-process waterfall over the stages of ``config.domains``.

    Each stage owns a :class:`~repro.engine.craft.BatchedCraft` built from
    the stage's single-domain configuration
    (:meth:`CraftConfig.stage_config`); every stage certifies in chunks of
    ``batch_size`` rows (``None``: :data:`DEFAULT_BATCH_SIZE`).  A
    singleton ladder degrades to exactly the pre-escalation batched sweep.

    ``stage_stats`` holds the per-stage accounting of the most recent
    :meth:`certify_boxes` call (the schedulers surface it through
    :class:`~repro.engine.results.EngineReport`).
    """

    def __init__(
        self,
        model: MonDEQ,
        config: Optional[CraftConfig] = None,
        batch_size: Optional[int] = None,
    ):
        from repro.engine.craft import BatchedCraft

        self.model = model
        self.config = config if config is not None else CraftConfig()
        self.batch_size = resolve_batch_size(batch_size)
        self._stage_configs = self.config.stage_configs()
        self._crafts = [
            BatchedCraft(model, stage_config) for stage_config in self._stage_configs
        ]
        self.stage_stats: List[StageStats] = []
        self.num_batches: int = 0

    @property
    def domains(self) -> Sequence[str]:
        return self.config.domains

    # ------------------------------------------------------------------
    # Entry points (signature-compatible with BatchedCraft)
    # ------------------------------------------------------------------

    def certify(
        self,
        xs: np.ndarray,
        labels: np.ndarray,
        epsilon: float,
        clip_min: Optional[float] = 0.0,
        clip_max: Optional[float] = 1.0,
    ) -> List[VerificationResult]:
        """Waterfall counterpart of :meth:`BatchedCraft.certify`.

        One shared prediction pass short-circuits misclassified queries
        (the solver parameters are ladder-invariant, so its anchors are
        valid for every stage); the correctly classified rows then climb
        the ladder as arrays (:meth:`certify_boxes`).
        """
        from repro.engine.craft import certify_sweep

        return certify_sweep(self, xs, labels, epsilon, clip_min, clip_max)

    def certify_regions(
        self,
        balls: Sequence[LinfBall],
        specs: Sequence[ClassificationSpec],
        anchor_fixpoints: Optional[np.ndarray] = None,
    ) -> List[VerificationResult]:
        """Run the waterfall for every (precondition, postcondition) pair:
        the pairs are checked and converted onto :meth:`certify_boxes`
        (:func:`~repro.engine.craft.region_arrays`); an empty input returns ``[]``."""
        from repro.engine.craft import region_arrays

        return self.certify_boxes(*region_arrays(self.model, balls, specs), anchor_fixpoints)

    def certify_boxes(
        self,
        centers: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        targets: np.ndarray,
        anchor_fixpoints: Optional[np.ndarray] = None,
    ) -> List[VerificationResult]:
        """Run the waterfall on a stack of input boxes (:meth:`BatchedCraft.certify_boxes`).

        Each stage certifies the still-pending rows in stage-sized chunks
        sliced out of the arrays; resolved verdicts exit, the rest re-enqueue
        into the next stage.  ``anchor_fixpoints`` rows are valid for every
        stage (the solver parameters are shared), so escalated rows reuse them.
        """
        total = len(targets)
        results: List[Optional[VerificationResult]] = [None] * total
        anchors = (
            np.asarray(anchor_fixpoints) if anchor_fixpoints is not None else None
        )
        pending = np.arange(total)
        self.stage_stats = [
            StageStats(domain=cfg.domain, batch_size=self.batch_size)
            for cfg in self._stage_configs
        ]
        self.num_batches = 0
        last = len(self._crafts) - 1
        for stage_index, craft in enumerate(self._crafts):
            if not pending.size:
                break
            stats = self.stage_stats[stage_index]
            stats.attempted = len(pending)
            stage_start = time.perf_counter()
            escalated: List[int] = []
            for offset in range(0, len(pending), self.batch_size):
                chunk = pending[offset : offset + self.batch_size]
                chunk_results = craft.certify_boxes(
                    centers[chunk],
                    lower[chunk],
                    upper[chunk],
                    targets[chunk],
                    anchors[chunk] if anchors is not None else None,
                )
                stats.batches += 1
                self.num_batches += 1
                stats.record_consolidation(craft.consolidation_stats)
                stats.record_results(chunk_results)
                for index, result in zip(chunk.tolist(), chunk_results):
                    if stage_index == last or not should_escalate(result):
                        results[index] = result
                        stats.resolved += 1
                        stats.certified += int(result.certified)
                    else:
                        escalated.append(index)
            stats.escalated = len(escalated)
            stats.elapsed_seconds = time.perf_counter() - stage_start
            pending = np.array(escalated, dtype=int)
        return results
