"""Per-query domain escalation: the rules of the mixed-domain waterfall.

The paper's Table 4 shows the precision/cost ladder Box → Zonotope →
CH-Zonotope: the cheap domains certify many queries in a fraction of the
time, and only the hard residue needs the expensive domain.  Until PR 4
the engines fixed **one** domain per sweep (``CraftConfig.domain``), so
every query paid CH-Zonotope cost even when Box would have certified it.

The domain choice lives in the scheduler.  An **escalation ladder**
(``CraftConfig.domains``, cheapest first) is run as a waterfall:

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

The batched waterfall is ``ShardedScheduler._dispatch``
(:class:`~repro.engine.sharded.ShardedScheduler`): it runs stage by
stage, in shards, on an inline
(:class:`~repro.engine.scheduler.BatchCertificationScheduler`), pool or
cluster transport.  The sequential ``certify_sample`` climb of
:mod:`repro.verify.robustness` is its oracle.  This module holds what both
share: the escalation rule, the batch size and the per-stage accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.results import VerificationOutcome, VerificationResult
from repro.exceptions import ConfigurationError

#: Most regions per shard of every ladder stage when the caller names no
#: batch size.  Phase two shares the input's error symbols and appends at
#: most ``latent_dim`` columns per step, so a batch's working set stays
#: small; beyond 256 rows the per-batch Python overhead is already
#: negligible.
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

    ``elapsed_seconds`` sums the *worker-side* times of the stage's shards.
    On the inline transport that is the stage's wall-clock; on a pool or a
    cluster the shards run concurrently, so compare the field across
    transports as work done, not as latency.  ``peak_error_terms`` is the
    largest generator-stack width any query of the stage streamed.
    """

    domain: str
    batch_size: int = 0
    attempted: int = 0
    resolved: int = 0
    certified: int = 0
    escalated: int = 0
    batches: int = 0
    elapsed_seconds: float = 0.0
    peak_error_terms: int = 0
    #: Total phase-one iterations the stage's queries ran.
    phase1_iterations: int = 0

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
            "peak_error_terms": self.peak_error_terms,
            "phase1_iterations": self.phase1_iterations,
        }

