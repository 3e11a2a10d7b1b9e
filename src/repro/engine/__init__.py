"""Batched certification engine: Craft over stacks of input regions.

The paper's headline experiments (Table 2 local robustness, Fig. 11 HCAS
global certification) certify hundreds of input regions against *identical*
network weights.  The sequential :class:`~repro.core.craft.CraftVerifier`
pays the full Python interpreter overhead once per region; this subsystem
instead advances all regions of a batch through shared BLAS calls and keeps
the sequential path as the reference implementation the parity tests
compare against.

Batched domains
---------------
The engine is domain-generic: the driver programs against the
:class:`~repro.engine.batched_domains.BatchedDomain` protocol (stacked
affine/ReLU/Minkowski transformers plus the containment/consolidation
hooks) and dispatches on ``CraftConfig.domain`` through
:func:`~repro.engine.batched_domains.batched_domain_for`.  Four stacks
exist — ``chzonotope`` (:class:`BatchedCHZonotope`), ``zonotope``
(:class:`~repro.engine.batched_domains.BatchedZonotope`, the Table 4 "No
Box component" row), ``parallelotope``
(:class:`~repro.engine.batched_domains.BatchedParallelotope`, the
order-bounded rung of the escalation ladder) and ``box``
(:class:`~repro.engine.batched_domains.BatchedBox`, the "No Zono
component" row) — so ablation sweeps batch for every domain.  Unknown
domain names raise ``ConfigurationError``; there is no silent sequential
fallback.

Escalation waterfall
--------------------
``CraftConfig.domains`` turns a sweep into a mixed-domain **waterfall**
(:mod:`repro.engine.escalation`): every query starts in the cheapest
configured domain, certified/falsified verdicts exit early, and
``Unknown``/diverged queries are re-enqueued into the next, more precise
stage.  One implementation runs it, stage by stage over arrays:
:class:`~repro.engine.sharded.ShardedScheduler`, whose transports are
inline (:class:`~repro.engine.scheduler.BatchCertificationScheduler`), a
worker pool, or the TCP cluster of :mod:`repro.service.cluster`.  Ladders
ending in ``chzonotope`` never flip a certified/falsified verdict relative
to the pure CH-Zonotope sweep — escalation only adds cheaper
certificates.

Batch layout
------------
A batch of ``B`` CH-Zonotopes of dimension ``n`` with a uniform error-term
count ``k`` is stored as three arrays
(:class:`~repro.engine.batched_chzonotope.BatchedCHZonotope`)::

    centers    (B, n)      stacked centres a_i
    generators (B, n, k)   stacked error matrices A_i
    box        (B, n)      stacked Box error radii b_i

``k`` is made uniform by right-padding generator matrices with zero
columns; a zero column never changes the concretised set, so padding is a
representation detail only.  ``BatchedZonotope`` shares the layout with an
identically-zero Box component; ``BatchedBox`` stores two ``(B, n)`` bound
arrays.  All transformers (affine, ReLU, Minkowski sum, consolidation,
Theorem 4.2 containment) are einsum/broadcast expressions whose sample
``i`` equals the sequential transformer applied to sample ``i`` — the
parity contract the engine tests enforce.

Active-mask semantics
---------------------
Both Craft phases run with per-sample early exit.  The driver
(:class:`~repro.engine.craft.BatchedCraft`) keeps an ``active`` index array
into the original batch; each iteration advances only the active stack.  A
sample exits phase one when it proves containment against its consolidated
history or diverges past the abort width, and exits phase two when its
postcondition certifies, its width diverges, or its patience budget is
exhausted.  On exit the sample's row is gathered out of the batched state,
its per-sample record (final element, reference, iteration counts, width
trace) is frozen, and the remaining rows continue as a smaller stack —
so a finished region never pays for a slow batch mate, and each sample's
trajectory is independent of which other samples share its batch.

Verdict cache
-------------
The schedulers optionally persist verdicts through
:class:`~repro.engine.cache.TieredVerdictCache` (:mod:`repro.engine.cache`):
one JSON file per exact query key::

    sha256( weights_hash(model)       # sha256 over sorted parameter bytes + m
          | center.tobytes()          # float64 anchor input
          | repr((epsilon, clip_min, clip_max, target))
          | config signature )        # verdict-relevant CraftConfig fields

Entries are ``<key>.json`` holding the scalar verdict (outcome, margin,
iteration counts, selected tightening parameters, resolving stage) and
the writing configuration's fingerprint as a version stamp.  Any weight
update, region change or verdict-relevant configuration change therefore
misses the cache by construction, and entries stamped by a mismatched
configuration are rejected on load.  A hit requires the literal query to
have been asked before.

Multi-process sharding
----------------------
:class:`~repro.engine.sharded.ShardedScheduler` scales a sweep across
worker processes: each stage's regions are partitioned into shards of
arrays, each worker receives the (read-only) weights once at pool start
and runs ``BatchedCraft.certify_boxes`` per shard, and all workers share
the on-disk fixpoint cache through atomic per-entry writes.  Shards hold
at most :data:`~repro.engine.escalation.DEFAULT_BATCH_SIZE` (256) regions
unless the caller names a ``batch_size``: phase-two steps append only the
ReLU's columns (the input symbols share one block), so the working set of
a batch stays small.
"""

from repro.engine.batched_chzonotope import BatchedCHZonotope
from repro.engine.cache import (
    RegionQuery,
    TieredVerdictCache,
    build_verdict_cache,
    config_fingerprint,
    weights_hash,
)
from repro.engine.batched_domains import (
    BatchedBox,
    BatchedDomain,
    BatchedParallelotope,
    BatchedZonotope,
    batched_domain_for,
)
from repro.engine.craft import BatchedCraft, ConsolidationStats
from repro.engine.escalation import DEFAULT_BATCH_SIZE, StageStats, should_escalate
from repro.engine.results import EngineReport
from repro.engine.scheduler import BatchCertificationScheduler
from repro.engine.sharded import ShardedScheduler

__all__ = [
    "BatchCertificationScheduler",
    "BatchedBox",
    "BatchedCHZonotope",
    "BatchedCraft",
    "BatchedDomain",
    "BatchedParallelotope",
    "BatchedZonotope",
    "ConsolidationStats",
    "DEFAULT_BATCH_SIZE",
    "EngineReport",
    "RegionQuery",
    "ShardedScheduler",
    "StageStats",
    "TieredVerdictCache",
    "batched_domain_for",
    "build_verdict_cache",
    "config_fingerprint",
    "should_escalate",
    "weights_hash",
]
