"""Tiered fixpoint-verdict cache: exact/quantised keys, dominance, LRU.

The certification protocol is *monotone in the query*: a region certified
at radius ``epsilon`` dominates every contained region at any smaller
radius (a sound certificate covers all of its points), and a concrete
falsifying point refutes every region containing it.  The original
:class:`FixpointCache` ignored this — it keyed on exact centre bytes, so
an HCAS cell split or a jittered repeat query recomputed a verdict the
cache already implied.  This module layers three mechanisms on top of the
on-disk store, all configured through
:class:`~repro.core.config.CacheConfig`:

Quantised keys (``key_mode="quantized"``)
    Centre and epsilon are snapped to a ``10^-quantize_decimals`` grid so
    nearby queries coalesce into shared bucket entries.  Rounding is
    conservative by direction: epsilon rounds *down* for lookup and *up*
    for admission of certified verdicts (uncertified verdicts round
    down), so a certified bucket entry always covers at least the radius
    it claims.  Crucially, rounding never *decides* an answer — every
    bucket entry carries its exact region in the payload, and a
    non-verbatim serve must pass the exact dominance check below.  A
    colliding bucket whose payload does not dominate the query falls
    through to a miss.

Dominance index (``dominance=True``)
    A per-(model-fingerprint, config-signature) in-memory index over the
    cache directory (:class:`~repro.engine.cache_dominance.DominanceIndex`)
    groups entries by (target, input dimension): certified entries are
    held as stacked clipped-interval bounds sorted by epsilon descending,
    falsifying (misclassified-centre) entries as stacked points.  A
    lookup can then answer ``VERIFIED`` from *any* cached certified
    superset region, and ``MISCLASSIFIED`` from *any* cached falsifying
    point inside the query region — answering queries that were never
    literally asked.  Falsifying points are consulted first (fail-closed:
    a region containing a known misclassified input must never be served
    a certificate that another, larger entry happens to hold).

LRU tier (``lru_entries``/``lru_bytes``)
    An in-memory payload cache (:class:`~repro.engine.cache_lru.LRUTier`)
    over the on-disk store, so hot models answer repeat traffic without
    touching disk.  Dominance-derived answers are *materialised* into the
    LRU under the query's own key, turning a derived answer into an O(1)
    replay.

Soundness discipline
--------------------
Every non-verbatim answer is decided by an exact payload-level check on
the entry's recorded region — per-dimension clipped-interval containment
for certificates, point membership for falsifications — never by key
equality alone.  Entries are version-stamped
(:func:`config_fingerprint`, which includes ``repro.__version__``), and
only payloads carrying the full region *and* calibration fields
(``stage``, ``peak_error_terms`` — the post-1.5.0 shape) may answer a
query they were not literally asked; legacy payloads fall through to a
miss instead of failing downstream report aggregation.  The property
battery in ``tests/engine/test_cache_dominance.py`` pins all of this
against the cacheless :class:`~repro.engine.craft.BatchedCraft`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import uuid
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import CacheConfig, CraftConfig
from repro.core.results import VerificationOutcome, VerificationResult
from repro.mondeq.model import MonDEQ
from repro.verify.specs import ball_bounds


def weights_hash(model: MonDEQ) -> str:
    """A stable hexadecimal digest of the model's parameters."""
    digest = hashlib.sha256()
    for name in sorted(model.parameters()):
        array = np.ascontiguousarray(model.parameters()[name], dtype=float)
        digest.update(name.encode())
        digest.update(array.tobytes())
    digest.update(repr(float(model.monotonicity)).encode())
    return digest.hexdigest()


def _config_signature(config: CraftConfig) -> str:
    """The configuration fields that influence a certification verdict.

    The library version is part of the signature: an upgrade that changes
    certification behaviour (solver numerics, membership tolerances, …)
    must invalidate on-disk verdicts by construction.  ``config.cache`` is
    deliberately *not* part of the signature — key mode, LRU bounds and
    the dominance switch change how verdicts are stored and found, never
    what they are, so switching cache layout must not invalidate entries.
    """
    import repro  # late import: repro/__init__ imports this module's package

    fields = (
        repro.__version__,
        config.domain, config.domains, config.solver1, config.alpha1, config.solver2,
        config.alpha2, tuple(config.alpha2_grid), config.expansion,
        config.w_mul, config.w_add, config.expansion_mul_growth,
        config.expansion_add_growth, config.expansion_growth_every,
        config.slope_optimization, tuple(config.slope_candidates_reduced),
        tuple(config.slope_candidates_reference), config.slope_margin_threshold,
        config.same_iteration_containment, config.use_box_component,
        config.tighten_max_iterations, config.tighten_patience,
        config.concrete_tol, config.concrete_max_iterations,
        config.contraction.max_iterations, config.contraction.consolidate_every,
        config.contraction.basis_recompute_every, config.contraction.history_size,
        config.contraction.abort_width,
    )
    return repr(fields)


def config_fingerprint(config: CraftConfig) -> str:
    """Version stamp persisted inside every cache entry.

    The exact query *key* already hashes the configuration, so a
    mismatched config cannot hit by key alone; the stamp additionally
    travels inside the payload so an entry can prove which configuration
    (and library version) wrote it.  Under quantised keying and dominance
    lookups the key no longer pins the exact query, so the stamp — and
    the region fields stored alongside it — carry the entire burden of
    proof, and corruption or key-collision scenarios fail closed.
    """
    return hashlib.sha256(_config_signature(config).encode()).hexdigest()


# ----------------------------------------------------------------------
# Query identity and quantisation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegionQuery:
    """One certification query's region identity, as the cache sees it.

    Mirrors the (:class:`~repro.verify.specs.LinfBall`,
    :class:`~repro.verify.specs.ClassificationSpec`) pair of a robustness
    query, reduced to the fields that identify the region and target —
    the payload-level dominance checks operate on this type.
    """

    center: np.ndarray
    epsilon: float
    target: int
    clip_min: Optional[float] = 0.0
    clip_max: Optional[float] = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "center",
            np.ascontiguousarray(self.center, dtype=float).reshape(-1),
        )
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "target", int(self.target))

    @classmethod
    def from_ball(cls, ball, spec) -> "RegionQuery":
        """Build from the engine's (LinfBall, ClassificationSpec) pair."""
        return cls(
            center=ball.center, epsilon=ball.epsilon, target=spec.target,
            clip_min=ball.clip_min, clip_max=ball.clip_max,
        )

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Element-wise bounds of the clipped ball the engine certifies."""
        return ball_bounds(self.center, self.epsilon, self.clip_min, self.clip_max)

    def contains(self, other: "RegionQuery") -> bool:
        """Whether this (clipped) region is a superset of ``other``'s,
        for the same classification target."""
        if self.dim != other.dim or self.target != other.target:
            return False
        self_lower, self_upper = self.bounds()
        other_lower, other_upper = other.bounds()
        return bool(
            np.all(self_lower <= other_lower) and np.all(other_upper <= self_upper)
        )

    def contains_point(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=float).reshape(-1)
        if point.shape[0] != self.dim:
            return False
        lower, upper = self.bounds()
        return bool(np.all(lower <= point) and np.all(point <= upper))

    def same_region(self, other: "RegionQuery") -> bool:
        """Bit-exact region + target equality (the verbatim-replay test)."""
        return (
            self.dim == other.dim
            and self.target == other.target
            and self.epsilon == other.epsilon
            and self.clip_min == other.clip_min
            and self.clip_max == other.clip_max
            and self.center.tobytes() == other.center.tobytes()
        )


def snap_center(center: np.ndarray, decimals: int) -> np.ndarray:
    """Snap a centre to the quantisation grid.

    ``+ 0.0`` normalises any ``-0.0`` the rounding produces — its
    ``tobytes()`` differs from ``0.0``'s, which would split one grid cell
    into two buckets.
    """
    return np.round(np.ascontiguousarray(center, dtype=float), decimals) + 0.0


def quantize_epsilon(epsilon: float, decimals: int, mode: str) -> float:
    """Snap an epsilon to the grid, rounding in the requested direction.

    ``mode="floor"`` is the lookup direction, ``"ceil"`` the admission
    direction for certified verdicts.  A radius already on the grid maps
    to itself in both directions (detected with a relative tolerance so
    binary artefacts like ``0.05 * 1000 == 50.000000000000007`` do not
    push an on-grid value into the next bucket).  Bucket values only pick
    which key coalesces which traffic — soundness never depends on them.
    """
    if mode not in ("floor", "ceil"):
        raise ValueError(f"mode must be 'floor' or 'ceil', got {mode!r}")
    scale = 10.0 ** int(decimals)
    scaled = float(epsilon) * scale
    nearest = round(scaled)
    if abs(scaled - nearest) <= 1e-9 * max(1.0, abs(scaled)):
        return nearest / scale
    ticks = math.floor(scaled) if mode == "floor" else math.ceil(scaled)
    return ticks / scale


# ----------------------------------------------------------------------
# Payload (de)serialisation shared by every tier
# ----------------------------------------------------------------------

#: Calibration fields of the post-1.5.0 payload shape.  Entries missing
#: them (pre-1.5.0 writers) may still replay verbatim by exact key, but
#: must never answer a query they were not literally asked — the report
#: aggregation reads these fields from dominance serves.
CALIBRATION_KEYS = ("stage", "peak_error_terms")

#: Region-identity fields a payload must carry to participate in any
#: payload-level dominance decision.
REGION_KEYS = ("center", "epsilon", "target")


def payload_region(payload: Dict) -> Optional[RegionQuery]:
    """The exact query region recorded in a payload, or ``None``.

    Returns ``None`` for legacy payloads (no region fields) and for any
    malformed shape — callers treat that as "this entry cannot prove it
    dominates anything".
    """
    if not isinstance(payload, dict):
        return None
    if any(payload.get(key) is None for key in REGION_KEYS):
        return None
    try:
        query = RegionQuery(
            center=np.asarray(payload["center"], dtype=float),
            epsilon=payload["epsilon"],
            target=payload["target"],
            clip_min=payload.get("clip_min"),
            clip_max=payload.get("clip_max"),
        )
    except (TypeError, ValueError):
        return None
    if query.dim == 0 or not np.all(np.isfinite(query.center)):
        return None
    if not np.isfinite(query.epsilon) or query.epsilon < 0:
        return None
    return query


def payload_supports_dominance(payload: Dict) -> bool:
    """Whether an entry may answer queries it was not literally asked.

    Requires the full region identity plus the calibration fields
    (``stage``, ``peak_error_terms``) the report surfaces read from a
    served verdict.  A pre-1.5.0 payload fails this check and falls
    through to a cache miss instead of KeyError-ing downstream.
    """
    if not isinstance(payload, dict):
        return False
    if not all(key in payload for key in CALIBRATION_KEYS):
        return False
    return payload_region(payload) is not None


def result_from_payload(
    payload: Dict, cache_tier: str = "disk", extra_note: str = ""
) -> VerificationResult:
    """Restore a :class:`VerificationResult` from a cache payload."""
    return VerificationResult(
        outcome=VerificationOutcome(payload["outcome"]),
        contained=bool(payload["contained"]),
        certified=bool(payload["certified"]),
        margin=float(payload["margin"]),
        iterations_phase1=int(payload["iterations_phase1"]),
        iterations_phase2=int(payload["iterations_phase2"]),
        time_seconds=float(payload["time_seconds"]),
        selected_alpha2=payload.get("selected_alpha2"),
        selected_solver2=payload.get("selected_solver2"),
        slope_optimized=bool(payload.get("slope_optimized", False)),
        notes=payload.get("notes", "") + extra_note + " [cached]",
        # The resolving ladder stage travels with the verdict, so a
        # cached escalation-sweep query replays at its final stage
        # without re-climbing the ladder.
        stage=payload.get("stage"),
        cached=True,
        cache_tier=cache_tier,
        peak_error_terms=payload.get("peak_error_terms"),
    )


def dominance_result_from_payload(payload: Dict, source_key: str) -> VerificationResult:
    """Replay a cached verdict as the answer to a *dominated* query.

    The calibration fields are read by direct indexing: a pre-1.5.0
    payload would KeyError here, which is exactly why every dominance
    path guards with :func:`payload_supports_dominance` first and treats
    legacy entries as misses.  The replayed margin is the *entry's*
    margin — for a certified superset region that is a sound lower bound
    on the subset query's margin.
    """
    base = result_from_payload(
        payload, cache_tier="dominance",
        extra_note=f" [dominance {source_key[:12]}]",
    )
    return replace(
        base, stage=payload["stage"], peak_error_terms=payload["peak_error_terms"]
    )


# ----------------------------------------------------------------------
# On-disk tier
# ----------------------------------------------------------------------


class FixpointCache:
    """Directory-backed cache of certification verdicts.

    One JSON file per key.  Values restore a :class:`VerificationResult`
    without the abstraction elements (which are only needed by the live
    certification path, never by cache consumers).

    The cache is safe for concurrent writers *without file locking*: every
    entry is its own file, written to a writer-unique temporary name and
    published with the atomic ``os.replace`` — readers observe either the
    previous entry or the complete new one, never a torn write.  When a
    ``signature`` (see :func:`config_fingerprint`) is given, entries
    stamped by a different configuration are rejected on load.
    """

    #: Scratch files older than this are presumed orphaned (a worker killed
    #: between writing and publishing) and swept on cache construction; no
    #: live writer holds a scratch file anywhere near this long.
    STALE_TMP_SECONDS = 600.0

    def __init__(self, directory: str, signature: Optional[str] = None):
        self.directory = directory
        self.signature = signature
        os.makedirs(directory, exist_ok=True)
        self._sweep_stale_scratch()

    def _sweep_stale_scratch(self) -> None:
        cutoff = time.time() - self.STALE_TMP_SECONDS
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.directory, name)
            try:
                if os.path.getmtime(path) < cutoff:
                    os.unlink(path)
            except OSError:
                continue

    @staticmethod
    def query_key(
        model_digest: str,
        center: np.ndarray,
        epsilon: float,
        target: int,
        config: CraftConfig,
        clip_min: Optional[float],
        clip_max: Optional[float],
    ) -> str:
        digest = hashlib.sha256()
        digest.update(model_digest.encode())
        digest.update(np.ascontiguousarray(center, dtype=float).tobytes())
        digest.update(repr((float(epsilon), clip_min, clip_max, int(target))).encode())
        digest.update(_config_signature(config).encode())
        return digest.hexdigest()

    @staticmethod
    def quantized_key(
        model_digest: str,
        query: RegionQuery,
        config: CraftConfig,
        decimals: int,
        epsilon_bucket: float,
    ) -> str:
        """Grid-bucket key: snapped centre + a pre-rounded epsilon bucket.

        The ``"quantized/"`` prefix keeps the bucket key space disjoint
        from exact keys, so flipping ``key_mode`` never aliases entries of
        the other mode.
        """
        digest = hashlib.sha256()
        digest.update(b"quantized/")
        digest.update(model_digest.encode())
        digest.update(snap_center(query.center, decimals).tobytes())
        digest.update(
            repr(
                (float(epsilon_bucket), query.clip_min, query.clip_max,
                 int(query.target), int(decimals))
            ).encode()
        )
        digest.update(_config_signature(config).encode())
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def load_payload(self, key: str) -> Optional[Dict]:
        """The raw (signature-checked) payload under ``key``, or ``None``."""
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if self.signature is not None and data.get("signature") != self.signature:
            # Version stamp mismatch: the entry was written by a different
            # configuration or library version.  Treat it as a miss so the
            # query is re-certified and the entry overwritten.
            return None
        return data

    def load(self, key: str) -> Optional[VerificationResult]:
        payload = self.load_payload(key)
        if payload is None:
            return None
        return result_from_payload(payload, cache_tier="disk")

    def store(
        self,
        key: str,
        result: VerificationResult,
        query: Optional[RegionQuery] = None,
        model_digest: Optional[str] = None,
    ) -> Dict:
        """Persist a verdict under ``key``; returns the written payload.

        When the exact ``query`` region is given it is recorded in the
        payload — the identity every later dominance or quantised-bucket
        serve is decided against.  Entries stored without it can only
        ever replay verbatim by exact key.
        """
        payload = {
            "outcome": result.outcome.value,
            "contained": result.contained,
            "certified": result.certified,
            # json round-trips -Infinity natively, so -inf margins
            # (misclassified / no-containment queries) survive unchanged.
            "margin": float(result.margin),
            "iterations_phase1": result.iterations_phase1,
            "iterations_phase2": result.iterations_phase2,
            "time_seconds": result.time_seconds,
            "selected_alpha2": result.selected_alpha2,
            "selected_solver2": result.selected_solver2,
            "slope_optimized": result.slope_optimized,
            "notes": result.notes,
            "signature": self.signature,
            "stage": result.stage,
            "peak_error_terms": result.peak_error_terms,
        }
        if query is not None:
            payload["model_digest"] = model_digest
            payload["center"] = [float(value) for value in query.center]
            payload["epsilon"] = query.epsilon
            payload["target"] = query.target
            payload["clip_min"] = query.clip_min
            payload["clip_max"] = query.clip_max
        path = self._path(key)
        # The temporary name is writer-unique (pid + fresh uuid, so two
        # cache instances or threads in one process cannot collide either);
        # os.replace then publishes atomically on POSIX.
        temporary = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:12]}.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temporary, path)
        return payload


# ----------------------------------------------------------------------
# The tiered facade the schedulers talk to
# ----------------------------------------------------------------------


@dataclass
class CacheStats:
    """Per-tier hit accounting of one :class:`TieredVerdictCache`."""

    lookups: int = 0
    lru_hits: int = 0
    disk_hits: int = 0
    dominance_hits: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.lookups - self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_row(self) -> Dict:
        return {
            "lookups": self.lookups,
            "lru_hits": self.lru_hits,
            "disk_hits": self.disk_hits,
            "dominance_hits": self.dominance_hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }


class TieredVerdictCache:
    """LRU over disk over dominance: the schedulers' cache facade.

    Lookup order per candidate key — in-memory LRU first, then the
    on-disk store (populating the LRU) — then, if no bucket answered,
    the directory-wide dominance index.  Every non-verbatim answer is
    decided by the exact payload-level dominance check; see the module
    docstring for the soundness discipline.
    """

    #: A directory mtime within this window of "now" may share its
    #: timestamp tick with a publish the scan raced past (filesystem
    #: timestamps are coarser than ``st_mtime_ns`` suggests), so such
    #: snapshots are recorded as unstable and the next :meth:`refresh`
    #: rescans regardless.  Stale serves are a soundness concern; an
    #: extra scan of an active directory is only a few syscalls.
    RACY_WINDOW_NS = 50_000_000

    def __init__(
        self,
        directory: str,
        config: CraftConfig,
        model_digest: str,
        cache_config: Optional[CacheConfig] = None,
    ):
        from repro.engine.cache_dominance import DominanceIndex
        from repro.engine.cache_lru import LRUTier

        self.config = config
        self.cache_config = (
            cache_config if cache_config is not None else config.cache
        )
        self.model_digest = model_digest
        self.signature = config_fingerprint(config)
        self.disk = FixpointCache(directory, signature=self.signature)
        # Hot-path precomputation: the config signature and digest bytes
        # are identical for every key this instance ever computes, and a
        # per-sweep snapshot of the on-disk key set turns the disk probe
        # of never-stored keys into a set lookup instead of a stat call.
        self._signature_blob = _config_signature(config).encode()
        self._digest_blob = model_digest.encode()
        #: Directory scans actually performed (observability: staleness
        #: tests assert how often ``refresh`` really walked the directory).
        self.scans = 0
        self._snapshot_mtime_ns = self._stable_mtime_ns(self._dir_mtime_ns())
        self._disk_names = self._list_disk_names()
        self.scans += 1
        self._last_staleness_check = time.monotonic()
        self.lru = (
            LRUTier(
                max_entries=self.cache_config.lru_entries,
                max_bytes=self.cache_config.lru_bytes,
            )
            if self.cache_config.lru_entries > 0
            else None
        )
        self.index = (
            DominanceIndex(
                directory, signature=self.signature, model_digest=model_digest
            )
            if self.cache_config.dominance
            else None
        )
        self.stats = CacheStats()

    @property
    def directory(self) -> str:
        return self.disk.directory

    def _list_disk_names(self) -> set:
        try:
            return set(os.listdir(self.disk.directory))
        except OSError:
            return set()

    def _dir_mtime_ns(self) -> int:
        """The cache directory's mtime, or ``-1`` when unreadable.

        POSIX bumps a directory's mtime on every entry create/rename/
        unlink, and ``FixpointCache.store`` publishes via ``os.replace``
        into this directory — so an unchanged mtime proves no writer
        (this process or any other) published since the last snapshot.
        ``-1`` never equals a real ``st_mtime_ns``, so an unreadable
        directory forces the rescan path (fail open, never stale).
        """
        try:
            return os.stat(self.disk.directory).st_mtime_ns
        except OSError:
            return -1

    def _stable_mtime_ns(self, mtime_ns: int) -> int:
        """``mtime_ns`` if old enough to trust as a snapshot stamp, else
        a sentinel that never matches a real mtime (forcing the next
        :meth:`refresh` to rescan; see :attr:`RACY_WINDOW_NS`)."""
        if mtime_ns != -1 and abs(time.time_ns() - mtime_ns) < self.RACY_WINDOW_NS:
            return -2
        return mtime_ns

    # -- keys ----------------------------------------------------------

    def _exact_key(self, query: RegionQuery) -> str:
        """:meth:`FixpointCache.query_key` with the per-instance constants
        (model digest, config signature) pre-encoded."""
        digest = hashlib.sha256()
        digest.update(self._digest_blob)
        digest.update(query.center.tobytes())
        digest.update(
            repr((query.epsilon, query.clip_min, query.clip_max, query.target)).encode()
        )
        digest.update(self._signature_blob)
        return digest.hexdigest()

    def _quantized_key(self, query: RegionQuery, bucket: float) -> str:
        """:meth:`FixpointCache.quantized_key`, same precomputation."""
        decimals = self.cache_config.quantize_decimals
        digest = hashlib.sha256()
        digest.update(b"quantized/")
        digest.update(self._digest_blob)
        digest.update(snap_center(query.center, decimals).tobytes())
        digest.update(
            repr(
                (float(bucket), query.clip_min, query.clip_max,
                 int(query.target), int(decimals))
            ).encode()
        )
        digest.update(self._signature_blob)
        return digest.hexdigest()

    def candidate_keys(self, query: RegionQuery) -> List[str]:
        """Bucket keys probed for ``query``, most specific first.

        Exact mode probes the single exact key.  Quantised mode probes
        the floor-rounded epsilon bucket (the conservative lookup
        direction) and, when distinct, the ceil bucket — where certified
        admissions land — so a literal replay always re-finds its entry.
        """
        if self.cache_config.key_mode == "exact":
            return [self._exact_key(query)]
        decimals = self.cache_config.quantize_decimals
        floor_bucket = quantize_epsilon(query.epsilon, decimals, "floor")
        keys = [self._quantized_key(query, floor_bucket)]
        ceil_bucket = quantize_epsilon(query.epsilon, decimals, "ceil")
        if ceil_bucket != floor_bucket:
            keys.append(self._quantized_key(query, ceil_bucket))
        return keys

    def admission_key(self, query: RegionQuery, result: VerificationResult) -> str:
        """The bucket a fresh verdict is admitted under.

        Quantised admissions round epsilon *up* for certified verdicts
        and *down* otherwise, so the two verdict families of nearby
        queries land in different buckets and certified entries are found
        by the ceil probe of any same-cell lookup.
        """
        if self.cache_config.key_mode == "exact":
            return self._exact_key(query)
        decimals = self.cache_config.quantize_decimals
        bucket = quantize_epsilon(
            query.epsilon, decimals, "ceil" if result.certified else "floor"
        )
        return self._quantized_key(query, bucket)

    # -- lookup --------------------------------------------------------

    def refresh(self, force: bool = False) -> bool:
        """Ingest entries other writers published since the last call.

        Re-snapshots the on-disk key set and the dominance index —
        lookups between refreshes see entries at the snapshot's freshness
        (one ``listdir`` per sweep instead of a stat per probed key), the
        same per-sweep granularity as the dominance index.

        The scan is mtime-gated: the directory is ``stat``-ed first and,
        when its mtime has not moved since the snapshot was taken, the
        ``listdir`` + index rescan are skipped entirely — so the
        schedulers' refresh-per-sweep habit costs one stat on an idle
        directory, and a long-lived service process can refresh per
        *epoch* (:attr:`CacheConfig.refresh_seconds`) without going stale
        across sweeps from other workers.  Returns whether a scan
        actually ran.  ``force=True`` bypasses the gate (used by tests
        and recovery paths; correctness never requires it — the mtime is
        read *before* the scan, so a write racing the ``listdir`` moves
        the mtime past the snapshot and triggers the next refresh).
        """
        mtime_ns = self._dir_mtime_ns()
        if not force and mtime_ns == self._snapshot_mtime_ns and mtime_ns != -1:
            self._last_staleness_check = time.monotonic()
            return False
        self._snapshot_mtime_ns = self._stable_mtime_ns(mtime_ns)
        self._disk_names = self._list_disk_names()
        self.scans += 1
        if self.index is not None:
            self.index.refresh()
        self._last_staleness_check = time.monotonic()
        return True

    def _maybe_auto_refresh(self) -> None:
        """The long-lived-process staleness bound: when
        ``cache_config.refresh_seconds`` is set and the snapshot is older
        than the bound, re-check the directory (one stat; a rescan only
        when the mtime actually moved)."""
        bound = self.cache_config.refresh_seconds
        if bound is None:
            return
        if time.monotonic() - self._last_staleness_check >= bound:
            self.refresh()

    def lookup(self, query: RegionQuery) -> Optional[VerificationResult]:
        """Answer ``query`` from any tier, or ``None`` on a miss."""
        self._maybe_auto_refresh()
        self.stats.lookups += 1
        for key in self.candidate_keys(query):
            lru_payload = self.lru.get(key) if self.lru is not None else None
            if lru_payload is not None:
                result = self._answer_from_payload(lru_payload, query, "lru")
                if result is not None:
                    return result
            # An LRU payload that cannot answer (a materialised derived
            # entry, or a bucket overwrite) must not shadow the on-disk
            # entry sharing its key: fall through to the disk tier.
            if f"{key}.json" not in self._disk_names:
                continue
            payload = self.disk.load_payload(key)
            if payload is None:
                continue
            if self.lru is not None and lru_payload is None:
                self.lru.put(key, payload)
            result = self._answer_from_payload(payload, query, "disk")
            if result is not None:
                return result
        if self.index is not None:
            served = self.index.query(query)
            if served is not None:
                source_key, payload = served
                self.stats.dominance_hits += 1
                result = dominance_result_from_payload(payload, source_key)
                self._materialise(query, payload, source_key)
                return result
        self.stats.misses += 1
        return None

    def _answer_from_payload(
        self, payload: Dict, query: RegionQuery, tier: str
    ) -> Optional[VerificationResult]:
        entry = payload_region(payload)
        exact = (entry is not None and entry.same_region(query)) or (
            # Exact keys pin the whole query, so a legacy payload without
            # region fields still replays verbatim (the pre-1.6 contract).
            entry is None and self.cache_config.key_mode == "exact"
        )
        if exact:
            if payload.get("derived"):
                # A materialised dominance answer replaying from the LRU
                # is still accounted as a dominance serve.
                self.stats.dominance_hits += 1
                return result_from_payload(payload, cache_tier="dominance")
            if tier == "lru":
                self.stats.lru_hits += 1
            else:
                self.stats.disk_hits += 1
            return result_from_payload(payload, cache_tier=tier)
        # A quantised bucket collision: the entry answers only if its
        # recorded region provably dominates the query.  Derived
        # (materialised) payloads are excluded: their recorded centre is
        # the dominated query's centre, not a verified falsifying
        # witness, so beyond verbatim replay they prove nothing — the
        # source facts stay on disk and in the index for real dominance.
        if payload.get("derived"):
            return None
        if entry is None or not payload_supports_dominance(payload):
            return None
        if entry.target != query.target or entry.dim != query.dim:
            return None
        if payload.get(
            "outcome"
        ) == VerificationOutcome.MISCLASSIFIED.value and query.contains_point(
            np.asarray(payload["center"], dtype=float)
        ):
            self.stats.dominance_hits += 1
            return dominance_result_from_payload(payload, "bucket")
        if payload.get("certified") and entry.contains(query):
            self.stats.dominance_hits += 1
            return dominance_result_from_payload(payload, "bucket")
        return None

    def _materialise(
        self, query: RegionQuery, source_payload: Dict, source_key: str
    ) -> None:
        """Record a dominance-derived answer in the LRU under the query's
        own key, so the next replay of this never-computed query is O(1)
        and disk-free.  Derived entries stay in memory only — the disk
        keeps computed facts."""
        if self.lru is None:
            return
        derived = dict(source_payload)
        derived["center"] = [float(value) for value in query.center]
        derived["epsilon"] = query.epsilon
        derived["target"] = query.target
        derived["clip_min"] = query.clip_min
        derived["clip_max"] = query.clip_max
        derived["derived"] = True
        derived["notes"] = (
            source_payload.get("notes", "") + f" [dominance {source_key[:12]}]"
        )
        self.lru.put(self.candidate_keys(query)[0], derived)

    # -- admission -----------------------------------------------------

    def admit(self, query: RegionQuery, result: VerificationResult) -> str:
        """Persist a freshly computed verdict; returns the bucket key."""
        key = self.admission_key(query, result)
        payload = self.disk.store(
            key, result, query=query, model_digest=self.model_digest
        )
        self._disk_names.add(f"{key}.json")
        if self.lru is not None:
            self.lru.put(key, payload)
        if self.index is not None:
            self.index.admit(key, payload)
        return key


def build_verdict_cache(
    directory: str, config: CraftConfig, model: MonDEQ
) -> TieredVerdictCache:
    """The tiered cache for one (model, configuration) pair."""
    return TieredVerdictCache(directory, config, weights_hash(model))
