"""The verdict cache: one JSON file per exact query key.

CRAFT proves each robustness query by abstracting that query's own
fixpoint set, so a cached verdict answers exactly the query it was
computed for, and a cache hit requires the literal query to have been
asked before.  The key hashes everything a verdict depends on::

    sha256( weights_hash(model)       # sha256 over sorted parameter bytes + m
          | center.tobytes()          # float64 anchor input
          | repr((epsilon, clip_min, clip_max, target))
          | config signature )        # verdict-relevant CraftConfig fields

so any weight update, region change or verdict-relevant configuration
change misses by construction.  Every entry also carries the writing
configuration's fingerprint (:func:`config_fingerprint`, which includes
``repro.__version__``) as a version stamp, and an entry whose stamp does
not match is rejected on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import CraftConfig
from repro.core.results import VerificationOutcome, VerificationResult
from repro.mondeq.model import MonDEQ


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
    must invalidate on-disk verdicts by construction.
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

    The key already hashes the configuration, so a mismatched config
    cannot hit by key alone; the stamp additionally travels inside the
    payload so an entry can prove which configuration (and library
    version) wrote it, and a renamed or copied file fails closed.
    """
    return hashlib.sha256(_config_signature(config).encode()).hexdigest()


@dataclass(frozen=True)
class RegionQuery:
    """One certification query as the cache keys it: the centre, radius,
    classification target and clip bounds of a clipped l-infinity ball."""

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


def result_from_payload(payload: Dict) -> VerificationResult:
    """Restore a :class:`VerificationResult` from a cache payload.

    Fields later payload shapes added are read with defaults and fields a
    payload carries beyond these are ignored, so an entry of an earlier
    shape replays whenever its stamp matches.
    """
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
        notes=payload.get("notes", "") + " [cached]",
        # The resolving ladder stage travels with the verdict, so a
        # cached escalation-sweep query replays at its final stage
        # without re-climbing the ladder.
        stage=payload.get("stage"),
        cached=True,
        cache_tier="disk",
        peak_error_terms=payload.get("peak_error_terms"),
    )


class TieredVerdictCache:
    """Directory-backed verdict cache of one (model, configuration) pair.

    One JSON file per key (:meth:`key`).  Values restore a
    :class:`VerificationResult` without the abstraction elements, which
    only the live certification path needs.

    The directory is safe for concurrent writers *without file locking*:
    every entry is its own file, written to a writer-unique scratch name
    and published with the atomic ``os.replace``, so readers observe
    either the previous entry or the complete new one, never a torn
    write.  Lookups probe a snapshot of the directory's key set instead of
    stat-ing each key; :meth:`refresh` renews it.  ``refresh_seconds``
    arms the long-lived-process mode the service frontend needs: a lookup
    more than that many seconds after the last check refreshes first, so
    entries other processes published are served without an explicit
    refresh.  ``None`` (the schedulers) leaves the snapshot to the
    once-per-sweep :meth:`refresh`.

    One instance is not thread-safe; callers that share one serialise on
    their own lock.

    The benchmark tracer (``perfbench/tracing.py``) wraps :meth:`lookup`,
    :meth:`admit` and :meth:`refresh`, reading each from this class's own
    ``__dict__``, so all three stay defined in this class body.
    """

    #: Scratch files older than this are presumed orphaned (a worker killed
    #: between writing and publishing) and swept on construction; no live
    #: writer holds a scratch file anywhere near this long.
    STALE_TMP_SECONDS = 600.0

    #: A directory mtime within this window of "now" may share its
    #: timestamp tick with a publish the scan raced past (filesystem
    #: timestamps are coarser than ``st_mtime_ns`` suggests), so such
    #: snapshots are recorded as unstable and the next :meth:`refresh`
    #: rescans regardless: an extra scan of an active directory is only a
    #: few syscalls, an entry missed is an engine pass.
    RACY_WINDOW_NS = 50_000_000

    def __init__(
        self,
        directory: str,
        config: CraftConfig,
        model_digest: str,
        refresh_seconds: Optional[float] = None,
    ):
        self.directory = directory
        self.signature = config_fingerprint(config)
        self.refresh_seconds = refresh_seconds
        # The digest and signature are the same for every key this
        # instance computes; encode them once.
        self._digest_blob = model_digest.encode()
        self._signature_blob = _config_signature(config).encode()
        os.makedirs(directory, exist_ok=True)
        self._sweep_stale_scratch()
        #: Directory scans actually performed (observability: staleness
        #: tests assert how often ``refresh`` really walked the directory).
        self.scans = 0
        self._scan(self._dir_mtime_ns())

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

    def key(self, query: RegionQuery) -> str:
        """The entry key of ``query``: see the module docstring."""
        digest = hashlib.sha256(self._digest_blob)
        digest.update(query.center.tobytes())
        digest.update(
            repr((query.epsilon, query.clip_min, query.clip_max, query.target)).encode()
        )
        digest.update(self._signature_blob)
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    # -- snapshot ------------------------------------------------------

    def _dir_mtime_ns(self) -> int:
        """The cache directory's mtime, or ``-1`` when unreadable.

        POSIX bumps a directory's mtime on every entry create/rename/
        unlink, and :meth:`admit` publishes via ``os.replace`` into this
        directory — so an unchanged mtime proves no writer (this process
        or any other) published since the last snapshot.  ``-1`` never
        equals a real ``st_mtime_ns``, so an unreadable directory forces
        the rescan path (fail open, never stale).
        """
        try:
            return os.stat(self.directory).st_mtime_ns
        except OSError:
            return -1

    def _scan(self, mtime_ns: int) -> None:
        """Snapshot the key set; ``mtime_ns`` was read before the listing.

        A mtime within :attr:`RACY_WINDOW_NS` of now is recorded as a
        sentinel that never matches a real mtime, forcing the next
        :meth:`refresh` to rescan.
        """
        if mtime_ns != -1 and abs(time.time_ns() - mtime_ns) < self.RACY_WINDOW_NS:
            mtime_ns = -2
        self._snapshot_mtime_ns = mtime_ns
        try:
            self._disk_names = set(os.listdir(self.directory))
        except OSError:
            self._disk_names = set()
        self.scans += 1
        self._last_staleness_check = time.monotonic()

    def refresh(self, force: bool = False) -> bool:
        """Pick up entries other writers published since the last snapshot.

        The scan is mtime-gated: the directory is ``stat``-ed first and,
        when its mtime has not moved since the snapshot was taken, the
        ``listdir`` is skipped, so the schedulers' refresh-per-sweep habit
        costs one stat on an idle directory.  Returns whether a scan ran.
        ``force=True`` bypasses the gate; correctness never requires it,
        because the mtime is read *before* the scan, so a write racing
        the ``listdir`` moves the mtime past the snapshot and triggers the
        next refresh.
        """
        mtime_ns = self._dir_mtime_ns()
        if not force and mtime_ns == self._snapshot_mtime_ns and mtime_ns != -1:
            self._last_staleness_check = time.monotonic()
            return False
        self._scan(mtime_ns)
        return True

    # -- lookup and admission ------------------------------------------

    def lookup(self, query: RegionQuery) -> Optional[VerificationResult]:
        """The cached verdict of exactly ``query``, or ``None`` on a miss."""
        if (
            self.refresh_seconds is not None
            and time.monotonic() - self._last_staleness_check >= self.refresh_seconds
        ):
            self.refresh()
        key = self.key(query)
        if f"{key}.json" not in self._disk_names:
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("signature") != self.signature:
            # Written by a different configuration or library version:
            # a miss, so the query is re-certified and the entry replaced.
            return None
        return result_from_payload(payload)

    def admit(self, query: RegionQuery, result: VerificationResult) -> str:
        """Persist a freshly computed verdict; returns its key."""
        key = self.key(query)
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
        path = self._path(key)
        # The scratch name is writer-unique (pid + fresh uuid, so two
        # instances or threads in one process cannot collide either);
        # os.replace then publishes atomically on POSIX.
        temporary = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:12]}.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temporary, path)
        self._disk_names.add(f"{key}.json")
        return key


def build_verdict_cache(
    directory: str, config: CraftConfig, model: MonDEQ
) -> TieredVerdictCache:
    """The verdict cache of one (model, configuration) pair."""
    return TieredVerdictCache(directory, config, weights_hash(model))
