"""Global certification via domain splitting (Section 6.2, HCAS).

To certify a property over a *large* input region (rather than a small
perturbation ball around one sample), the paper applies domain splitting
(Wang et al. 2018): the region is recursively bisected, and for each cell
Craft tries to certify that every input in the cell is classified to the
class predicted at the cell's centre.  Cells that cannot be certified up to
a maximum depth remain uncovered; the paper reports 82.8 % coverage of the
relevant HCAS input region.

By default the splitting loop is a breadth-first frontier whose levels are
certified by the batched engine (:mod:`repro.engine`) — every cell of a
depth level shares the model weights, so a whole level is one vectorised
waterfall.  ``engine="sharded"`` additionally fans each level out over a
pool of worker processes (:class:`~repro.engine.sharded.ShardedScheduler`);
``engine="sequential"`` restores the depth-first recursion, kept as the
reference implementation.  All engines produce the same cell
decomposition (up to ordering of the cell list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import CraftConfig
from repro.core.craft import CraftVerifier
from repro.domains.interval import Interval
from repro.exceptions import ConfigurationError
from repro.mondeq.model import MonDEQ
from repro.verify.robustness import build_fixpoint_problem
from repro.verify.specs import ClassificationSpec, LinfBall


@dataclass
class CertifiedCell:
    """One input-region cell together with its certification status."""

    region: Interval
    predicted_class: int
    certified: bool
    depth: int

    @property
    def volume(self) -> float:
        return self.region.volume


@dataclass
class GlobalCertificationResult:
    """Outcome of the domain-splitting certification of a region."""

    cells: List[CertifiedCell] = field(default_factory=list)

    @property
    def certified_volume(self) -> float:
        return float(sum(cell.volume for cell in self.cells if cell.certified))

    @property
    def total_volume(self) -> float:
        return float(sum(cell.volume for cell in self.cells))

    @property
    def coverage(self) -> float:
        """Fraction of the region's volume whose prediction is certified."""
        total = self.total_volume
        return self.certified_volume / total if total > 0 else 0.0

    def certified_cells(self) -> List[CertifiedCell]:
        return [cell for cell in self.cells if cell.certified]

    def uncertified_cells(self) -> List[CertifiedCell]:
        return [cell for cell in self.cells if not cell.certified]


class DomainSplittingCertifier:
    """Exhaustively certify predictions over a box-shaped input region.

    ``engine`` selects how the BFS frontier levels are certified:

    * ``"batched"`` (default) — each level is one in-process waterfall
      through :class:`~repro.engine.scheduler.BatchCertificationScheduler`.
    * ``"sharded"`` — each level is fanned out over ``num_workers``
      processes through :class:`~repro.engine.sharded.ShardedScheduler`;
      the worker pool persists across levels.  ``timeout_seconds`` bounds
      every wait on the pool (default 600 s).
    * ``"sequential"`` — the reference depth-first recursion.

    On both batched engines an optional ``cache_dir`` lets re-runs (e.g.
    refined HCAS grids) reuse cell verdicts.

    Every ``config.domain`` (``"chzonotope"``, ``"box"``, ``"zonotope"``)
    runs through every engine — the batched stack is resolved by
    :func:`repro.engine.batched_domains.batched_domain_for`, which raises
    :class:`~repro.exceptions.ConfigurationError` for unknown names rather
    than silently downgrading to the sequential recursion.  All engines
    produce the same cell decomposition (up to ordering of the cell list).
    """

    def __init__(
        self,
        model: MonDEQ,
        config: Optional[CraftConfig] = None,
        max_depth: int = 4,
        min_cell_width: float = 1e-3,
        engine: str = "batched",
        num_workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        timeout_seconds: Optional[float] = None,
    ):
        self.model = model
        self.config = config if config is not None else CraftConfig()
        self.max_depth = max_depth
        self.min_cell_width = min_cell_width
        self._stage_configs = self.config.stage_configs()
        # Built on first use: only the sequential recursion needs them (an
        # engine handles all certification on the other paths).
        self._stage_verifiers: Optional[List[CraftVerifier]] = None
        if engine not in ("sequential", "batched", "sharded"):
            raise ConfigurationError(
                f"unknown engine {engine!r}; choose 'sequential', 'batched' or 'sharded'"
            )
        self.engine = engine
        self._engine = None
        if engine == "batched":
            from repro.engine.scheduler import BatchCertificationScheduler

            # A one-stage waterfall for singleton configs, the per-cell
            # domain waterfall for escalation configs.
            self._engine = BatchCertificationScheduler(model, self.config, cache_dir=cache_dir)
        elif engine == "sharded":
            from repro.engine.sharded import ShardedScheduler

            # The frontier loop only reads the certified flag, so the
            # abstraction elements never need to cross the pool pipe.
            extra = {} if timeout_seconds is None else {"timeout_seconds": timeout_seconds}
            self._engine = ShardedScheduler(
                model, self.config, num_workers=num_workers, cache_dir=cache_dir,
                keep_abstractions=False, **extra,
            )

    def close(self) -> None:
        """Release the engine's worker pool, if it has one."""
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "DomainSplittingCertifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def certify_region(self, region: Interval) -> GlobalCertificationResult:
        """Certify ``region``; returns the full cell decomposition.

        With an engine enabled (default) the decomposition proceeds
        breadth-first, certifying every cell of a depth level in one
        batched (possibly sharded) pass; otherwise the reference
        depth-first recursion runs.
        """
        result = GlobalCertificationResult()
        if self._engine is None:
            self._certify_recursive(region, depth=0, result=result)
            return result
        self._certify_frontier(region, result)
        return result

    # ------------------------------------------------------------------

    def _cell_prediction(self, region: Interval) -> int:
        return int(self.model.predict(region.center))

    def _cell_ball(self, region: Interval) -> LinfBall:
        # A box region is an l-infinity ball around its centre with per-dim
        # radius; LinfBall only supports a scalar radius, so the cell is
        # over-approximated by the enclosing ball (sound: a superset).
        radius = float(np.max(region.radius))
        return LinfBall(center=region.center, epsilon=radius, clip_min=None, clip_max=None)

    def _can_split(self, region: Interval, depth: int) -> bool:
        return depth < self.max_depth and float(np.max(region.width)) > 2 * self.min_cell_width

    def _frontier_predictions(
        self, frontier: List[Tuple[Interval, int]]
    ) -> Tuple[List[int], Optional[np.ndarray]]:
        """Predicted classes of the cell centres, solved as one batch.

        Also returns the solved fixpoints as phase-zero anchors when the
        configuration uses exactly the prediction-pass solver parameters,
        so ``certify_regions`` does not re-solve the same centres.
        """
        from repro.engine.craft import anchor_reuse_valid
        from repro.mondeq.solvers import solve_fixpoint_batch

        centers = np.stack([cell.center for cell, _ in frontier])
        fixpoints = solve_fixpoint_batch(self.model, centers, method="pr")
        predictions = [
            int(p) for p in self.model.readout_batch(fixpoints.z).argmax(axis=1)
        ]
        anchors = fixpoints.z if anchor_reuse_valid(self.model, self.config) else None
        return predictions, anchors

    def _certify_frontier(self, region: Interval, result: GlobalCertificationResult) -> None:
        frontier: List[Tuple[Interval, int]] = [(region, 0)]
        while frontier:
            predictions, anchors = self._frontier_predictions(frontier)
            balls = [self._cell_ball(cell) for cell, _ in frontier]
            specs = [
                ClassificationSpec(target=predicted, num_classes=self.model.output_dim)
                for predicted in predictions
            ]
            outcomes = self._engine.certify_regions(balls, specs, anchors)
            next_frontier: List[Tuple[Interval, int]] = []
            for (cell, depth), predicted, outcome in zip(frontier, predictions, outcomes):
                if outcome.certified:
                    result.cells.append(
                        CertifiedCell(region=cell, predicted_class=predicted, certified=True, depth=depth)
                    )
                elif self._can_split(cell, depth):
                    left, right = cell.split()
                    next_frontier.append((left, depth + 1))
                    next_frontier.append((right, depth + 1))
                else:
                    result.cells.append(
                        CertifiedCell(region=cell, predicted_class=predicted, certified=False, depth=depth)
                    )
            frontier = next_frontier

    def _certify_cell(self, region: Interval, predicted: int) -> bool:
        from repro.engine.escalation import should_escalate

        if self._stage_verifiers is None:
            self._stage_verifiers = [CraftVerifier(cfg) for cfg in self._stage_configs]
        spec = ClassificationSpec(target=predicted, num_classes=self.model.output_dim)
        ball = self._cell_ball(region)
        # Sequential counterpart of the engine waterfall: the cell climbs
        # the ladder while its verdict stays unresolved (singleton ladders
        # collapse to a single verifier).
        for stage_config, verifier in zip(self._stage_configs, self._stage_verifiers):
            problem = build_fixpoint_problem(self.model, ball, spec, stage_config)
            outcome = verifier.solve(problem)
            if not should_escalate(outcome):
                break
        return outcome.certified

    def _certify_recursive(
        self, region: Interval, depth: int, result: GlobalCertificationResult
    ) -> None:
        predicted = self._cell_prediction(region)
        if self._certify_cell(region, predicted):
            result.cells.append(
                CertifiedCell(region=region, predicted_class=predicted, certified=True, depth=depth)
            )
            return
        if not self._can_split(region, depth):
            result.cells.append(
                CertifiedCell(region=region, predicted_class=predicted, certified=False, depth=depth)
            )
            return
        left, right = region.split()
        self._certify_recursive(left, depth + 1, result)
        self._certify_recursive(right, depth + 1, result)
