"""Configuration dataclasses for the fixpoint abstract-interpretation engines.

The default values follow Appendix C / D.2 of the paper (consolidation every
``r = 3`` iterations, PCA-basis recomputation every 30 steps, a history of
the 10 most recent consolidated states, constant expansion with
``w_mul = 1e-3`` and ``w_add = 1e-2``, ``n_max = 500`` iterations, abort
width ``1e9``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

#: Canonical precision/cost order of the abstract domains (Table 4 ladder):
#: escalation ladders must list their stages as a strictly ascending
#: sub-sequence of this tuple, cheapest first.
DOMAIN_LADDER = ("box", "zonotope", "parallelotope", "chzonotope")

_VALID_SOLVERS = ("pr", "fb")
_VALID_EXPANSIONS = ("const", "exp")

#: Steps of each phase-two alpha race probe (:meth:`CraftConfig.race_candidates`),
#: and the stop rule's window (:meth:`CraftConfig.stop_tightening`).  4 is the
#: shortest probe that keeps all 96 certificates of the hard cells of the small
#: HCAS model at epsilon 2.0, where a 3-step probe picks a larger alpha that
#: certifies 46.  A 4-step leader is not always the 30-step leader: on the
#: random-monDEQ corpus of ``scripts/verdict_flips.py`` the race misses 7 of
#: the exhaustive search's 914 certificates, knife-edge cases (margins of 0 to
#: 4e-4) where a larger alpha leads for 4 steps and a smaller one later.
PROBE_STEPS = 4

#: ReLU-slope shifts of each ``slope_optimization`` mode (Section 6.3's
#: reduced and reference grids), read through :meth:`CraftConfig.slope_deltas`.
_SLOPE_DELTAS = {
    "none": (),
    "reduced": (-0.2, -0.1, 0.1, 0.2),
    "reference": (-0.3, -0.2, -0.1, -0.05, 0.05, 0.1, 0.2, 0.3),
}

#: Slope optimisation tries only samples already close to certification:
#: those whose phase-two margin exceeds ``-SLOPE_MARGIN_THRESHOLD``.
SLOPE_MARGIN_THRESHOLD = 1.0


def _check_count(value, name: str, minimum: int) -> None:
    """Reject a count setting that is not an ``int`` of at least ``minimum``
    (NaN and fractions would pass a bare comparison)."""
    if not isinstance(value, int) or value < minimum:
        kind = "positive" if minimum > 0 else "non-negative"
        raise ConfigurationError(f"{name} must be a {kind} integer")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the long-lived certification service (:mod:`repro.service`).

    None of these fields influence verdicts — they trade batch size,
    engine concurrency and fault-recovery aggressiveness against
    throughput — so they are excluded from the cache's config signature
    by construction (they are not part of :class:`CraftConfig` at all).

    The frontend dispatches work-conservingly: a queued batch-signature
    group leaves as soon as its backend has a free engine slot, and
    compatible cells coalesce only while every slot is busy.  No timer
    holds a group back.

    Attributes
    ----------
    max_batch_cells:
        Upper bound on the cells of one coalesced engine dispatch.
    shard_timeout_seconds:
        Lease bound of one claimed shard: a worker that claimed a shard
        and produced no result within this bound is marked dead and the
        shard is reassigned (the per-shard timeout machinery of
        :class:`~repro.engine.sharded.ShardedScheduler`, reused as the
        cluster health-check).
    retry_backoff_seconds / retry_backoff_factor:
        The deterministic reassignment schedule
        (:func:`repro.service.faults.retry_backoff`): attempt ``k``
        of a shard waits ``backoff * factor**(k-1)`` (seeded jitter)
        before requeueing; more than
        :data:`repro.service.cluster.RETRY_MAX_ATTEMPTS` attempts fails
        the sweep instead of looping forever.
    max_concurrent_batches:
        How many coalesced engine passes may run simultaneously *per
        backend*: its engine slots.  ``1`` (the default) serialises
        batches behind one engine pass, while larger values let distinct
        coalescing groups (different models, epsilons or clip ranges)
        certify in parallel.  Purely a scheduling knob: verdicts are
        identical at any setting.
    """

    max_batch_cells: int = 256
    shard_timeout_seconds: float = 60.0
    retry_backoff_seconds: float = 0.25
    retry_backoff_factor: float = 2.0
    max_concurrent_batches: int = 1

    def __post_init__(self):
        _check_count(self.max_batch_cells, "max_batch_cells", 1)
        # Float checks are written ``not x >= bound`` so that NaN fails them.
        if not self.shard_timeout_seconds > 0:
            raise ConfigurationError("shard_timeout_seconds must be positive")
        if not self.retry_backoff_seconds > 0:
            raise ConfigurationError("retry_backoff_seconds must be positive")
        if not self.retry_backoff_factor >= 1.0:
            raise ConfigurationError("retry_backoff_factor must be >= 1")
        _check_count(self.max_concurrent_batches, "max_concurrent_batches", 1)


@dataclass(frozen=True)
class ContractionSettings:
    """Settings of the phase-one contraction search (Theorem 3.1 / B.1).

    Attributes
    ----------
    max_iterations:
        Phase-one iteration budget; a query that finds no containment
        within it ends ``NO_CONTAINMENT``.
    consolidate_every:
        Consolidation (and Eq. 10 expansion) cadence: the state entering
        iteration ``i`` is consolidated when ``i % consolidate_every == 0``,
        so iteration 0 always consolidates.  Each consolidated state joins
        the containment history.
    basis_recompute_every:
        Consolidation-basis cadence.  The first basis is computed from the
        initial state, a point, so it is the identity.  It is recomputed
        from the current state (each element's own PCA basis) at
        every consolidation whose iteration is a multiple of this value,
        and reused in between, so a query that leaves phase one before
        then consolidates only onto the identity.  Box has no basis.
    history_size:
        Number of most recent consolidated states the current state is
        checked against (Theorem B.1); the newest match is recorded.
    abort_width:
        A state wider than this in any coordinate, or non-finite, ends the
        query as diverged.
    """

    max_iterations: int = 500
    consolidate_every: int = 3
    basis_recompute_every: int = 30
    history_size: int = 10
    abort_width: float = 1e9

    def __post_init__(self):
        for name in ("max_iterations", "consolidate_every", "basis_recompute_every", "history_size"):
            _check_count(getattr(self, name), name, 1)
        if not self.abort_width > 0:
            raise ConfigurationError("abort_width must be positive")


@dataclass(frozen=True)
class KleeneSettings:
    """Settings of the Kleene-iteration baseline (Section 2.2)."""

    max_iterations: int = 200
    semantic_unrolling: int = 2
    widen_after: int = 50
    widening_threshold: float = 1e6
    abort_width: float = 1e9

    def __post_init__(self):
        _check_count(self.max_iterations, "max_iterations", 1)
        _check_count(self.semantic_unrolling, "semantic_unrolling", 0)
        _check_count(self.widen_after, "widen_after", 0)
        if not self.widening_threshold > 0:
            raise ConfigurationError("widening_threshold must be positive")
        if not self.abort_width > 0:
            raise ConfigurationError("abort_width must be positive")


@dataclass(frozen=True)
class CraftConfig:
    """Configuration of the Craft verifier (Algorithm 1 + Appendix C/D).

    Attributes
    ----------
    domains:
        The **escalation ladder**: a strictly ascending (cheapest-first)
        sub-sequence of ``("box", "zonotope", "parallelotope",
        "chzonotope")``.  The default ``("chzonotope",)`` runs one domain
        per sweep; a one-stage ladder names the sweep's domain:
        ``"chzonotope"``, ``"box"`` (Table 4 "No Zono component"),
        ``"zonotope"`` (the plain-Zonotope pipeline: fresh ReLU error terms
        become generator columns instead of Box radii — Table 4 "No Box
        component") or ``"parallelotope"`` (an order-bounded zonotope
        pipeline: the state is reduced to its enclosing PCA parallelotope
        after every ReLU, so the error-term count stays constant).  Every
        domain runs through every engine (``sequential`` / ``batched`` /
        ``sharded``): the batched stack class is resolved by
        :func:`repro.engine.batched_domains.batched_domain_for`, and the
        sequential operations by
        :func:`repro.core.contraction.domain_ops_for`.

        With more than one stage the engines run a *waterfall*: every
        query starts in the first (cheapest) domain, and queries that come
        back ``UNKNOWN``/``NO_CONTAINMENT``/``DIVERGED`` are re-enqueued
        into the next stage, while ``VERIFIED``/``MISCLASSIFIED`` verdicts
        exit early (see :mod:`repro.engine.escalation`).  The read-only
        :attr:`domain` is the last (most precise) stage.
    solver1, alpha1:
        Operator-splitting method and damping parameter used in the
        containment-finding phase (default Peaceman–Rachford, alpha = 0.1).
    solver2, alpha2_grid:
        Method used in the tightening phase.  FB selects its damping
        adaptively (Appendix E.1) by racing the ``alpha2_grid`` candidates
        (:meth:`race_candidates`): ``PROBE_STEPS``-step probes start at the
        candidate of least contraction factor and walk outward in alpha,
        each side until a probe does not beat the sample's best; a sample
        leaves on its first certificate, and the others resume their best
        probe.  A one-entry grid fixes alpha.  Every entry must lie in
        [0, 1] (Theorem 5.1).
    expansion, w_mul, w_add:
        Expansion schedule of Eq. (10): ``"const"`` keeps the parameters
        fixed, ``"exp"`` grows them geometrically every second consolidation
        (Appendix D.2, :mod:`repro.core.expansion`).  ``w_mul = w_add = 0``
        disables expansion (Table 4 "No Expansion").
    slope_optimization:
        ReLU-slope optimisation mode: ``"none"``, ``"reduced"`` or
        ``"reference"`` (coarser / finer candidate grids, Section 6.3;
        see :meth:`slope_deltas`).
    same_iteration_containment:
        Ablation switch: when ``True`` the state used for certification must
        itself be contained in its predecessor (Table 4 "Same iter.
        containment") instead of relying on fixpoint-set preservation.
    tighten_max_iterations:
        Phase-two budget in steps; see also :meth:`stop_tightening`.
    """

    domains: Tuple[str, ...] = ("chzonotope",)
    solver1: str = "pr"
    alpha1: float = 0.1
    solver2: str = "fb"
    alpha2_grid: Tuple[float, ...] = (0.02, 0.03, 0.04, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 1.0)
    contraction: ContractionSettings = field(default_factory=ContractionSettings)
    expansion: str = "const"
    w_mul: float = 1e-3
    w_add: float = 1e-2
    slope_optimization: str = "none"
    same_iteration_containment: bool = False
    tighten_max_iterations: int = 150

    def __post_init__(self):
        # A frozen dataclass normalises with object.__setattr__; a tuple keeps
        # the config hashable and its cache signature independent of how the
        # ladder was spelled.
        object.__setattr__(self, "domains", tuple(self.domains))
        if not self.domains:
            raise ConfigurationError("domains must name at least one stage")
        for name in self.domains:
            if name not in DOMAIN_LADDER:
                raise ConfigurationError(
                    f"domains entries must be one of {DOMAIN_LADDER}, got {name!r}"
                )
        ranks = [DOMAIN_LADDER.index(name) for name in self.domains]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise ConfigurationError(
                "domains must form a strictly ascending escalation ladder "
                f"(cheapest first, order {DOMAIN_LADDER}), got {self.domains}"
            )
        if self.solver1 not in _VALID_SOLVERS or self.solver2 not in _VALID_SOLVERS:
            raise ConfigurationError(
                f"solvers must be one of {_VALID_SOLVERS}, got "
                f"{self.solver1!r} / {self.solver2!r}"
            )
        if self.expansion not in _VALID_EXPANSIONS:
            raise ConfigurationError(
                f"expansion must be one of {_VALID_EXPANSIONS}, got {self.expansion!r}"
            )
        if self.slope_optimization not in _SLOPE_DELTAS:
            raise ConfigurationError(
                f"slope_optimization must be one of {tuple(_SLOPE_DELTAS)}, "
                f"got {self.slope_optimization!r}"
            )
        # Float checks are written ``not x >= bound`` so that NaN fails them.
        if not 0.0 < self.alpha1:
            raise ConfigurationError("alpha1 must be positive")
        if not self.alpha2_grid:
            raise ConfigurationError("alpha2_grid must not be empty")
        if not all(0.0 <= alpha <= 1.0 for alpha in self.alpha2_grid):
            raise ConfigurationError(
                "alpha2_grid entries must lie in [0, 1] for FB fixpoint preservation"
            )
        if not (self.w_mul >= 0 and self.w_add >= 0):
            raise ConfigurationError("expansion parameters must be non-negative")
        _check_count(self.tighten_max_iterations, "tighten_max_iterations", 1)

    # Escalation-ladder views (consumed by the engines and schedulers). ----

    @property
    def domain(self) -> str:
        """The sweep's domain: the last (most precise) stage of ``domains``."""
        return self.domains[-1]

    @property
    def is_ladder(self) -> bool:
        """Whether this configuration escalates across multiple domains."""
        return len(self.domains) > 1

    def stage_config(self, stage_domain: str) -> "CraftConfig":
        """The single-domain configuration of one ladder stage.

        Everything except the domain choice is shared across stages, so
        the final stage of a ladder is exactly the single-domain
        configuration the engine parity contract compares against.
        """
        if stage_domain not in self.domains:
            raise ConfigurationError(
                f"{stage_domain!r} is not a stage of the ladder {self.domains}"
            )
        return replace(self, domains=(stage_domain,))

    def stage_configs(self) -> Tuple["CraftConfig", ...]:
        """Per-stage configurations, cheapest first."""
        return tuple(self.stage_config(name) for name in self.domains)

    @classmethod
    def escalation(cls, domains: Sequence[str] = ("box", "zonotope", "chzonotope"), **kwargs) -> "CraftConfig":
        """A waterfall configuration over the given escalation ladder.

        The default ladder is the Table 4 precision/cost ladder the paper
        motivates: Box certifies the easy queries in a fraction of the
        time, and only the hard residue pays CH-Zonotope cost.
        """
        return cls(domains=tuple(domains), **kwargs)

    # Derived phase-two policies (shared by the sequential and batched
    # Craft drivers — the engine's parity contract requires one copy). ----

    def candidate_parameters(self) -> Tuple[Tuple[str, float], ...]:
        """Candidate (solver, alpha) pairs for the tightening phase.

        Peaceman–Rachford preserves fixpoints only for the *fixed* alpha used
        to define the auxiliary variables, so PR candidates reuse ``alpha1``.
        Forward–Backward splitting preserves fixpoints for any alpha in
        [0, 1] (Theorem 5.1), so FB candidates span ``alpha2_grid``.
        """
        if self.solver2 == "pr":
            return (("pr", self.alpha1),)
        return tuple(("fb", float(alpha)) for alpha in self.alpha2_grid)

    def race_candidates(
        self, contraction_factor: Optional[Callable[[float], float]] = None
    ) -> Tuple[Tuple[str, float], Tuple[Tuple[str, float], ...], Tuple[Tuple[str, float], ...]]:
        """The alpha race's walk over :meth:`candidate_parameters`: ``(start,
        smaller, larger)``.

        ``start`` is the candidate of least ``contraction_factor(alpha)``,
        the spectral radius of the FB step's linear part, rho((1 - alpha) I
        + alpha W) (:func:`repro.mondeq.abstract_solvers.fb_contraction_factor`),
        ties in grid order; without a factor it is the first grid entry.
        ``smaller`` and ``larger`` are the candidates of smaller and larger
        alpha, each ordered outward from the start.

        The race probes the start for :meth:`probe_steps` steps, then walks
        ``smaller`` and then ``larger``: a sample takes a side's next probe
        only while its last probe on that side strictly beat its leader (its
        best probe margin so far), since the probe margin is unimodal in
        alpha on every sample measured.  A sample leaves on its first
        certificate, and every other sample resumes its leader (the first
        probed on ties) up to ``tighten_max_iterations``.  Every FB alpha in
        [0, 1] is fixpoint-set preserving (Theorem 5.1), so the walk moves
        time and precision, never soundness.  Only FB offers more than one
        candidate.
        """
        candidates = self.candidate_parameters()
        start = 0
        if contraction_factor is not None and len(candidates) > 1:
            start = min(
                range(len(candidates)), key=lambda index: contraction_factor(candidates[index][1])
            )
        order = sorted(range(len(candidates)), key=lambda index: candidates[index][1])
        position = order.index(start)
        return (
            candidates[start],
            tuple(candidates[index] for index in reversed(order[:position])),
            tuple(candidates[index] for index in order[position + 1 :]),
        )

    def probe_steps(self) -> int:
        """Steps of one race probe: ``PROBE_STEPS``, capped at the phase-two budget."""
        return min(PROBE_STEPS, self.tighten_max_iterations)

    def stop_tightening(self, step: int, margin, earlier_margin):
        """Whether phase two stops a sample (scalars, or arrays of samples) that
        has not certified at usable step ``step``: its best ``margin`` plus the
        gain since ``earlier_margin`` (``PROBE_STEPS`` usable steps ago, ``-inf``
        before) extended over the rest of the budget is at most 0 (docs/engines.md)."""
        remaining = self.tighten_max_iterations - step
        return margin + remaining * (margin - earlier_margin) / PROBE_STEPS <= 0.0

    def slope_deltas(self) -> Tuple[float, ...]:
        """ReLU-slope shifts tried by the slope-optimisation pass, which runs
        only on samples whose margin exceeds ``-SLOPE_MARGIN_THRESHOLD``."""
        return _SLOPE_DELTAS[self.slope_optimization]

    # Convenience constructors for the ablation study (Table 4). ----------

    @classmethod
    def reference(cls) -> "CraftConfig":
        """The reference configuration of Table 4 (PR then FB, slope opt on)."""
        return cls(slope_optimization="reference")

    @classmethod
    def ablation(cls, name: str) -> "CraftConfig":
        """Named ablation configurations matching the rows of Table 4."""
        base = cls.reference()
        ablations = {
            "reference": base,
            "no_zono_component": replace(base, domains=("box",), slope_optimization="none"),
            "no_box_component": replace(base, domains=("zonotope",)),
            "only_pr": replace(base, solver2="pr"),
            "only_fb": replace(base, solver1="fb", alpha1=0.04),
            "no_lambda_optimization": replace(base, slope_optimization="none"),
            "reduced_lambda_optimization": replace(base, slope_optimization="reduced"),
            "same_iteration_containment": replace(base, same_iteration_containment=True),
            "no_expansion": replace(base, w_mul=0.0, w_add=0.0),
            # The per-query domain waterfall (cheapest domain first, hard
            # queries escalate) — same final precision as the reference.
            "escalation_ladder": replace(base, domains=("box", "zonotope", "chzonotope")),
        }
        if name not in ablations:
            raise ConfigurationError(
                f"unknown ablation {name!r}; choose from {sorted(ablations)}"
            )
        return ablations[name]
