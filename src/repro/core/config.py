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

_VALID_DOMAINS = DOMAIN_LADDER
_VALID_SOLVERS = ("pr", "fb")
_VALID_EXPANSIONS = ("const", "exp", "none")
_VALID_SLOPE_MODES = ("none", "reduced", "reference")

#: Steps each candidate of the phase-two alpha race runs before the
#: samples it did not certify move on to the next candidate
#: (:meth:`CraftConfig.race_candidates`).  From 4 steps on, the candidate
#: that leads is the one that leads after 30 on every sample measured: the
#: FCx40 and HCAS smoke models, and the hard cells of the small HCAS model
#: at epsilon 2.0, where a 3-step probe picks a larger alpha that
#: certifies 46 of the 96 cells the 30-step leader certifies.
PROBE_STEPS = 4


@dataclass(frozen=True)
class AutoscaleConfig:
    """Queue-depth worker autoscaling of the cluster scheduler.

    The policy is deliberately simple and fully deterministic given the
    observed queue depths: the shared task queue staying at or above
    ``high_watermark`` for ``dwell_seconds`` grows the local pool by one
    worker (up to ``max_workers``); staying at or below
    ``low_watermark`` for the same dwell retires one idle worker (down
    to ``min_workers``).  The dwell requirement filters transient
    spikes — a single deep poll never scales anything.  Scaling never
    touches verdicts: a retired worker finishes nothing mid-shard (it
    only consumes the retire pill when idle), and a grown worker joins
    at the next generation exactly like a fault respawn.

    Attributes
    ----------
    enabled:
        Master switch.  ``False`` (the default) keeps the pool at its
        constructed size — today's behaviour, bit for bit.
    min_workers / max_workers:
        Inclusive bounds of the local worker pool under scaling.
    high_watermark:
        Queue depth (pending, unclaimed tasks) at or above which the
        pool is considered under-provisioned.
    low_watermark:
        Queue depth at or below which the pool is considered
        over-provisioned.
    dwell_seconds:
        How long a watermark breach must persist before acting; also
        the re-arm delay between consecutive scale events.
    """

    enabled: bool = False
    min_workers: int = 1
    max_workers: int = 4
    high_watermark: int = 4
    low_watermark: int = 0
    dwell_seconds: float = 1.0

    def __post_init__(self):
        if not isinstance(self.min_workers, int) or self.min_workers < 1:
            raise ConfigurationError("min_workers must be a positive integer")
        if not isinstance(self.max_workers, int) or self.max_workers < self.min_workers:
            raise ConfigurationError("max_workers must be an integer >= min_workers")
        if not isinstance(self.high_watermark, int) or self.high_watermark < 1:
            raise ConfigurationError("high_watermark must be a positive integer")
        if not isinstance(self.low_watermark, int) or self.low_watermark < 0:
            raise ConfigurationError("low_watermark must be a non-negative integer")
        if self.low_watermark >= self.high_watermark:
            raise ConfigurationError("low_watermark must be below high_watermark")
        if self.dwell_seconds <= 0:
            raise ConfigurationError("dwell_seconds must be positive")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the long-lived certification service (:mod:`repro.service`).

    None of these fields influence verdicts — they trade latency,
    coalescing breadth and fault-recovery aggressiveness against
    throughput — so they are excluded from the cache's config signature
    by construction (they are not part of :class:`CraftConfig` at all).

    Attributes
    ----------
    coalesce_window_seconds:
        How long the frontend dispatcher holds a freshly admitted cell
        before dispatching its batch, so compatible requests arriving
        close together coalesce into one engine pass.  ``0`` dispatches
        immediately (the property-test setting).
    max_batch_cells:
        Upper bound on the cells of one coalesced engine dispatch.
    default_deadline_seconds / default_budget_cells:
        Applied to requests that name no deadline / no budget.  ``None``
        means unbounded.
    heartbeat_seconds:
        Cadence of idle-worker heartbeats on the cluster result channel.
    shard_timeout_seconds:
        Lease bound of one claimed shard: a worker that claimed a shard
        and produced no result within this bound is marked dead and the
        shard is reassigned (the per-shard timeout machinery of
        :class:`~repro.engine.sharded.ShardedScheduler`, reused as the
        cluster health-check).
    retry_backoff_seconds / retry_backoff_factor / retry_max_attempts:
        The deterministic reassignment schedule
        (:func:`repro.service.faults.retry_backoff`): attempt ``k``
        of a shard waits ``backoff * factor**(k-1)`` (seeded jitter)
        before requeueing; more than ``retry_max_attempts`` attempts
        fails the sweep instead of looping forever.
    restart_workers:
        Whether the cluster scheduler respawns a dead *local* worker
        process (remote workers are never respawned — they belong to
        their own machine's supervisor).
    max_concurrent_batches:
        How many coalesced engine passes may run simultaneously *per
        backend*.  ``1`` (the default) serialises batches behind one
        engine pass — today's behaviour — while larger values let
        distinct coalescing groups (different models, epsilons or clip
        ranges) certify in parallel.  Purely a scheduling knob: verdicts
        are identical at any setting.
    dispatch_log_limit:
        Upper bound on retained ``dispatch_log`` rows (the frontend's
        per-batch audit trail).  Older rows are evicted FIFO so a
        long-lived frontend stays bounded; ``None`` keeps every row.
    autoscale:
        Queue-depth worker autoscaling of the cluster scheduler
        (:class:`AutoscaleConfig`); disabled by default.
    """

    coalesce_window_seconds: float = 0.01
    max_batch_cells: int = 256
    default_deadline_seconds: Optional[float] = None
    default_budget_cells: Optional[int] = None
    heartbeat_seconds: float = 0.25
    shard_timeout_seconds: float = 60.0
    retry_backoff_seconds: float = 0.25
    retry_backoff_factor: float = 2.0
    retry_max_attempts: int = 5
    restart_workers: bool = True
    max_concurrent_batches: int = 1
    dispatch_log_limit: Optional[int] = 1024
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)

    def __post_init__(self):
        if self.coalesce_window_seconds < 0:
            raise ConfigurationError("coalesce_window_seconds must be non-negative")
        if not isinstance(self.max_batch_cells, int) or self.max_batch_cells < 1:
            raise ConfigurationError("max_batch_cells must be a positive integer")
        if (
            self.default_deadline_seconds is not None
            and self.default_deadline_seconds < 0
        ):
            raise ConfigurationError("default_deadline_seconds must be non-negative")
        if self.default_budget_cells is not None and (
            not isinstance(self.default_budget_cells, int)
            or self.default_budget_cells < 0
        ):
            raise ConfigurationError(
                "default_budget_cells must be None or a non-negative integer"
            )
        if self.heartbeat_seconds <= 0:
            raise ConfigurationError("heartbeat_seconds must be positive")
        if self.shard_timeout_seconds <= 0:
            raise ConfigurationError("shard_timeout_seconds must be positive")
        if self.retry_backoff_seconds <= 0:
            raise ConfigurationError("retry_backoff_seconds must be positive")
        if self.retry_backoff_factor < 1.0:
            raise ConfigurationError("retry_backoff_factor must be >= 1")
        if not isinstance(self.retry_max_attempts, int) or self.retry_max_attempts < 1:
            raise ConfigurationError("retry_max_attempts must be a positive integer")
        if (
            not isinstance(self.max_concurrent_batches, int)
            or self.max_concurrent_batches < 1
        ):
            raise ConfigurationError(
                "max_concurrent_batches must be a positive integer"
            )
        if self.dispatch_log_limit is not None and (
            not isinstance(self.dispatch_log_limit, int) or self.dispatch_log_limit < 1
        ):
            raise ConfigurationError(
                "dispatch_log_limit must be None or a positive integer"
            )
        if not isinstance(self.autoscale, AutoscaleConfig):
            raise ConfigurationError("autoscale must be an AutoscaleConfig")


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
    track_trace:
        Record the per-iteration mean width (``width_trace``); tracing
        never changes a verdict.
    """

    max_iterations: int = 500
    consolidate_every: int = 3
    basis_recompute_every: int = 30
    history_size: int = 10
    abort_width: float = 1e9
    track_trace: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be positive")
        if self.consolidate_every < 1:
            raise ConfigurationError("consolidate_every must be positive")
        if self.basis_recompute_every < 1:
            raise ConfigurationError("basis_recompute_every must be positive")
        if self.history_size < 1:
            raise ConfigurationError("history_size must be positive")
        if self.abort_width <= 0:
            raise ConfigurationError("abort_width must be positive")


@dataclass(frozen=True)
class KleeneSettings:
    """Settings of the Kleene-iteration baseline (Section 2.2)."""

    max_iterations: int = 200
    semantic_unrolling: int = 2
    widen_after: int = 50
    widening_threshold: float = 1e6
    abort_width: float = 1e9
    track_trace: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be positive")
        if self.semantic_unrolling < 0:
            raise ConfigurationError("semantic_unrolling must be non-negative")
        if self.widen_after < 0:
            raise ConfigurationError("widen_after must be non-negative")


@dataclass(frozen=True)
class CraftConfig:
    """Configuration of the Craft verifier (Algorithm 1 + Appendix C/D).

    Attributes
    ----------
    domain:
        Abstract domain to use: ``"chzonotope"`` (default), ``"box"``
        (Table 4 "No Zono component"), ``"zonotope"`` (the plain-Zonotope
        pipeline: fresh ReLU error terms become generator columns instead
        of Box radii — Table 4 "No Box component") or ``"parallelotope"``
        (an order-bounded zonotope pipeline: the state is reduced to its
        enclosing PCA parallelotope after every ReLU, so the error-term
        count stays constant).  Every domain runs through every engine
        (``sequential`` / ``batched`` / ``sharded``): the batched stack
        class is resolved by
        :func:`repro.engine.batched_domains.batched_domain_for`, and the
        sequential operations by
        :func:`repro.core.contraction.domain_ops_for`.

        ``domain`` is a validated alias of the *last* (most precise) entry
        of ``domains``: setting one keeps the other consistent, and setting
        both to conflicting values raises :class:`ConfigurationError`.
    domains:
        The **escalation ladder**: a strictly ascending (cheapest-first)
        sub-sequence of ``("box", "zonotope", "parallelotope",
        "chzonotope")``.  The default is the singleton ``(domain,)``, which
        preserves the one-domain-per-sweep behaviour.  With more than one
        stage the engines run a *waterfall*: every query starts in the
        first (cheapest) domain, and queries that come back
        ``UNKNOWN``/``NO_CONTAINMENT``/``DIVERGED`` are re-enqueued into
        the next stage, while ``VERIFIED``/``MISCLASSIFIED`` verdicts exit
        early (see :mod:`repro.engine.escalation`).
    solver1, alpha1:
        Operator-splitting method and damping parameter used in the
        containment-finding phase (default Peaceman–Rachford, alpha = 0.1).
    solver2, alpha2, alpha2_grid:
        Method used in the tightening phase.  ``alpha2 = None`` selects the
        damping adaptively (Appendix E.1) by racing the ``alpha2_grid``
        candidates (:meth:`race_candidates`): each runs ``PROBE_STEPS``
        steps in ascending contraction factor, a sample leaves on its
        first certificate, and the others resume the candidate with the
        best probe margin.  The grid is ignored when ``alpha2`` is fixed.
    expansion, w_mul, w_add:
        Expansion schedule of Eq. (10): ``"const"`` keeps the parameters
        fixed, ``"exp"`` grows them geometrically every second consolidation
        (Appendix D.2), ``"none"`` disables expansion (Table 4 ablation).
    slope_optimization:
        ReLU-slope optimisation mode: ``"none"``, ``"reduced"`` or
        ``"reference"`` (coarser / finer candidate grids, Section 6.3).
    same_iteration_containment:
        Ablation switch: when ``True`` the state used for certification must
        itself be contained in its predecessor (Table 4 "Same iter.
        containment") instead of relying on fixpoint-set preservation.
    use_box_component:
        When ``False`` the ReLU transformer writes fresh error terms into
        generator columns instead of the Box component.
    tighten_max_iterations, tighten_patience:
        Phase-two budget and the no-improvement abort heuristic (3 r' steps
        in Appendix C; here expressed directly as a step count).
    """

    domain: Optional[str] = None
    domains: Optional[Tuple[str, ...]] = None
    solver1: str = "pr"
    alpha1: float = 0.1
    solver2: str = "fb"
    alpha2: Optional[float] = None
    alpha2_grid: Tuple[float, ...] = (0.02, 0.03, 0.04, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 1.0)
    contraction: ContractionSettings = field(default_factory=ContractionSettings)
    expansion: str = "const"
    w_mul: float = 1e-3
    w_add: float = 1e-2
    expansion_mul_growth: float = 1.1
    expansion_add_growth: float = 1.2
    expansion_growth_every: int = 2
    slope_optimization: str = "none"
    slope_candidates_reduced: Tuple[float, ...] = (-0.2, -0.1, 0.1, 0.2)
    slope_candidates_reference: Tuple[float, ...] = (-0.3, -0.2, -0.1, -0.05, 0.05, 0.1, 0.2, 0.3)
    slope_margin_threshold: float = 1.0
    same_iteration_containment: bool = False
    use_box_component: bool = True
    tighten_max_iterations: int = 150
    tighten_patience: int = 30
    concrete_tol: float = 1e-9
    concrete_max_iterations: int = 2000
    verbose: bool = False

    def __post_init__(self):
        self._normalise_domains()
        if self.solver1 not in _VALID_SOLVERS or self.solver2 not in _VALID_SOLVERS:
            raise ConfigurationError(
                f"solvers must be one of {_VALID_SOLVERS}, got "
                f"{self.solver1!r} / {self.solver2!r}"
            )
        if self.expansion not in _VALID_EXPANSIONS:
            raise ConfigurationError(
                f"expansion must be one of {_VALID_EXPANSIONS}, got {self.expansion!r}"
            )
        if self.slope_optimization not in _VALID_SLOPE_MODES:
            raise ConfigurationError(
                f"slope_optimization must be one of {_VALID_SLOPE_MODES}, "
                f"got {self.slope_optimization!r}"
            )
        if not 0.0 < self.alpha1:
            raise ConfigurationError("alpha1 must be positive")
        if self.alpha2 is not None and not 0.0 <= self.alpha2 <= 1.0:
            raise ConfigurationError("alpha2 must lie in [0, 1] for FB fixpoint preservation")
        if self.w_mul < 0 or self.w_add < 0:
            raise ConfigurationError("expansion parameters must be non-negative")
        if self.tighten_max_iterations < 1:
            raise ConfigurationError("tighten_max_iterations must be positive")
        if self.tighten_patience < 1:
            raise ConfigurationError("tighten_patience must be positive")
        if not self.alpha2_grid:
            raise ConfigurationError("alpha2_grid must not be empty")

    def _normalise_domains(self) -> None:
        """Reconcile the ``domain`` alias with the ``domains`` ladder.

        The dataclass is frozen, so the derived fields are written with
        ``object.__setattr__`` — the same idiom frozen dataclasses use for
        any ``__post_init__`` normalisation.
        """
        domains = self.domains
        if domains is not None:
            domains = tuple(domains)
            if not domains:
                raise ConfigurationError("domains must name at least one stage")
            for name in domains:
                if name not in _VALID_DOMAINS:
                    raise ConfigurationError(
                        f"domains entries must be one of {_VALID_DOMAINS}, got {name!r}"
                    )
            ranks = [DOMAIN_LADDER.index(name) for name in domains]
            if any(b <= a for a, b in zip(ranks, ranks[1:])):
                raise ConfigurationError(
                    "domains must form a strictly ascending escalation ladder "
                    f"(cheapest first, order {DOMAIN_LADDER}), got {domains}"
                )
            if self.domain is not None and self.domain != domains[-1]:
                raise ConfigurationError(
                    f"domain {self.domain!r} conflicts with the escalation ladder "
                    f"{domains} — the alias must equal the final (most precise) stage"
                )
            object.__setattr__(self, "domains", domains)
            object.__setattr__(self, "domain", domains[-1])
            return
        domain = self.domain if self.domain is not None else "chzonotope"
        if domain not in _VALID_DOMAINS:
            raise ConfigurationError(
                f"domain must be one of {_VALID_DOMAINS}, got {domain!r}"
            )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "domains", (domain,))

    # Escalation-ladder views (consumed by the engines and schedulers). ----

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
        return replace(self, domain=stage_domain, domains=(stage_domain,))

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
        if self.alpha2 is not None:
            return (("fb", self.alpha2),)
        return tuple(("fb", float(alpha)) for alpha in self.alpha2_grid)

    def race_candidates(
        self, contraction_factor: Optional[Callable[[float], float]] = None
    ) -> Tuple[Tuple[str, float], ...]:
        """:meth:`candidate_parameters` in the order the alpha race probes them.

        The race probes each candidate for :meth:`probe_steps` steps on
        the samples no earlier candidate certified; a sample leaves on its
        first certificate, and every other sample resumes the candidate
        with the best probe margin (the first in this order on ties) up to
        ``tighten_max_iterations``.  Every FB alpha in [0, 1] is
        fixpoint-set preserving (Theorem 5.1), so the order moves time and
        precision, never soundness.

        ``contraction_factor(alpha)`` is the spectral radius of the FB
        step's linear part, rho((1 - alpha) I + alpha W)
        (:func:`repro.mondeq.abstract_solvers.fb_contraction_factor`);
        candidates run in ascending factor, ties in grid order.  Without
        a factor the grid order stands.  Only FB offers more than one
        candidate.
        """
        candidates = self.candidate_parameters()
        if contraction_factor is None or len(candidates) == 1:
            return candidates
        return tuple(sorted(candidates, key=lambda candidate: contraction_factor(candidate[1])))

    def probe_steps(self) -> int:
        """Steps of one race probe: ``PROBE_STEPS``, capped at the phase-two budget."""
        return min(PROBE_STEPS, self.tighten_max_iterations)

    def slope_deltas(self) -> Tuple[float, ...]:
        """ReLU-slope shifts tried by the slope-optimisation pass."""
        if self.slope_optimization == "none":
            return ()
        if self.slope_optimization == "reduced":
            return tuple(self.slope_candidates_reduced)
        return tuple(self.slope_candidates_reference)

    # Convenience constructors for the ablation study (Table 4). ----------

    def with_updates(self, **kwargs) -> "CraftConfig":
        """Return a copy with the given fields replaced.

        Updating ``domain`` without ``domains`` (or vice versa) realigns
        the other field instead of carrying the stale alias over — so
        ``config.with_updates(domain="box")`` means "a Box config", not "a
        conflict with the previous ladder".
        """
        if "domain" in kwargs and "domains" not in kwargs:
            kwargs["domains"] = (kwargs["domain"],) if kwargs["domain"] is not None else None
        elif "domains" in kwargs and "domain" not in kwargs:
            domains = kwargs["domains"]
            kwargs["domain"] = tuple(domains)[-1] if domains else None
        return replace(self, **kwargs)

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
            "no_zono_component": base.with_updates(domain="box", slope_optimization="none"),
            "no_box_component": base.with_updates(use_box_component=False),
            "only_pr": base.with_updates(solver2="pr", alpha2=None),
            "only_fb": base.with_updates(solver1="fb", alpha1=0.04),
            "no_lambda_optimization": base.with_updates(slope_optimization="none"),
            "reduced_lambda_optimization": base.with_updates(slope_optimization="reduced"),
            "same_iteration_containment": base.with_updates(same_iteration_containment=True),
            "no_expansion": base.with_updates(expansion="none", w_mul=0.0, w_add=0.0),
            # The per-query domain waterfall (cheapest domain first, hard
            # queries escalate) — same final precision as the reference.
            "escalation_ladder": base.with_updates(
                domains=("box", "zonotope", "chzonotope")
            ),
        }
        if name not in ablations:
            raise ConfigurationError(
                f"unknown ablation {name!r}; choose from {sorted(ablations)}"
            )
        return ablations[name]
