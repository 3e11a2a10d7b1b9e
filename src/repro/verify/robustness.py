"""Local robustness certification of monDEQs with Craft (Section 6.1).

This module wires the generic Craft verifier (:mod:`repro.core.craft`) to
the monDEQ substrate: it builds the joint-space abstract solver steps, the
initial state (the concrete fixpoint of the centre input, Algorithm 1
line 2), the output map and the classification postcondition, then runs the
two phases and reports a :class:`~repro.core.results.VerificationResult`.

It also provides the dataset-level evaluation harness used by Tables 2
and 3: natural accuracy, the PGD upper bound (``#Bound``), containment
count (``#Cont.``), certified count (``#Cert.``) and mean runtime.

Sweeps over many regions route through the batched certification engine
(:mod:`repro.engine`) by default — see :func:`certify_local_robustness`;
the per-sample :func:`certify_sample` loop is kept as the reference
implementation the engine's parity tests compare against.  Every abstract
domain (CH-Zonotope, Box, plain Zonotope) runs through every engine — the
batched element stack is resolved per ``CraftConfig.domain`` by
:func:`repro.engine.batched_domains.batched_domain_for`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import CraftConfig
from repro.core.craft import CraftVerifier, FixpointProblem
from repro.core.results import VerificationOutcome, VerificationResult
from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.parallelotope import ParallelotopeZonotope
from repro.domains.zonotope import Zonotope
from repro.exceptions import VerificationError
from repro.mondeq.abstract_solvers import (
    build_initial_state,
    fb_contraction_factor,
    layout_for,
    make_abstract_step,
    make_output_map,
    make_z_extractor,
    shared_input_terms,
)
from repro.mondeq.attacks import PGDConfig, pgd_attack
from repro.mondeq.model import MonDEQ
from repro.mondeq.solvers import solve_fixpoint
from repro.utils.rng import SeedLike, as_generator
from repro.verify.specs import ClassificationSpec, LinfBall, check_input_dim

_DOMAIN_CLASSES = {
    "chzonotope": CHZonotope,
    "box": Interval,
    "zonotope": Zonotope,
    "parallelotope": ParallelotopeZonotope,
}

_logger = logging.getLogger(__name__)

#: (engine, domain) pairs whose dispatch decision has already been logged —
#: sweeps run thousands of queries, so the choice is announced once per
#: process instead of once per call.
_LOGGED_ENGINE_CHOICES: set = set()


def _log_engine_choice(engine: str, domain: str) -> None:
    key = (engine, domain)
    if key not in _LOGGED_ENGINE_CHOICES:
        _LOGGED_ENGINE_CHOICES.add(key)
        _logger.info(
            "certification sweep dispatching to engine=%r for domain=%r", engine, domain
        )


def build_fixpoint_problem(
    model: MonDEQ,
    ball: LinfBall,
    spec: Optional[ClassificationSpec],
    config: CraftConfig,
) -> FixpointProblem:
    """Construct the :class:`FixpointProblem` for one robustness query."""
    check_input_dim(ball.dim, model.input_dim)
    layout = layout_for(model, config.solver1)
    if config.solver1 == "fb" and config.solver2 == "pr":
        raise VerificationError(
            "tightening with PR after an FB containment phase is not supported: "
            "the auxiliary PR state was never computed (Section 6.3)"
        )

    input_element = ball.to_element(config.domain)
    concrete = solve_fixpoint(
        model,
        ball.center,
        method=config.solver1,
        alpha=config.alpha1 if config.solver1 == "pr" else None,
        tol=config.concrete_tol,
        max_iterations=config.concrete_max_iterations,
    )
    domain_cls = _DOMAIN_CLASSES[config.domain]
    initial_state = build_initial_state(model, layout, concrete.z, domain=domain_cls)

    contraction_step = make_abstract_step(
        model, layout, input_element, config.solver1, config.alpha1,
        use_box_component=config.use_box_component,
    )

    input_terms = shared_input_terms(config.domain, input_element)

    def tightening_factory(solver: str, alpha: float, slope_delta: float):
        return make_abstract_step(
            model, layout, input_element, solver, alpha, slope_delta=slope_delta,
            use_box_component=config.use_box_component, input_terms=input_terms,
        )

    output_map = make_output_map(model, layout)
    postcondition = spec.evaluate if spec is not None else None
    return FixpointProblem(
        input_element=input_element,
        initial_state=initial_state,
        contraction_step=contraction_step,
        tightening_step_factory=tightening_factory,
        extract_output=output_map,
        postcondition=postcondition,
        description=f"{model.name}: robustness eps={ball.epsilon} target={getattr(spec, 'target', None)}",
        input_terms=input_terms,
        contraction_factor=fb_contraction_factor(model),
    )


def certify_sample(
    model: MonDEQ,
    x: np.ndarray,
    label: int,
    epsilon: float,
    config: Optional[CraftConfig] = None,
    clip_min: Optional[float] = 0.0,
    clip_max: Optional[float] = 1.0,
) -> VerificationResult:
    """Certify l-infinity robustness of a single sample with Craft.

    If the model misclassifies ``x`` the result is ``MISCLASSIFIED`` without
    running the abstract analysis (the property is trivially false).

    Escalation-ladder configurations run the per-sample waterfall: the
    sample is certified in the cheapest configured domain first and climbs
    to the next stage while the verdict stays unresolved (the sequential
    reference semantics the engine ladders are parity-tested against).
    """
    from dataclasses import replace as _replace

    config = config if config is not None else CraftConfig()
    x = np.asarray(x, dtype=float).reshape(-1)
    check_input_dim(x.shape[0], model.input_dim)
    prediction = model.predict(x)
    if prediction != label:
        return VerificationResult(
            outcome=VerificationOutcome.MISCLASSIFIED,
            contained=False,
            certified=False,
            margin=-np.inf,
            iterations_phase1=0,
            iterations_phase2=0,
            time_seconds=0.0,
            notes=f"model predicts class {prediction}, expected {label}",
        )
    from repro.engine.escalation import should_escalate

    ball = LinfBall(center=x, epsilon=epsilon, clip_min=clip_min, clip_max=clip_max)
    spec = ClassificationSpec(target=int(label), num_classes=model.output_dim)
    result = None
    for stage_config in config.stage_configs():
        problem = build_fixpoint_problem(model, ball, spec, stage_config)
        result = CraftVerifier(stage_config).solve(problem)
        result = _replace(result, stage=stage_config.domain)
        if not should_escalate(result):
            break
    return result


def fixpoint_set_abstraction(
    model: MonDEQ,
    x: np.ndarray,
    epsilon: float,
    config: Optional[CraftConfig] = None,
    tighten_iterations: int = 20,
    clip_min: Optional[float] = 0.0,
    clip_max: Optional[float] = 1.0,
):
    """Sound abstraction of the latent fixpoint set ``Z*`` for an input ball.

    Used by the width-trace (Fig. 13), HCAS and running-example experiments.
    Returns the :class:`~repro.core.results.FixpointAbstraction` over the
    *joint* space plus an extractor mapping it to the ``z`` block.
    """
    config = config if config is not None else CraftConfig()
    x = np.asarray(x, dtype=float).reshape(-1)
    ball = LinfBall(center=x, epsilon=epsilon, clip_min=clip_min, clip_max=clip_max)
    problem = build_fixpoint_problem(model, ball, None, config)
    verifier = CraftVerifier(config)
    abstraction = verifier.compute_fixpoint_set(problem, tighten_iterations=tighten_iterations)
    layout = layout_for(model, config.solver1)
    return abstraction, make_z_extractor(layout)


def certify_local_robustness(
    model: MonDEQ,
    xs: np.ndarray,
    labels: np.ndarray,
    epsilon: float,
    config: Optional[CraftConfig] = None,
    engine: str = "batched",
    batch_size: Optional[int] = None,
    cache_dir: Optional[str] = None,
    clip_min: Optional[float] = 0.0,
    clip_max: Optional[float] = 1.0,
    num_workers: Optional[int] = None,
    timeout_seconds: Optional[float] = None,
    keep_abstractions: bool = True,
) -> List[VerificationResult]:
    """Certify l-infinity robustness for every (row of ``xs``, label) query.

    Parameters
    ----------
    model:
        The monDEQ whose predictions are being certified.
    xs, labels, epsilon:
        Query centres (one row per query), their expected classes, and the
        shared l-infinity perturbation radius.
    config:
        The :class:`~repro.core.config.CraftConfig` controlling domain,
        solvers and budgets.  Every ``config.domain`` — ``"chzonotope"``,
        ``"box"``, ``"zonotope"`` and ``"parallelotope"`` — runs through
        every engine; the batched stack class is resolved by
        :func:`repro.engine.batched_domains.batched_domain_for`, and an
        unknown domain name raises
        :class:`~repro.exceptions.ConfigurationError` (never a silent
        sequential fallback).  The chosen (engine, domain) dispatch is
        logged once per process on the ``repro.verify.robustness`` logger.

        An **escalation ladder** (``config.domains`` with several stages,
        e.g. ``CraftConfig.escalation()``) makes the domain choice
        per-query on every engine: each query starts in the cheapest
        stage, certified/falsified verdicts exit early, unresolved ones
        climb (:mod:`repro.engine.escalation`).  Each result's ``stage``
        field names the resolving domain.
    engine:
        Execution strategy:

        * ``"batched"`` (default) routes through the vectorised
          certification engine (:mod:`repro.engine`): the whole sweep
          shares one
          :class:`~repro.engine.scheduler.BatchCertificationScheduler`,
          which certifies up to ``batch_size`` regions per pass and
          optionally persists verdicts to ``cache_dir``.
        * ``"sharded"`` additionally fans the batches out to
          ``num_workers`` worker processes
          (:class:`~repro.engine.sharded.ShardedScheduler`) — the scale-up
          path for large sweeps; weights are shipped to each worker once
          and the on-disk cache is shared across workers.
        * ``"sequential"`` maps :func:`certify_sample` over the queries —
          the reference implementation the engine's parity tests compare
          against.
        * ``"service"`` admits the sweep through the long-lived
          certification service's async frontend
          (:func:`repro.service.serve_sweep`): cache-first admission,
          coalescing, and per-cell verdict streaming, backed by a
          batched scheduler.  Same verdicts as every other engine — this
          is the parity entry point for the service stack; long-lived
          deployments construct a
          :class:`~repro.service.CertificationFrontend` directly.
    batch_size:
        Regions per batched pass (per shard for ``"sharded"``).  ``None``
        (default) means :data:`repro.engine.escalation.DEFAULT_BATCH_SIZE`.
        Batch sizing never changes verdicts.
    cache_dir:
        Optional on-disk fixpoint-cache directory; re-running a sweep with
        unchanged weights/config answers repeated queries from the cache.
    num_workers, timeout_seconds, keep_abstractions:
        Sharded-engine knobs: worker-pool size (default: available CPUs),
        the bound on every wait for a shard result (default 600 s — a hung
        worker fails the sweep fast), and whether workers ship the
        abstraction elements back (``False`` strips them before they cross
        the pool pipe; verdict-only consumers should strip).

    Returns
    -------
    list of VerificationResult
        Per-query results in input order.  All engines return identical
        verdicts and margins/bounds within 1e-9 (the engine parity
        contract, enforced by ``tests/engine/test_parity.py`` and the
        differential fuzzing suite).
    """
    config = config if config is not None else CraftConfig()
    if engine not in ("batched", "sequential", "sharded", "service"):
        raise VerificationError(
            f"unknown engine {engine!r}; choose 'batched', 'sharded', "
            f"'sequential' or 'service'"
        )
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    check_input_dim(xs.shape[1], model.input_dim)
    labels = np.asarray(labels, dtype=int).reshape(-1)
    if xs.shape[0] != labels.shape[0]:
        raise VerificationError(
            f"xs and labels must have matching lengths, got {xs.shape[0]} vs {labels.shape[0]}"
        )
    _log_engine_choice(engine, " -> ".join(config.domains))
    if engine == "sharded":
        from repro.engine.sharded import ShardedScheduler

        extra = {} if timeout_seconds is None else {"timeout_seconds": timeout_seconds}
        with ShardedScheduler(
            model, config, num_workers=num_workers, batch_size=batch_size,
            cache_dir=cache_dir, keep_abstractions=keep_abstractions, **extra,
        ) as scheduler:
            return scheduler.certify(
                xs, labels, epsilon, clip_min=clip_min, clip_max=clip_max
            ).results
    if engine == "service":
        from repro.service import serve_sweep

        return serve_sweep(
            model, xs, labels, epsilon, config=config,
            clip_min=clip_min, clip_max=clip_max, cache_dir=cache_dir,
        ).results
    if engine == "batched":
        from repro.engine.scheduler import BatchCertificationScheduler

        scheduler = BatchCertificationScheduler(
            model, config, batch_size=batch_size, cache_dir=cache_dir
        )
        return scheduler.certify(xs, labels, epsilon, clip_min=clip_min, clip_max=clip_max).results
    return [
        certify_sample(model, x, int(label), epsilon, config, clip_min=clip_min, clip_max=clip_max)
        for x, label in zip(xs, labels)
    ]


@dataclass
class SampleRecord:
    """Per-sample record of the dataset-level evaluation (Tables 2 / 3)."""

    index: int
    label: int
    predicted: int
    correct: bool
    empirically_robust: Optional[bool]
    contained: bool
    certified: bool
    margin: float
    time_seconds: float
    outcome: str
    #: Resolving ladder stage (abstract domain) of the verdict; ``None``
    #: for misclassified samples (never enter the waterfall).
    stage: Optional[str] = None
    #: Whether the verdict was replayed from the fixpoint cache.
    cached: bool = False
    #: Measured peak error-term count of the query (``None`` when the
    #: abstract analysis never ran — misclassification short-circuits).
    peak_error_terms: Optional[int] = None
    #: Phase-one containment-search iterations the verdict ran.
    iterations_phase1: int = 0


@dataclass
class RobustnessReport:
    """Aggregated results over an evaluation set (one table row)."""

    model_name: str
    epsilon: float
    records: List[SampleRecord] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        return len(self.records)

    @property
    def num_correct(self) -> int:
        return sum(record.correct for record in self.records)

    @property
    def num_bound(self) -> int:
        return sum(bool(record.empirically_robust) for record in self.records)

    @property
    def num_contained(self) -> int:
        return sum(record.contained for record in self.records)

    @property
    def num_certified(self) -> int:
        return sum(record.certified for record in self.records)

    @property
    def mean_time_correct(self) -> float:
        times = [record.time_seconds for record in self.records if record.correct]
        return float(np.mean(times)) if times else 0.0

    @property
    def cache_hits(self) -> int:
        """Verdicts replayed from the on-disk fixpoint cache."""
        return sum(record.cached for record in self.records)

    @property
    def cache_misses(self) -> int:
        """Verdicts computed live (including misclassification shortcuts)."""
        return self.num_samples - self.cache_hits

    @property
    def phase1_iterations(self) -> int:
        """Total phase-one iterations across the evaluation set."""
        return sum(record.iterations_phase1 for record in self.records)

    @property
    def stage_counts(self) -> dict:
        """Resolving-stage histogram, cheapest domain first.

        This is where escalation savings become visible in sweep output:
        queries a cheap stage resolved never paid the expensive stack.
        """
        from repro.engine.escalation import stage_histogram

        return stage_histogram(self.records)

    @property
    def measured_error_terms(self) -> Dict[str, int]:
        """Per-stage maxima of the measured peak error-term counts."""
        measured: Dict[str, int] = {}
        for record in self.records:
            if record.stage is not None and record.peak_error_terms:
                measured[record.stage] = max(
                    measured.get(record.stage, 0), record.peak_error_terms
                )
        return measured

    def as_row(self) -> dict:
        """Dictionary matching the columns of Table 2 (plus the fixpoint-cache,
        escalation-stage and per-stage peak error-term counters of the
        engine subsystem)."""
        return {
            "model": self.model_name,
            "epsilon": self.epsilon,
            "acc": self.num_correct,
            "bound": self.num_bound,
            "cont": self.num_contained,
            "cert": self.num_certified,
            "time": round(self.mean_time_correct, 3),
            "samples": self.num_samples,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "stages": self.stage_counts,
            "error_terms": self.measured_error_terms,
            "phase1_iterations": self.phase1_iterations,
        }


class RobustnessVerifier:
    """Dataset-level robustness evaluation harness."""

    def __init__(
        self,
        model: MonDEQ,
        config: Optional[CraftConfig] = None,
        attack_config: Optional[PGDConfig] = None,
    ):
        self.model = model
        self.config = config if config is not None else CraftConfig()
        self.attack_config = attack_config if attack_config is not None else PGDConfig()

    def evaluate(
        self,
        xs: np.ndarray,
        labels: np.ndarray,
        epsilon: float,
        max_samples: Optional[int] = None,
        run_attack: bool = True,
        seed: SeedLike = 0,
        engine: str = "batched",
        num_workers: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
        cache_dir: Optional[str] = None,
    ) -> RobustnessReport:
        """Evaluate the first ``max_samples`` samples (paper: first 100).

        For each correctly classified sample the PGD attack provides the
        empirical-robustness upper bound, and Craft attempts certification;
        misclassified samples only count towards natural accuracy.

        Parameters
        ----------
        xs, labels, epsilon:
            Evaluation inputs, their reference labels, and the shared
            perturbation radius.
        max_samples:
            Truncate the evaluation to the first ``max_samples`` rows
            (``None`` evaluates everything; the paper uses 100).
        run_attack, seed:
            Whether to run the PGD upper-bound attack on correctly
            classified samples, and the attack's RNG seed.
        engine:
            ``"batched"`` (default) runs the sweep through the vectorised
            certification engine, ``"sharded"`` fans it out over
            ``num_workers`` processes
            (:class:`~repro.engine.sharded.ShardedScheduler`), and
            ``"sequential"`` restores the per-sample reference loop.
            Every ``config.domain`` (CH-Zonotope, Box, Zonotope) is
            supported by every engine, and all engines produce identical
            verdicts (the parity contract).  Batches hold the default
            size of :func:`certify_local_robustness`.
        num_workers, timeout_seconds:
            Sharded-engine pool size and the per-shard wait bound
            (default 600 s).
        cache_dir:
            Optional on-disk fixpoint-cache directory (``batched`` and
            ``sharded`` engines; the sequential reference loop does not
            consult a cache).  Replayed verdicts are flagged per record
            and counted by ``RobustnessReport.cache_hits`` /
            ``cache_misses``.

        Escalation-ladder configurations (``CraftConfig.domains`` with
        several stages) run the waterfall on every engine; each record's
        ``stage`` names the resolving domain and
        ``RobustnessReport.stage_counts`` aggregates them (surfaced by
        ``as_row`` next to the cache counters).
        """
        rng = as_generator(seed)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        labels = np.asarray(labels, dtype=int).reshape(-1)
        if max_samples is not None:
            xs = xs[:max_samples]
            labels = labels[:max_samples]

        # The report only reads scalar verdict fields, so sharded workers
        # need not serialise the abstraction elements back.
        results = certify_local_robustness(
            self.model, xs, labels, epsilon, self.config, engine=engine,
            num_workers=num_workers, timeout_seconds=timeout_seconds,
            keep_abstractions=False, cache_dir=cache_dir,
        )
        # One vectorised fixpoint pass recovers every prediction (same
        # pr/tol defaults as model.predict) instead of a sequential solve
        # per record.
        predictions = self.model.predict_batch(xs)
        report = RobustnessReport(model_name=self.model.name, epsilon=epsilon)
        for index, (x, label, result) in enumerate(zip(xs, labels, results)):
            prediction = int(predictions[index])
            correct = prediction == label
            empirically_robust: Optional[bool] = None
            if correct and run_attack:
                attack = pgd_attack(self.model, x, int(label), epsilon, self.attack_config, seed=rng)
                empirically_robust = not attack.success
            report.records.append(
                SampleRecord(
                    index=index,
                    label=int(label),
                    predicted=int(prediction),
                    correct=bool(correct),
                    empirically_robust=empirically_robust,
                    contained=result.contained,
                    certified=result.certified,
                    margin=result.margin,
                    time_seconds=result.time_seconds,
                    outcome=result.outcome.value,
                    stage=result.stage,
                    cached=result.from_cache,
                    peak_error_terms=result.peak_error_terms,
                    iterations_phase1=result.iterations_phase1,
                )
            )
        return report
