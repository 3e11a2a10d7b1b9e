"""The batched Craft driver: Algorithm 1 over a stack of input regions.

:class:`BatchedCraft` runs both phases of the Craft verifier
(:mod:`repro.core.craft`) for ``B`` certification queries against the same
monDEQ weights simultaneously.  The per-sample semantics — consolidation
cadence, expansion schedule, containment history, the phase-two alpha race
(:meth:`~repro.core.config.CraftConfig.race_candidates`: one batched run
per walk position over the rows still walking) and stop rule
(:meth:`~repro.core.config.CraftConfig.stop_tightening`) — replicate the sequential
:class:`~repro.core.craft.CraftVerifier` exactly; what changes is that
every abstract-transformer application advances the whole batch through
shared BLAS calls on a batched domain stack
(:mod:`repro.engine.batched_domains`): the CH-Zonotope, plain-Zonotope and
Box domains all run through this one driver, dispatched on
``CraftConfig.domain``.

Per-sample **early exit** works by shrinking the active stack: a sample
that proves containment (phase one), certifies its postcondition, diverges
or can no longer certify (phase two) is gathered out of the batch, and the
remaining rows keep iterating.  A sample's trajectory is therefore
independent of its batch mates, which is what the batched-vs-sequential
parity tests assert.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PROBE_STEPS, SLOPE_MARGIN_THRESHOLD, CraftConfig
from repro.core.craft import open_input_block
from repro.core.expansion import ExpansionSchedule
from repro.core.results import (
    FixpointAbstraction,
    StackRow,
    VerificationOutcome,
    VerificationResult,
)
from repro.engine.batched_domains import BatchedDomain, batched_domain_for
from repro.exceptions import ConfigurationError, VerificationError
from repro.mondeq.abstract_solvers import (
    fb_contraction_factor,
    layout_for,
    make_batched_abstract_step,
    shared_input_terms,
)
from repro.mondeq.model import MonDEQ
from repro.mondeq.solvers import default_alpha, solve_fixpoint_batch
from repro.verify.specs import (
    ClassificationSpec,
    LinfBall,
    ball_bounds,
    check_ball,
    check_input_dim,
)


class _StackRows:
    """Per-sample row references into a list of stacks: sample ``i`` is row
    ``row[i]`` of ``stacks[stack[i]]`` (``stack[i] == -1``: none)."""

    def __init__(self, count: int):
        self.stacks: List["BatchedDomain"] = []
        self.stack = np.full(count, -1)
        self.row = np.zeros(count, dtype=int)

    def add(self, samples: np.ndarray, stack: "BatchedDomain") -> None:
        """The rows of ``stack`` are the samples ``samples``, in order."""
        self.stack[samples] = len(self.stacks)
        self.row[samples] = np.arange(len(samples))
        self.stacks.append(stack)

    def gather(self, domain_cls, samples: np.ndarray) -> "BatchedDomain":
        """One stack of the samples' rows (:meth:`BatchedCHZonotope.gather`)."""
        return domain_cls.gather(self.stacks, self.stack[samples], self.row[samples])

    def references(self, samples=slice(None)) -> List[Optional[StackRow]]:
        """References of the samples ``samples`` (default: all), in order."""
        stacks = self.stacks
        return [
            None if stack < 0 else StackRow(stacks[stack], row)
            for stack, row in zip(self.stack[samples].tolist(), self.row[samples].tolist())
        ]


def _rows_of(stack: "BatchedDomain", rows: np.ndarray) -> "BatchedDomain":
    """``stack.select(rows)`` for sorted distinct ``rows``; all rows is the stack itself."""
    return stack if rows.size == stack.batch_size else stack.select(rows)


def _scatter_traces(log: List[Tuple[np.ndarray, np.ndarray]], count: int) -> List[List[float]]:
    """Per-sample traces from ``(samples, values)`` log entries, in log order
    (a stable sort by sample keeps each sample's values in that order)."""
    if not log:
        return [[] for _ in range(count)]
    samples = np.concatenate([samples for samples, _ in log])
    order = np.argsort(samples, kind="stable")
    values = np.concatenate([values for _, values in log])[order].tolist()
    ends = np.searchsorted(samples[order], np.arange(count + 1)).tolist()
    return [values[start:stop] for start, stop in zip(ends[:-1], ends[1:])]


@dataclass
class _ContainmentRecord:
    """Phase-one outcome of every sample, as arrays over the batch.

    ``states`` holds each sample's final iterate and ``references`` the
    consolidated history element that contained it (none unless
    ``contained``), as rows of the stacks the phase selected them into:
    one per iteration with exits and one per history slot referenced.
    """

    contained: np.ndarray
    diverged: np.ndarray
    iterations: np.ndarray
    peak_error_terms: np.ndarray
    states: _StackRows
    references: _StackRows
    width_traces: List[List[float]] = field(default_factory=list)


@dataclass
class _TighteningRecord:
    """Phase-two outcome of the contained samples, as arrays over the rows
    of the tightening stacks.

    Sample ``i`` keeps the record of one run (a race probe or a slope
    attempt); ``candidate[i]`` indexes that run's ``(solver, alpha,
    slope_delta)`` in ``candidates``.  ``states`` and ``outputs`` reference
    the best state and output in copies of only the rows results use (no
    output: the sample never improved on its phase-one state, which
    ``states`` then references).  ``peak_error_terms`` is merged over every
    run the sample took part in.
    """

    certified: np.ndarray
    margin: np.ndarray
    iterations: np.ndarray
    peak_error_terms: np.ndarray
    candidate: np.ndarray
    candidates: List[Tuple[str, float, float]]
    width_traces: List[List[float]]
    states: _StackRows
    outputs: _StackRows


def prediction_pass(
    model: MonDEQ,
    config: CraftConfig,
    xs: np.ndarray,
    labels: np.ndarray,
) -> Tuple[List[Optional[VerificationResult]], np.ndarray, Optional[np.ndarray]]:
    """One vectorised prediction pass over a sweep's query centres.

    Returns ``(results, queued, anchors)``: misclassified rows get their
    ``MISCLASSIFIED`` short-circuit result (the property is trivially
    false), ``queued`` is the array of correctly classified row indices,
    and ``anchors`` carries their solved fixpoints when the configuration
    can reuse them as phase-zero anchors (:func:`anchor_reuse_valid`).

    This is the single copy of the short-circuit semantics — the batched
    driver and the sharded scheduler both route through it, so the engine
    parity contract cannot drift between them.
    """
    predict = solve_fixpoint_batch(model, xs, method="pr")
    predictions = model.readout_batch(predict.z).argmax(axis=1)
    correct = predictions == labels
    results: List[Optional[VerificationResult]] = [None] * xs.shape[0]
    for index in np.flatnonzero(~correct).tolist():
        results[index] = VerificationResult(
            outcome=VerificationOutcome.MISCLASSIFIED,
            contained=False,
            certified=False,
            margin=-np.inf,
            iterations_phase1=0,
            iterations_phase2=0,
            time_seconds=0.0,
            notes=f"model predicts class {int(predictions[index])}, expected {int(labels[index])}",
        )
    queued = np.flatnonzero(correct)
    anchors = None
    if queued.size and anchor_reuse_valid(model, config):
        anchors = predict.z[queued]
    return results, queued, anchors


def region_arrays(
    model: MonDEQ, balls: Sequence[LinfBall], specs: Sequence[ClassificationSpec]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``certify_boxes`` arrays ``(centers, lower, upper, targets)`` of
    (precondition, postcondition) pairs, checked against each other and the model."""
    balls, specs = list(balls), list(specs)
    if len(balls) != len(specs):
        raise VerificationError("balls and specs must have matching lengths")
    for ball, spec in zip(balls, specs):
        check_input_dim(ball.dim, model.input_dim)
        if spec.num_classes != model.output_dim:
            raise VerificationError(
                f"postcondition over {spec.num_classes} classes does not match "
                f"the model output dimension {model.output_dim}"
            )
    shape = (len(balls), model.input_dim)
    bounds = [ball.bounds() for ball in balls]
    return (
        np.array([ball.center for ball in balls]).reshape(shape),
        np.array([lower for lower, _ in bounds]).reshape(shape),
        np.array([upper for _, upper in bounds]).reshape(shape),
        np.array([spec.target for spec in specs], dtype=int),
    )


def anchor_reuse_valid(model: MonDEQ, config: CraftConfig) -> bool:
    """Whether fixpoints from a prediction pass (``solve_fixpoint_batch``
    with pr/default-alpha and the solver's default tolerance and budget)
    can double as the configuration's phase-zero anchors.  Shared by every
    caller that wants to skip the second concrete solve — the gate must
    stay in one place, because a mismatch would silently hand
    ``certify_regions`` initial states solved with the wrong parameters."""
    return config.solver1 == "pr" and config.alpha1 == default_alpha(model, "pr")


@dataclass
class _TighteningStacks:
    """Shared, pre-stacked phase-two inputs (built once per batch).

    Every tightening run — the race probes and the slope-optimisation
    attempts — starts from the same contraction states and postcondition
    matrices, so runs only select rows.  ``initial`` and ``previous`` are
    one gather each of the contained samples' phase-one states and
    references, straight out of the phase-one stacks; ``states`` is
    ``initial`` with the opened input block of ``input_terms`` columns.
    Runs index samples by their row in these stacks.
    """

    inputs: "BatchedDomain"
    input_terms: int
    initial: "BatchedDomain"
    states: "BatchedDomain"
    previous: "BatchedDomain"
    differences: np.ndarray


@dataclass
class _TighteningRun:
    """A batched tightening run's iterate and bookkeeping, held between calls.

    As in deepinv's ``FixedPoint``, the caller keeps the iterate, so
    :meth:`BatchedCraft._advance` can stop a run after a race probe and
    resume it later for the samples it won; their records then equal those
    of one uninterrupted run.  ``active`` lists the stack rows still
    iterating, in the order of the ``state``/``previous``/``step`` stacks.
    The per-sample arrays span all stack rows, so narrowing the run to the
    samples it won (:meth:`keep`) moves no bookkeeping.

    A sample's best state and output are row ``best_row`` of the stacks of
    step ``best_step`` (-1: none yet).  ``kept`` holds those stacks only
    for the steps some sample still points into, so the others are freed.
    ``window`` holds each sample's best margins after its last ``PROBE_STEPS`` usable steps.
    """

    stacks: _TighteningStacks
    solver: str
    alpha: float
    slope_delta: float
    step: object
    state: "BatchedDomain"
    previous: "BatchedDomain"
    active: np.ndarray
    best_margin: np.ndarray
    best_step: np.ndarray
    best_row: np.ndarray
    certified: np.ndarray
    window: np.ndarray
    iterations: np.ndarray
    peak_error_terms: np.ndarray
    kept: Dict[int, Tuple["BatchedDomain", "BatchedDomain"]] = field(default_factory=dict)
    steps: int = 0
    #: ``(active rows, mean widths)`` per step, scattered into per-sample
    #: traces only when results are assembled.
    trace_log: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def keep(self, rows: np.ndarray) -> None:
        """Narrow the run to the samples ``rows``."""
        stay = np.nonzero(np.isin(self.active, rows))[0]
        if stay.size < self.active.size:
            self.active = self.active[stay]
            if stay.size:
                self.state = self.state.select(stay)
                self.previous = self.previous.select(stay)
                self.step = self.step.select(stay)


class BatchedCraft:
    """Vectorised two-phase Craft verification over a batch of regions."""

    def __init__(self, model: MonDEQ, config: Optional[CraftConfig] = None):
        self._model = model
        self._config = config if config is not None else CraftConfig()
        if self._config.is_ladder:
            # A ladder config handed to the single-domain driver would
            # silently run only the final stage; the waterfall lives in the
            # schedulers (repro.engine.sharded.ShardedScheduler._dispatch).
            raise ConfigurationError(
                f"BatchedCraft runs one domain per sweep, got the escalation "
                f"ladder {self._config.domains}; use BatchCertificationScheduler "
                f"or ShardedScheduler instead"
            )
        # Dispatch on the configured abstract domain: every domain in
        # repro.domains has a batched stack implementation (an unknown name
        # raises ConfigurationError — never a silent sequential fallback).
        self._domain_cls = batched_domain_for(self._config.domain)
        if self._config.solver1 == "fb" and self._config.solver2 == "pr":
            raise VerificationError(
                "tightening with PR after an FB containment phase is not supported: "
                "the auxiliary PR state was never computed (Section 6.3)"
            )
        self._layout = layout_for(model, self._config.solver1)
        self._output_selector = model.v_weight @ self._layout.z_selector()
        # The postcondition matrices of every target, shape (c, c - 1, c).
        self._differences = np.stack(
            [
                ClassificationSpec(target, model.output_dim).difference_matrix()
                for target in range(model.output_dim)
            ]
        )
        self._candidates = self._config.race_candidates(fb_contraction_factor(model))

    @property
    def config(self) -> CraftConfig:
        return self._config

    @property
    def model(self) -> MonDEQ:
        return self._model

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def certify(
        self,
        xs: np.ndarray,
        labels: np.ndarray,
        epsilon: float,
        clip_min: Optional[float] = 0.0,
        clip_max: Optional[float] = 1.0,
    ) -> List[VerificationResult]:
        """Certify l-infinity robustness of every row of ``xs`` in one pass.

        Semantically equivalent to mapping
        :func:`repro.verify.robustness.certify_sample` over the rows;
        misclassified samples short-circuit exactly as in the sequential
        path.  One prediction pass, then the clipped bounds of the correctly
        classified rows in one array expression, onto :meth:`certify_boxes`,
        with no per-row ball or spec.  The ball is checked once, and, as in
        a sequential sweep, only if some row is correct.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        check_input_dim(xs.shape[1], self._model.input_dim)
        labels = np.asarray(labels, dtype=int).reshape(-1)
        if xs.shape[0] != labels.shape[0]:
            raise VerificationError("xs and labels must have matching lengths")
        # The prediction pass solves the anchor fixpoints with
        # pr/default-alpha; when the config asks for exactly those
        # parameters (the default) they double as the phase-zero anchors
        # instead of re-running up to 2000 full-batch iterations.
        results, queued, anchors = prediction_pass(self._model, self._config, xs, labels)
        if queued.size:
            check_ball(epsilon, clip_min, clip_max)
            centers = xs[queued]
            lower, upper = ball_bounds(centers, epsilon, clip_min, clip_max)
            verdicts = self.certify_boxes(centers, lower, upper, labels[queued], anchors)
            for index, result in zip(queued.tolist(), verdicts):
                results[index] = result
        return results

    def certify_regions(
        self,
        balls: Sequence[LinfBall],
        specs: Sequence[ClassificationSpec],
        anchor_fixpoints: Optional[np.ndarray] = None,
    ) -> List[VerificationResult]:
        """Run both Craft phases for every (precondition, postcondition) pair:
        the pairs are checked and converted onto :meth:`certify_boxes`
        (:func:`region_arrays`); an empty input returns ``[]``."""
        return self.certify_boxes(*region_arrays(self._model, balls, specs), anchor_fixpoints)

    def certify_boxes(
        self,
        centers: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        targets: np.ndarray,
        anchor_fixpoints: Optional[np.ndarray] = None,
    ) -> List[VerificationResult]:
        """Run both Craft phases on the boxes ``[lower[i], upper[i]]`` (rows of
        ``(B, d)`` arrays, checked by the caller) with targets ``targets[i]``.

        ``anchor_fixpoints`` optionally supplies the concrete fixpoints of
        ``centers`` (shape ``(B, latent)``), solved with the configuration's
        solver parameters; the centres are read only to solve them otherwise.
        """
        if not len(targets):
            return []
        start = time.perf_counter()
        config = self._config

        input_elements = self._domain_cls.from_bounds(lower, upper)
        if anchor_fixpoints is None:
            anchor_fixpoints = solve_fixpoint_batch(
                self._model,
                centers,
                method=config.solver1,
                alpha=config.alpha1 if config.solver1 == "pr" else None,
            ).z
        blocks = 2 if self._layout.has_aux else 1
        initial = self._domain_cls.from_points(np.tile(anchor_fixpoints, (1, blocks)))
        contraction_step = make_batched_abstract_step(
            self._model,
            self._layout,
            input_elements,
            config.solver1,
            config.alpha1,
        )

        containment = self._containment_phase(contraction_step, initial)
        tightening = None
        if containment.contained.any():
            tightening = self._tighten_and_certify(input_elements, targets, containment)

        per_region_time = (time.perf_counter() - start) / len(targets)
        return self._assemble_results(containment, tightening, per_region_time)

    # ------------------------------------------------------------------
    # Phase one: batched containment search
    # ------------------------------------------------------------------

    def _containment_phase(self, step, initial: "BatchedDomain") -> _ContainmentRecord:
        settings = self._config.contraction
        expansion = ExpansionSchedule.from_config(self._config)
        batch = initial.batch_size
        record = _ContainmentRecord(
            contained=np.zeros(batch, dtype=bool),
            diverged=np.zeros(batch, dtype=bool),
            iterations=np.full(batch, settings.max_iterations),
            peak_error_terms=np.zeros(batch, dtype=int),
            states=_StackRows(batch),
            references=_StackRows(batch),
        )
        # (active indices, mean widths) per iteration; scattered into
        # per-sample traces only on exit to keep the hot loop free of
        # per-row Python work.
        trace_log: List[Tuple[np.ndarray, np.ndarray]] = []

        active = np.arange(batch)
        state = initial
        current_step = step
        history: deque = deque(maxlen=settings.history_size)
        basis: Optional[np.ndarray] = None

        for iteration in range(settings.max_iterations):
            if active.size == 0:
                break
            if iteration % settings.consolidate_every == 0:
                if basis is None or iteration % settings.basis_recompute_every == 0:
                    basis = state.pca_basis()
                w_mul, w_add = expansion.step()
                state = state.consolidate(basis, w_mul, w_add)
                history.append(state)

            next_state = current_step(state)
            record.peak_error_terms[active] = np.maximum(
                record.peak_error_terms[active], getattr(next_state, "num_generators", 0)
            )
            widths = next_state.width
            trace_log.append((active, widths.mean(axis=1)))

            diverged = (widths.max(axis=1) > settings.abort_width) | ~np.isfinite(
                widths
            ).all(axis=1)
            contained = np.zeros(active.size, dtype=bool)
            reference_pick = np.full(active.size, -1, dtype=int)
            # Mirror the sequential engine: compare against the most recent
            # consolidated states first, record the first (newest) match.
            for h_index in range(len(history) - 1, -1, -1):
                pending = ~diverged & ~contained
                if not pending.any():
                    break
                flags = history[h_index].contains(next_state)
                newly = pending & flags
                contained |= newly
                reference_pick[newly] = h_index

            exit_mask = diverged | contained
            if exit_mask.any():
                # The exiting rows stay in stacks: one select of them, and
                # one per history slot that contained some of them.
                exits = np.nonzero(exit_mask)[0]
                samples = active[exits]
                record.contained[samples] = contained[exits]
                record.diverged[samples] = diverged[exits]
                record.iterations[samples] = iteration + 1
                record.states.add(samples, _rows_of(next_state, exits))
                for h_index in np.unique(reference_pick[contained]).tolist():
                    picked = np.nonzero(reference_pick == h_index)[0]
                    record.references.add(active[picked], _rows_of(history[h_index], picked))
                keep = np.nonzero(~exit_mask)[0]
                active = active[keep]
                if active.size == 0:
                    break
                state = next_state.select(keep)
                history = deque(
                    (entry.select(keep) for entry in history), maxlen=settings.history_size
                )
                if basis is not None:
                    basis = basis[keep]
                current_step = current_step.select(keep)
            else:
                state = next_state

        if active.size:
            record.states.add(active, state)
        record.width_traces = _scatter_traces(trace_log, batch)
        return record

    # ------------------------------------------------------------------
    # Phase two: batched tightening and certification
    # ------------------------------------------------------------------

    def _tighten_and_certify(
        self,
        input_elements: "BatchedDomain",
        targets: np.ndarray,
        containment: _ContainmentRecord,
    ) -> _TighteningRecord:
        config = self._config
        samples = np.nonzero(containment.contained)[0]
        count = samples.size

        # All tightening runs start from the same contraction states; stack
        # them (and the per-sample postcondition matrices) once, so every
        # run only selects rows.
        input_terms = shared_input_terms(config.domain, input_elements)
        initial = containment.states.gather(self._domain_cls, samples)
        stacks = _TighteningStacks(
            inputs=_rows_of(input_elements, samples),
            input_terms=input_terms,
            initial=initial,
            # The contained states are input-independent: open the block.
            states=open_input_block(initial, input_terms),
            previous=containment.references.gather(self._domain_cls, samples),
            differences=self._differences[targets[samples]],
        )
        runs: List[_TighteningRun] = []
        # Per sample, the run whose record it keeps: while it races, its
        # leader (the start until a later probe beats it).
        chosen = np.zeros(count, dtype=int)

        # The alpha race (CraftConfig.race_candidates): the start probes every
        # sample, then each side is walked outward, one run per position over
        # the samples whose last probe on that side beat their leader (their
        # best probe margin so far).  A sample leaves on its first certificate.
        start, smaller, larger = self._candidates
        racing = np.ones(count, dtype=bool)
        leader = np.full(count, -np.inf)
        for walk in ((start,), smaller, larger):
            walking = np.flatnonzero(racing)
            for solver, alpha in walk:
                if walking.size == 0:
                    break
                run = self._start_tightening(stacks, walking, solver, alpha, 0.0)
                self._advance(run, config.probe_steps())
                won = run.certified[walking]
                beat = ~won & (run.best_margin[walking] > leader[walking])
                chosen[walking[won | beat]] = len(runs)
                racing[walking[won]] = False
                walking = walking[beat]
                leader[walking] = run.best_margin[walking]
                runs.append(run)
        # The rest resume their leader (the first probed on ties), grouped so
        # samples sharing a candidate advance in one batch.  A single
        # candidate is one run: its probe resumes.
        rest = np.flatnonzero(racing)
        for index in np.unique(chosen[rest]).tolist():
            rows = rest[chosen[rest] == index]
            runs[index].keep(rows)
            self._advance(runs[index], config.tighten_max_iterations)

        columns = np.arange(count)
        margin = np.stack([run.best_margin for run in runs])[chosen, columns]
        certified = np.stack([run.certified for run in runs])[chosen, columns]
        deltas = config.slope_deltas()
        if deltas:
            eligible = ~certified & (margin > -SLOPE_MARGIN_THRESHOLD)
            for delta in deltas:
                rows = np.nonzero(eligible & ~certified)[0]
                if rows.size == 0:
                    break
                by_candidate: Dict[Tuple[str, float], List[int]] = {}
                for i, index in zip(rows.tolist(), chosen[rows].tolist()):
                    by_candidate.setdefault((runs[index].solver, runs[index].alpha), []).append(i)
                for (solver, alpha), group_rows in by_candidate.items():
                    group = np.asarray(group_rows)
                    attempt = self._start_tightening(stacks, group, solver, alpha, float(delta))
                    self._advance(attempt, config.tighten_max_iterations)
                    better = group[attempt.best_margin[group] > margin[group]]
                    chosen[better] = len(runs)
                    margin[better] = attempt.best_margin[better]
                    certified[better] = attempt.certified[better]
                    runs.append(attempt)

        # Results reference their best state and output in one copy per
        # source stack of only the rows they use; a sample that never
        # improved keeps its phase-one state.
        states = _StackRows(count)
        outputs = _StackRows(count)
        width_traces: List[List[float]] = [[] for _ in range(count)]
        for index, run in enumerate(runs):
            rows = np.nonzero(chosen == index)[0]
            if rows.size == 0:
                continue
            steps = run.best_step[rows]
            for step in np.unique(steps).tolist():
                picked = rows[steps == step]
                if step < 0:
                    states.add(picked, _rows_of(initial, picked))
                    continue
                state, output = run.kept[step]
                states.add(picked, _rows_of(state, run.best_row[picked]))
                outputs.add(picked, _rows_of(output, run.best_row[picked]))
            traces = _scatter_traces(run.trace_log, count)
            for i in rows.tolist():
                width_traces[i] = traces[i]
        return _TighteningRecord(
            certified=certified,
            margin=margin,
            iterations=np.stack([run.iterations for run in runs])[chosen, columns],
            # Peak error-term counts are merged across every run a sample
            # took part in (race probes, slope attempts).
            peak_error_terms=np.max([run.peak_error_terms for run in runs], axis=0),
            candidate=chosen,
            candidates=[(run.solver, run.alpha, run.slope_delta) for run in runs],
            width_traces=width_traces,
            states=states,
            outputs=outputs,
        )

    def _start_tightening(
        self,
        stacks: "_TighteningStacks",
        rows: np.ndarray,
        solver: str,
        alpha: float,
        slope_delta: float,
    ) -> _TighteningRun:
        """A tightening run over the stack rows ``rows`` that has taken no step yet."""
        count = stacks.states.batch_size
        full_batch = len(rows) == count and np.array_equal(rows, np.arange(count))
        state = stacks.states if full_batch else stacks.states.select(rows)
        peak_error_terms = np.zeros(count, dtype=int)
        peak_error_terms[rows] = getattr(state, "num_generators", 0)
        return _TighteningRun(
            stacks=stacks,
            solver=solver,
            alpha=alpha,
            slope_delta=slope_delta,
            step=make_batched_abstract_step(
                self._model,
                self._layout,
                stacks.inputs if full_batch else stacks.inputs.select(rows),
                solver,
                alpha,
                slope_delta=slope_delta,
                input_terms=stacks.input_terms,
            ),
            state=state,
            previous=stacks.previous if full_batch else stacks.previous.select(rows),
            active=rows,
            best_margin=np.full(count, -np.inf),
            best_step=np.full(count, -1),
            best_row=np.zeros(count, dtype=int),
            certified=np.zeros(count, dtype=bool),
            window=np.full((count, PROBE_STEPS), -np.inf),
            iterations=np.zeros(count, dtype=int),
            peak_error_terms=peak_error_terms,
        )

    def _advance(self, run: _TighteningRun, budget: int) -> None:
        """Continue ``run`` until every sample finished or ``budget`` steps were taken."""
        config = self._config
        while run.steps < budget and run.active.size:
            run.steps += 1
            iteration = run.steps
            active = run.active
            state = run.state
            new_state = run.step(state)
            run.iterations[active] = iteration
            run.peak_error_terms[active] = np.maximum(
                run.peak_error_terms[active], getattr(new_state, "num_generators", 0)
            )
            run.trace_log.append((active, new_state.mean_width))

            if config.same_iteration_containment:
                proper_previous = run.previous.consolidate(None, 0.0, 0.0)
                usable = proper_previous.contains(new_state)
            else:
                usable = np.ones(active.size, dtype=bool)

            outputs = new_state.affine(self._output_selector, self._model.v_bias)
            differences = outputs.affine(run.stacks.differences[active])
            lower, _ = differences.concretize_bounds()
            margins = lower.min(axis=1)
            holds = margins > 0.0

            improved = usable & (margins > run.best_margin[active])
            if improved.any():
                # Best states and outputs are (step, row) references into
                # the step's stacks — margins improve on most iterations,
                # and copying a (n, k) slice out of the stack every time
                # would rival the cost of the step.
                better = active[improved]
                run.best_margin[better] = margins[improved]
                run.best_step[better] = iteration
                run.best_row[better] = np.nonzero(improved)[0]
                run.kept[iteration] = (new_state, outputs)
                for step in [step for step in run.kept if not np.any(run.best_step == step)]:
                    del run.kept[step]

            certified_now = usable & holds
            run.certified[active[certified_now]] = True

            # An earlier margin of -inf keeps a row going (NaN at the budget's end).
            with np.errstate(invalid="ignore"):
                stopped = usable & config.stop_tightening(
                    iteration, run.best_margin[active], run.window[active, 0]
                )
            advanced = active[usable]
            run.window[advanced] = np.column_stack((run.window[advanced, 1:], run.best_margin[advanced]))
            widths = new_state.width
            aborted = ~np.isfinite(widths).all(axis=1) | (
                widths.max(axis=1) > config.contraction.abort_width
            )

            exit_mask = certified_now | aborted | stopped
            if exit_mask.any():
                keep = np.nonzero(~exit_mask)[0]
                run.active = active[keep]
                if keep.size:
                    run.previous = state.select(keep)
                    run.state = new_state.select(keep)
                    run.step = run.step.select(keep)
            else:
                run.previous = state
                run.state = new_state

    # ------------------------------------------------------------------
    # Result assembly (mirrors CraftVerifier.solve)
    # ------------------------------------------------------------------

    def _assemble_results(
        self,
        containment: _ContainmentRecord,
        tightening: Optional[_TighteningRecord],
        time_seconds: float,
    ) -> List[VerificationResult]:
        stage = self._config.domain
        iterations1 = containment.iterations.tolist()
        peaks1 = containment.peak_error_terms.tolist()
        traces1 = containment.width_traces
        results: List[Optional[VerificationResult]] = [None] * len(iterations1)
        # Phase-one states are referenced only by the samples that end in
        # phase one; the contained ones reference phase two's.
        failed = np.flatnonzero(~containment.contained)
        for i, diverged, element in zip(
            failed.tolist(),
            containment.diverged[failed].tolist(),
            containment.states.references(failed),
        ):
            results[i] = VerificationResult(
                outcome=(
                    VerificationOutcome.DIVERGED
                    if diverged
                    else VerificationOutcome.NO_CONTAINMENT
                ),
                contained=False,
                certified=False,
                margin=-np.inf,
                iterations_phase1=iterations1[i],
                iterations_phase2=0,
                time_seconds=time_seconds,
                fixpoint_abstraction=FixpointAbstraction(
                    element=element,
                    contained=False,
                    iterations_phase1=iterations1[i],
                    iterations_phase2=0,
                    width_trace_phase1=traces1[i],
                ),
                notes="containment phase did not detect contraction",
                stage=stage,
                peak_error_terms=peaks1[i],
            )
        if tightening is None:
            return results
        # Phase-two arrays index the contained samples in ascending order.
        for i, certified, margin, iterations2, peak2, candidate, trace2, element, output in zip(
            np.flatnonzero(containment.contained).tolist(),
            tightening.certified.tolist(),
            tightening.margin.tolist(),
            tightening.iterations.tolist(),
            tightening.peak_error_terms.tolist(),
            tightening.candidate.tolist(),
            tightening.width_traces,
            tightening.states.references(),
            tightening.outputs.references(),
        ):
            solver, alpha, slope_delta = tightening.candidates[candidate]
            results[i] = VerificationResult(
                outcome=(
                    VerificationOutcome.VERIFIED
                    if certified
                    else VerificationOutcome.UNKNOWN
                ),
                contained=True,
                certified=certified,
                margin=margin,
                iterations_phase1=iterations1[i],
                iterations_phase2=iterations2,
                time_seconds=time_seconds,
                selected_alpha2=alpha,
                selected_solver2=solver,
                slope_optimized=slope_delta != 0.0,
                fixpoint_abstraction=FixpointAbstraction(
                    element=element,
                    contained=True,
                    iterations_phase1=iterations1[i],
                    iterations_phase2=iterations2,
                    width_trace_phase1=traces1[i],
                    width_trace_phase2=trace2,
                ),
                output_element=output,
                stage=stage,
                peak_error_terms=max(peaks1[i], peak2),
            )
        return results
