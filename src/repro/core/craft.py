"""The Craft verifier — Algorithm 1 of the paper.

Craft (Convex Relaxation Abstract Fixpoint iTeration) verifies properties of
programs that compute fixpoints of convergent iterative solvers.  It runs in
two phases:

1. **Containment phase** (lines 5–8 of Algorithm 1): iterate a sound
   abstract transformer of the fixpoint solver — consolidating and expanding
   the abstraction on the way — until the contraction-based termination
   criterion (Theorem 3.1 / B.1) proves that the current abstract state
   contains the true fixpoint set.
2. **Tightening phase** (lines 10–14): apply further iterations of a
   *fixpoint-set-preserving* abstract solver (Definition 3.2, Theorems 3.3
   and 5.1) — possibly with a different operator-splitting method, a
   damping parameter walked over a grid (Appendix E.1,
   :meth:`~repro.core.config.CraftConfig.race_candidates`) and optimised
   ReLU slopes (Section 6.3) — and check the postcondition on the
   resulting output abstraction after every step.

The verifier is domain- and model-agnostic: the model-specific pieces
(abstract solver steps, output map, postcondition) are packaged in a
:class:`FixpointProblem`, which the monDEQ front-end
(:mod:`repro.verify.robustness`) and the Householder case study
(:mod:`repro.numerics.householder`) construct.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

import numpy as np

from repro.core.config import PROBE_STEPS, SLOPE_MARGIN_THRESHOLD, CraftConfig
from repro.core.contraction import ContractionEngine, DomainOps, domain_ops_for
from repro.core.expansion import ExpansionSchedule
from repro.core.results import (
    ContractionResult,
    FixpointAbstraction,
    PostconditionCheck,
    VerificationOutcome,
    VerificationResult,
)
from repro.domains.base import AbstractElement
from repro.exceptions import VerificationError

StepFunction = Callable[[AbstractElement], AbstractElement]
StepFactory = Callable[[str, float, float], StepFunction]
OutputMap = Callable[[AbstractElement], AbstractElement]
Postcondition = Callable[[AbstractElement], PostconditionCheck]


@dataclass
class FixpointProblem:
    """An abstract fixpoint-verification problem handed to Craft.

    Attributes
    ----------
    input_element:
        Abstraction of the precondition (the set of inputs ``X``).
    initial_state:
        Abstraction of the initial solver state ``S_0``.  Following
        Algorithm 1 (line 2) this is typically the singleton containing the
        concrete fixpoint of the centre input.
    contraction_step:
        The abstract solver iteration ``g#_alpha1(X, .)`` used in the
        containment phase (the input abstraction is baked in).
    tightening_step_factory:
        ``factory(solver_name, alpha, slope_delta)`` building a
        fixpoint-set-preserving abstract iteration for the tightening phase.
        ``slope_delta`` shifts the ReLU relaxation slopes away from the
        minimum-area default and is only exercised when slope optimisation
        is enabled.
    extract_output:
        Maps a solver-state abstraction ``S`` to the output abstraction
        ``Y`` the postcondition talks about (e.g. select the ``z`` block and
        apply the classification layer).
    postcondition:
        Evaluates the postcondition on an output abstraction; ``None`` when
        the caller only wants the fixpoint-set abstraction.
    description:
        Free-form description used in logs and results.
    input_terms:
        Width of the phase-two input block.  ``0`` (the default) means the
        tightening steps add the input with fresh error symbols.  A
        positive width means they share the input's symbols through one
        leading block of that many generator columns
        (:func:`repro.mondeq.abstract_solvers.shared_input_terms`); the
        driver then opens a zero block at phase-two entry.
    contraction_factor:
        ``alpha -> rho((1 - alpha) I + alpha W)`` of the FB tightening
        step; the phase-two alpha race starts its walk at the candidate
        that minimises it
        (:meth:`~repro.core.config.CraftConfig.race_candidates`).
        ``None`` (the default) starts at the first grid entry.
    """

    input_element: AbstractElement
    initial_state: AbstractElement
    contraction_step: StepFunction
    tightening_step_factory: StepFactory
    extract_output: OutputMap
    postcondition: Optional[Postcondition] = None
    description: str = ""
    input_terms: int = 0
    contraction_factor: Optional[Callable[[float], float]] = None


def open_input_block(state: AbstractElement, input_terms: int) -> AbstractElement:
    """Prepend a zero input block of ``input_terms`` columns to ``state``.

    Call it exactly where the state is input-independent — at phase-two
    entry, or on a consolidated state — so that a shared-input step's
    leading block starts aligned with the input's error symbols.  A zero
    width returns ``state`` unchanged.
    """
    return state.pad_leading(input_terms) if input_terms else state


@dataclass
class _PhaseTwoOutcome:
    certified: bool
    margin: float
    iterations: int
    state: AbstractElement
    output: Optional[AbstractElement]
    alpha: Optional[float]
    solver: Optional[str]
    slope_delta: float
    width_trace: List[float] = field(default_factory=list)
    peak_error_terms: int = 0


@dataclass
class _TighteningRun:
    """A tightening run's iterate and bookkeeping, held between calls.

    As in deepinv's ``FixedPoint``, the caller keeps the iterate, so
    :meth:`CraftVerifier._advance` can stop a run after a race probe and
    resume it later; the record then equals that of one uninterrupted run.
    ``outcome`` is the record so far; ``finished`` marks a run that
    certified, aborted or stopped (``window``: the stop rule's margins).
    """

    step: StepFunction
    state: AbstractElement
    previous: AbstractElement
    outcome: _PhaseTwoOutcome
    window: Deque[float] = field(default_factory=lambda: deque([-np.inf] * PROBE_STEPS))
    finished: bool = False


class CraftVerifier:
    """The two-phase Craft verification algorithm."""

    def __init__(self, config: Optional[CraftConfig] = None, ops: Optional[DomainOps] = None):
        self._config = config if config is not None else CraftConfig()
        self._ops = ops if ops is not None else domain_ops_for(self._config.domain)

    @property
    def config(self) -> CraftConfig:
        """The configuration this verifier was built with."""
        return self._config

    # ------------------------------------------------------------------
    # Phase one
    # ------------------------------------------------------------------

    def find_fixpoint_abstraction(self, problem: FixpointProblem) -> ContractionResult:
        """Run the containment phase only (Theorem 3.1 / B.1)."""
        expansion = ExpansionSchedule.from_config(self._config)
        engine = ContractionEngine(self._config.contraction, self._ops, expansion)
        return engine.run(problem.contraction_step, problem.initial_state)

    # ------------------------------------------------------------------
    # Full verification (Algorithm 1)
    # ------------------------------------------------------------------

    def solve(self, problem: FixpointProblem) -> VerificationResult:
        """Run both phases and report the verification outcome."""
        if problem.postcondition is None:
            raise VerificationError(
                "solve() requires a postcondition; use compute_fixpoint_set() to "
                "obtain the fixpoint abstraction alone"
            )
        start = time.perf_counter()
        contraction = self.find_fixpoint_abstraction(problem)

        if not contraction.contained:
            outcome = (
                VerificationOutcome.DIVERGED
                if contraction.diverged
                else VerificationOutcome.NO_CONTAINMENT
            )
            elapsed = time.perf_counter() - start
            return VerificationResult(
                outcome=outcome,
                contained=False,
                certified=False,
                margin=-np.inf,
                iterations_phase1=contraction.iterations,
                iterations_phase2=0,
                time_seconds=elapsed,
                fixpoint_abstraction=FixpointAbstraction(
                    element=contraction.state,
                    contained=False,
                    iterations_phase1=contraction.iterations,
                    iterations_phase2=0,
                    width_trace_phase1=contraction.width_trace,
                ),
                notes="containment phase did not detect contraction",
                peak_error_terms=contraction.peak_error_terms,
            )

        phase_two = self._tighten_and_certify(problem, contraction)
        elapsed = time.perf_counter() - start

        outcome = (
            VerificationOutcome.VERIFIED if phase_two.certified else VerificationOutcome.UNKNOWN
        )
        abstraction = FixpointAbstraction(
            element=phase_two.state,
            contained=True,
            iterations_phase1=contraction.iterations,
            iterations_phase2=phase_two.iterations,
            width_trace_phase1=contraction.width_trace,
            width_trace_phase2=phase_two.width_trace,
        )
        return VerificationResult(
            outcome=outcome,
            contained=True,
            certified=phase_two.certified,
            margin=phase_two.margin,
            iterations_phase1=contraction.iterations,
            iterations_phase2=phase_two.iterations,
            time_seconds=elapsed,
            selected_alpha2=phase_two.alpha,
            selected_solver2=phase_two.solver,
            slope_optimized=phase_two.slope_delta != 0.0,
            fixpoint_abstraction=abstraction,
            output_element=phase_two.output,
            peak_error_terms=max(
                contraction.peak_error_terms, phase_two.peak_error_terms
            ),
        )

    def compute_fixpoint_set(
        self, problem: FixpointProblem, tighten_iterations: int = 0
    ) -> FixpointAbstraction:
        """Return a sound fixpoint-set abstraction without checking a postcondition.

        Used by the Householder case study and the width-trace experiments:
        phase one runs as usual and, when contraction was detected,
        ``tighten_iterations`` fixpoint-set-preserving iterations of the
        phase-two solver are applied to tighten the abstraction.
        """
        contraction = self.find_fixpoint_abstraction(problem)
        state = contraction.state
        width_trace_two: List[float] = []
        iterations_two = 0
        if contraction.contained and tighten_iterations > 0:
            alpha = self._default_alpha2()
            step = problem.tightening_step_factory(self._config.solver2, alpha, 0.0)
            state = open_input_block(state, problem.input_terms)
            for _ in range(tighten_iterations):
                state = step(state)
                width_trace_two.append(state.mean_width)
                iterations_two += 1
        return FixpointAbstraction(
            element=state,
            contained=contraction.contained,
            iterations_phase1=contraction.iterations,
            iterations_phase2=iterations_two,
            width_trace_phase1=contraction.width_trace,
            width_trace_phase2=width_trace_two,
        )

    # ------------------------------------------------------------------
    # Phase two internals
    # ------------------------------------------------------------------

    def _default_alpha2(self) -> float:
        if self._config.solver2 == "pr":
            return self._config.alpha1
        return self._config.alpha2_grid[len(self._config.alpha2_grid) // 2]

    def _tighten_and_certify(
        self, problem: FixpointProblem, contraction: ContractionResult
    ) -> _PhaseTwoOutcome:
        config = self._config

        def probe(solver: str, alpha: float) -> _TighteningRun:
            run = self._start_tightening(problem, contraction, solver, alpha, 0.0)
            self._advance(problem, run, config.probe_steps())
            return run

        # The alpha race (CraftConfig.race_candidates): probe the start, then
        # walk each side outward while the side's last probe beat the leader,
        # and leave on the first certificate.  A single candidate is one run:
        # its probe resumes as the leader.
        start, smaller, larger = config.race_candidates(problem.contraction_factor)
        leader = probe(*start)
        if leader.outcome.certified:
            return leader.outcome
        for walk in (smaller, larger):
            for solver, alpha in walk:
                run = probe(solver, alpha)
                if run.outcome.certified:
                    return run.outcome
                if not run.outcome.margin > leader.outcome.margin:
                    break
                leader = run
        # Resume the leader (the first probed on ties).
        self._advance(problem, leader, config.tighten_max_iterations)
        full = leader.outcome
        if full.certified:
            return full

        # Slope optimisation: only for samples already close to certification
        # (Section 6.3) — i.e. whose margin is within SLOPE_MARGIN_THRESHOLD.
        if config.slope_deltas() and full.margin > -SLOPE_MARGIN_THRESHOLD:
            for delta in config.slope_deltas():
                attempt = self._start_tightening(
                    problem, contraction, full.solver, full.alpha, float(delta)
                )
                self._advance(problem, attempt, config.tighten_max_iterations)
                if attempt.outcome.margin > full.margin:
                    full = attempt.outcome
                if full.certified:
                    break
        return full

    def _start_tightening(
        self,
        problem: FixpointProblem,
        contraction: ContractionResult,
        solver: str,
        alpha: float,
        slope_delta: float,
    ) -> _TighteningRun:
        """A tightening run that has taken no step yet."""
        # The contained state is input-independent: open the input block.
        state = open_input_block(contraction.state, problem.input_terms)
        return _TighteningRun(
            step=problem.tightening_step_factory(solver, alpha, slope_delta),
            state=state,
            previous=contraction.reference if contraction.reference is not None else state,
            outcome=_PhaseTwoOutcome(
                certified=False,
                margin=-np.inf,
                iterations=0,
                state=contraction.state,
                output=None,
                alpha=alpha,
                solver=solver,
                slope_delta=slope_delta,
                peak_error_terms=getattr(state, "num_generators", 0),
            ),
        )

    def _advance(self, problem: FixpointProblem, run: _TighteningRun, budget: int) -> None:
        """Continue ``run`` until it finishes or has taken ``budget`` steps."""
        config = self._config
        outcome = run.outcome
        while not run.finished and outcome.iterations < budget:
            outcome.iterations += 1
            state = run.state
            new_state = run.step(state)
            outcome.peak_error_terms = max(
                outcome.peak_error_terms, getattr(new_state, "num_generators", 0)
            )
            outcome.width_trace.append(new_state.mean_width)

            usable = True
            if config.same_iteration_containment:
                # Ablation: only states contained in their predecessor may be
                # used for certification (no reliance on Definition 3.2).
                proper_previous = self._ops.consolidate(run.previous, None, 0.0, 0.0)
                usable = self._ops.contains(proper_previous, new_state)

            if usable:
                output = problem.extract_output(new_state)
                check = problem.postcondition(output)
                if check.margin > outcome.margin:
                    outcome.margin = float(check.margin)
                    outcome.state = new_state
                    outcome.output = output
                if check.holds:
                    outcome.certified = True
                    run.finished = True
                    break
                earlier = run.window.popleft()
                run.window.append(outcome.margin)
                run.finished = config.stop_tightening(outcome.iterations, outcome.margin, earlier)

            if not np.all(np.isfinite(new_state.width)) or new_state.max_width > config.contraction.abort_width:
                run.finished = True
            run.previous = state
            run.state = new_state
