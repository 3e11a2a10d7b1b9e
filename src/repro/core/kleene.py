"""Kleene iteration baseline (Section 2.2).

Standard abstract interpretation handles unbounded loops by Kleene
iteration: ``S_i = S_{i-1} ⊔ f#(S_{i-1})`` until an order-theoretic
post-fixpoint is reached, optionally preceded by *semantic unrolling*
(iterating without the join for the first ``k`` steps) and accelerated with
*widening* to guarantee termination.

The paper uses Kleene iteration as the baseline whose imprecision motivates
the domain-specific framework: because the join accumulates all iteration
states, the resulting abstraction covers every intermediate state rather
than just the fixpoint set (Fig. 2, Table 5, Fig. 16).

The engine below works on any element providing ``join``/``widen`` and an
interval-hull comparison, i.e. :class:`~repro.domains.interval.Interval`
and :class:`~repro.domains.zonotope.Zonotope`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.config import KleeneSettings
from repro.core.results import KleeneResult
from repro.domains.base import AbstractElement
from repro.domains.interval import Interval
from repro.exceptions import DomainError

StepFunction = Callable[[AbstractElement], AbstractElement]


def _hull(element: AbstractElement) -> Interval:
    lower, upper = element.concretize_bounds()
    return Interval(lower, upper)


class KleeneEngine:
    """Kleene iteration with semantic unrolling and interval widening."""

    def __init__(self, settings: KleeneSettings = None):
        self._settings = settings if settings is not None else KleeneSettings()

    def run(self, step: StepFunction, initial: AbstractElement) -> KleeneResult:
        """Compute an abstract post-fixpoint of ``step`` starting from ``initial``.

        The first ``semantic_unrolling`` iterations apply ``step`` without a
        join (sound when the loop's termination condition is known not to
        trigger yet, Blanchet et al. 2002).  Afterwards the join with the
        previous state is taken; once ``widen_after`` joined iterations have
        passed, growing bounds are widened to ``widening_threshold``.
        Convergence is detected when the joined state's interval hull equals
        (up to tolerance) the previous one, i.e. a post-fixpoint w.r.t. the
        hull ordering.
        """
        settings = self._settings
        if not hasattr(initial, "join"):
            raise DomainError(
                f"{type(initial).__name__} does not support joins; Kleene iteration "
                "requires a domain with a (quasi-)join"
            )

        state = initial
        width_trace = []
        joins = 0
        widenings = 0

        for iteration in range(settings.max_iterations):
            propagated = step(state)
            if iteration < settings.semantic_unrolling:
                new_state = propagated
            else:
                new_state = state.join(propagated)
                joins += 1
                if iteration >= settings.semantic_unrolling + settings.widen_after:
                    widened = state.widen(new_state, threshold=settings.widening_threshold)
                    if not _hull(widened).is_subset_of(_hull(new_state)):
                        new_state = widened.join(new_state)
                        widenings += 1

            width_trace.append(new_state.mean_width)

            # The convergence check runs before the divergence abort so that a
            # state pushed to (+/-) infinity by widening is recognised as a
            # (trivially sound) post-fixpoint rather than as divergence.
            if iteration >= settings.semantic_unrolling and _hull(new_state).is_subset_of(
                _hull(state), tol=1e-12
            ):
                return KleeneResult(
                    converged=True,
                    state=new_state,
                    iterations=iteration + 1,
                    joins=joins,
                    widenings=widenings,
                    width_trace=width_trace,
                )

            blown_up = new_state.max_width > settings.abort_width or not np.all(
                np.isfinite(new_state.width)
            )
            if blown_up and widenings == 0:
                return KleeneResult(
                    converged=False,
                    state=new_state,
                    iterations=iteration + 1,
                    joins=joins,
                    widenings=widenings,
                    width_trace=width_trace,
                    diverged=True,
                )
            state = new_state

        return KleeneResult(
            converged=False,
            state=state,
            iterations=settings.max_iterations,
            joins=joins,
            widenings=widenings,
            width_trace=width_trace,
        )
