"""The contraction-based termination criterion (Theorem 3.1 and B.1).

The engine in this module implements the first phase of the paper's
framework: iterate a sound abstract transformer of a convergent fixpoint
solver, *without joins*, until the current state is shown to be contained
in a previously consolidated state.  By Theorem 3.1 (single step) and
Theorem B.1 (``s`` unrolled steps, needed because we only consolidate every
``r``-th iteration and compare against a history of proper states), the
contained state is then a sound over-approximation of the true fixpoint
set.

The engine is written against :class:`DomainOps`, a small strategy object
bundling the three domain-specific operations it needs — consolidation to a
"proper" element, the containment check, and the choice of consolidation
basis — so that the same engine drives CH-Zonotope, Box and plain-Zonotope
analyses (including the Householder square-root case study).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

import numpy as np

from repro.core.config import ContractionSettings
from repro.core.expansion import ExpansionSchedule
from repro.core.results import ContractionResult
from repro.domains.base import AbstractElement
from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.zonotope import Zonotope
from repro.exceptions import ConfigurationError, DomainError

StepFunction = Callable[[AbstractElement], AbstractElement]


@dataclass
class DomainOps:
    """Domain-specific operations required by the contraction engine.

    Attributes
    ----------
    consolidate:
        ``consolidate(element, basis, w_mul, w_add)`` returning a "proper"
        element that over-approximates ``element`` and supports the
        containment check as the *outer* operand.  For domains with constant
        representation size (Box) this may simply apply expansion.
    contains:
        ``contains(outer, inner)`` — a *sound* containment check: ``True``
        implies ``gamma(inner) ⊆ gamma(outer)``.
    compute_basis:
        ``compute_basis(element)`` returning the basis reused by subsequent
        consolidations, or ``None`` when the domain has no notion of basis.
    """

    consolidate: Callable[[AbstractElement, Optional[np.ndarray], float, float], AbstractElement]
    contains: Callable[[AbstractElement, AbstractElement], bool]
    compute_basis: Optional[Callable[[AbstractElement], np.ndarray]] = None


def _chzonotope_ops() -> DomainOps:
    def compute_basis(element: CHZonotope):
        return element.pca_basis()

    def consolidate(element: CHZonotope, basis, w_mul, w_add):
        return element.consolidate(basis=basis, w_mul=w_mul, w_add=w_add)

    def contains(outer: CHZonotope, inner: CHZonotope):
        return outer.contains(inner)

    return DomainOps(consolidate=consolidate, contains=contains, compute_basis=compute_basis)


def _interval_ops() -> DomainOps:
    def consolidate(element: Interval, basis, w_mul, w_add):
        del basis
        radius = (1.0 + w_mul) * element.radius + w_add
        return Interval.from_center_radius(element.center, radius)

    def contains(outer: Interval, inner: Interval):
        if isinstance(inner, Interval):
            return inner.is_subset_of(outer)
        lower, upper = inner.concretize_bounds()
        return Interval(lower, upper).is_subset_of(outer)

    return DomainOps(consolidate=consolidate, contains=contains, compute_basis=None)


def _zonotope_ops() -> DomainOps:
    """Plain-Zonotope analyses reuse the CH-Zonotope machinery with the Box
    component disabled: consolidation lifts into CH-Zonotope space, applies
    Theorem 4.1, and projects the proper result (a parallelotope, whose Box
    component is zero by construction) back to a plain :class:`Zonotope`.
    Keeping the working element a ``Zonotope`` is what gives the domain its
    "no Box component" semantics — the Zonotope ReLU transformer writes
    fresh error terms into generator columns — and keeps every transformer
    in the pipeline type-stable (a lifted state could not be Minkowski-
    summed with the plain-Zonotope input injection).  The Theorem 4.2
    containment check applies unchanged through the same lift."""
    chz = _chzonotope_ops()

    def lift(element) -> CHZonotope:
        if isinstance(element, CHZonotope):
            return element
        if isinstance(element, Zonotope):
            return CHZonotope.from_zonotope(element)
        raise DomainError(f"cannot lift {type(element).__name__} to CHZonotope")

    def consolidate(element, basis, w_mul, w_add):
        return chz.consolidate(lift(element), basis, w_mul, w_add).to_zonotope()

    def contains(outer, inner):
        return chz.contains(lift(outer), lift(inner))

    def compute_basis(element):
        return chz.compute_basis(lift(element))

    return DomainOps(consolidate=consolidate, contains=contains, compute_basis=compute_basis)


def _parallelotope_ops() -> DomainOps:
    """The parallelotope pipeline shares the zonotope ops through the same
    CH-Zonotope lift, but consolidation projects back into the
    :class:`~repro.domains.parallelotope.ParallelotopeZonotope` element so
    the pipeline stays type-stable — the subsequent step's ReLU must keep
    reducing to the enclosing parallelotope."""
    from repro.domains.parallelotope import ParallelotopeZonotope

    base = _zonotope_ops()

    def consolidate(element, basis, w_mul, w_add):
        return ParallelotopeZonotope._wrap(base.consolidate(element, basis, w_mul, w_add))

    return DomainOps(
        consolidate=consolidate, contains=base.contains, compute_basis=base.compute_basis
    )


def domain_ops_for(domain: str) -> DomainOps:
    """Return the :class:`DomainOps` bundle for a domain name.

    ``domain`` is one of ``"chzonotope"``, ``"box"``, ``"zonotope"`` or
    ``"parallelotope"``.  Every domain with a basis consolidates onto each
    element's own PCA basis; Box has none.
    """
    factories = {
        "chzonotope": _chzonotope_ops,
        "box": _interval_ops,
        "zonotope": _zonotope_ops,
        "parallelotope": _parallelotope_ops,
    }
    try:
        factory = factories[domain]
    except KeyError:
        raise ConfigurationError(
            f"unknown domain {domain!r}; choose from {sorted(factories)}"
        ) from None
    return factory()


class ContractionEngine:
    """Phase-one engine: iterate until contraction is detected.

    Parameters
    ----------
    settings:
        Iteration budget, consolidation cadence, history size and abort
        width (:class:`~repro.core.config.ContractionSettings`).
    ops:
        Domain operations (:class:`DomainOps`).
    expansion:
        Expansion schedule applied at each consolidation
        (:class:`~repro.core.expansion.ExpansionSchedule`); ``None``
        disables expansion.
    """

    def __init__(
        self,
        settings: ContractionSettings,
        ops: DomainOps,
        expansion: Optional[ExpansionSchedule] = None,
    ):
        self._settings = settings
        self._ops = ops
        self._expansion = expansion

    def run(self, step: StepFunction, initial: AbstractElement) -> ContractionResult:
        """Iterate ``step`` from ``initial`` until contraction or exhaustion.

        The loop mirrors Algorithm 1's ``not contained`` branch together
        with the engineering details of Appendix C: the state is
        consolidated (and expanded) every ``consolidate_every`` iterations,
        the consolidation basis is recomputed every
        ``basis_recompute_every`` iterations, and the current state is
        compared against the ``history_size`` most recent consolidated
        states (sound by Theorem B.1).
        """
        settings = self._settings
        history: Deque[AbstractElement] = deque(maxlen=settings.history_size)
        width_trace = []
        state = initial
        basis: Optional[np.ndarray] = None
        consolidations = 0
        peak_error_terms = getattr(state, "num_generators", 0)

        for iteration in range(settings.max_iterations):
            if iteration % settings.consolidate_every == 0:
                if self._ops.compute_basis is not None and (
                    basis is None or iteration % settings.basis_recompute_every == 0
                ):
                    basis = self._ops.compute_basis(state)
                w_mul, w_add = (0.0, 0.0)
                if self._expansion is not None:
                    w_mul, w_add = self._expansion.step()
                state = self._ops.consolidate(state, basis, w_mul, w_add)
                history.append(state)
                consolidations += 1

            next_state = step(state)
            peak_error_terms = max(
                peak_error_terms, getattr(next_state, "num_generators", 0)
            )
            width_trace.append(next_state.mean_width)

            if next_state.max_width > settings.abort_width or not np.all(
                np.isfinite(next_state.width)
            ):
                return ContractionResult(
                    contained=False,
                    state=next_state,
                    reference=None,
                    iterations=iteration + 1,
                    consolidations=consolidations,
                    width_trace=width_trace,
                    diverged=True,
                    peak_error_terms=peak_error_terms,
                )

            for reference in reversed(history):
                if self._ops.contains(reference, next_state):
                    return ContractionResult(
                        contained=True,
                        state=next_state,
                        reference=reference,
                        iterations=iteration + 1,
                        consolidations=consolidations,
                        width_trace=width_trace,
                        peak_error_terms=peak_error_terms,
                    )
            state = next_state

        return ContractionResult(
            contained=False,
            state=state,
            reference=None,
            iterations=settings.max_iterations,
            consolidations=consolidations,
            width_trace=width_trace,
            peak_error_terms=peak_error_terms,
        )
