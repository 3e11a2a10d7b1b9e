"""Parallelotopes: proper CH-Zonotopes with a zero Box component.

The paper (Section 4, Fig. 7) observes that a CH-Zonotope with ``b = 0`` and
``p`` linearly independent error terms is exactly a Parallelotope (Amato &
Scozzari 2012), and that a CH-Zonotope is strictly more expressive because
it effectively carries twice as many error terms.  This module provides the
Parallelotope as a convenience wrapper so the Fig. 7 comparison (Box vs
Parallelotope vs proper CH-Zonotope over-approximations) and the "No Box"
ablation have a first-class object to talk about.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.zonotope import Zonotope
from repro.exceptions import DomainError
from repro.utils.linalg import pca_basis, safe_inverse
from repro.utils.validation import ensure_matrix, ensure_vector


class Parallelotope(CHZonotope):
    """A proper CH-Zonotope whose Box component is identically zero."""

    def __init__(self, center, generators):
        center = ensure_vector(center, "center")
        generators = ensure_matrix(
            generators, "generators", rows=center.shape[0], cols=center.shape[0]
        )
        if np.linalg.matrix_rank(generators) < center.shape[0]:
            raise DomainError("a Parallelotope requires an invertible error matrix")
        super().__init__(center, generators, np.zeros(center.shape[0]))

    @classmethod
    def enclosing(cls, element) -> "Parallelotope":
        """Smallest PCA-aligned parallelotope enclosing ``element``.

        ``element`` may be a :class:`Zonotope`, :class:`CHZonotope`, or
        :class:`Interval`.  This is the red over-approximation of Fig. 7.
        """
        if isinstance(element, Interval):
            radius = np.maximum(element.radius, 1e-12)
            return cls(element.center, np.diag(radius))
        if isinstance(element, CHZonotope):
            zonotope = element.to_zonotope()
        elif isinstance(element, Zonotope):
            zonotope = element
        else:
            raise DomainError(
                f"cannot enclose element of type {type(element).__name__}"
            )
        if zonotope.num_generators == 0:
            return cls(zonotope.center, np.eye(zonotope.dim) * 1e-12)
        basis = pca_basis(zonotope.generators)
        inverse = safe_inverse(basis, context="PCA basis")
        coefficients = np.abs(inverse @ zonotope.generators).sum(axis=1)
        coefficients = np.maximum(coefficients, 1e-12)
        return cls(zonotope.center, basis * coefficients[None, :])

    def relu(
        self,
        slopes: Optional[np.ndarray] = None,
        box_new_errors: bool = False,
        pass_through: Optional[np.ndarray] = None,
    ) -> CHZonotope:
        """ReLU transformer; fresh errors become generator columns by default
        (a Parallelotope has no Box component to put them in), so the result
        is in general an improper CH-Zonotope."""
        return super().relu(
            slopes=slopes, box_new_errors=box_new_errors, pass_through=pass_through
        )


class ParallelotopeZonotope(Zonotope):
    """The sequential **parallelotope pipeline** element.

    An order-bounded zonotope: the affine and Minkowski-sum transformers
    are the plain-Zonotope ones (exact, type-stable), and the ReLU
    transformer immediately reduces its result to the enclosing
    PCA-aligned parallelotope (Amato & Scozzari 2012) — so the error-term
    count is reset to the dimension after every solver step instead of
    growing by the input's and the ReLU's columns per step.  The reduction
    merges the input symbols into the PCA basis, so this domain adds the
    input with fresh symbols in both Craft phases.  That makes it
    the constant-memory rung of the escalation ladder between the Box and
    the full CH-Zonotope pipelines.

    The reduction routes through the same Theorem 4.1 consolidation the
    CH-Zonotope lift uses (``from_zonotope -> consolidate -> to_zonotope``
    with zero expansion), which is exactly the arithmetic of the batched
    :class:`repro.engine.batched_domains.BatchedParallelotope`.  Because
    the reduction runs an SVD *every step* over matrices the PR state
    layout makes rank-deficient, last-ulp BLAS differences between the
    stacked and the sequential pipelines can rotate the reduction basis;
    the engine parity contract for this domain is therefore verdict-level
    (outcome/containment/certification) rather than the 1e-9 bound parity
    of the other domains — see
    ``BatchedParallelotope._reduce_order`` for the full analysis.
    """

    __slots__ = ()

    @classmethod
    def _wrap(cls, zonotope: Zonotope) -> "ParallelotopeZonotope":
        return cls(zonotope.center, zonotope.generators)

    @classmethod
    def reduce(
        cls, zonotope: Zonotope, basis: Optional[np.ndarray] = None
    ) -> "ParallelotopeZonotope":
        """Enclosing parallelotope of ``zonotope`` (Theorem 4.1, no
        expansion) — applied unconditionally so batched stacks whose zero
        padding hides the per-sample generator count behave identically.
        ``basis`` overrides the PCA basis (any invertible basis is sound).
        """
        consolidated = CHZonotope.from_zonotope(zonotope).consolidate(
            basis=basis, w_mul=0.0, w_add=0.0
        )
        return cls._wrap(consolidated.to_zonotope())

    # Type-stable plain-Zonotope transformers ---------------------------

    def affine(self, weight, bias=None) -> "ParallelotopeZonotope":
        return self._wrap(super().affine(weight, bias))

    def sum(self, other) -> "ParallelotopeZonotope":
        return self._wrap(super().sum(other))

    def scale(self, factor: float) -> "ParallelotopeZonotope":
        return self._wrap(super().scale(factor))

    def translate(self, offset) -> "ParallelotopeZonotope":
        return self._wrap(super().translate(offset))

    # The order-bounding transformer ------------------------------------

    def relu(self, slopes=None, pass_through=None) -> "ParallelotopeZonotope":
        return self.reduce(super().relu(slopes=slopes, pass_through=pass_through))
