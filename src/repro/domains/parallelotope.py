"""The parallelotope pipeline: an order-bounded zonotope.

A proper CH-Zonotope with a zero Box component is exactly a Parallelotope
(Amato & Scozzari 2012; Section 4, Fig. 7 of the paper).  Its PCA-aligned
enclosure of a zonotope is the Theorem 4.1 consolidation without
expansion, which :meth:`ParallelotopeZonotope.reduce` applies after every
ReLU to keep the error-term count at the dimension.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.domains.chzonotope import CHZonotope
from repro.domains.zonotope import Zonotope


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
