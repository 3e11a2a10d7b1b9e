"""The domain-generic stacking layer of the batched certification engine.

PR 1 vectorised the CH-Zonotope domain only; this module generalises the
idea into a small *protocol* every batched domain implements, so the
batched Craft driver (:mod:`repro.engine.craft`), the batch scheduler and
the sharded scheduler dispatch on ``CraftConfig.domain`` instead of
hard-coding one element type.  Three implementations exist:

* :class:`~repro.engine.batched_chzonotope.BatchedCHZonotope` — the
  CH-Zonotope stack of PR 1 (centres, generator stacks, Box radii).
* :class:`BatchedZonotope` — plain zonotopes (Table 4 "No Box component"):
  a :class:`BatchedCHZonotope` whose Box component is identically zero and
  whose ReLU transformer writes fresh error terms into generator columns,
  mirroring :meth:`repro.domains.zonotope.Zonotope.relu`.
* :class:`BatchedBox` — intervals (Table 4 "No Zono component"): two
  ``(B, n)`` bound arrays, exact clipping ReLU, O(B·n) containment.

Every implementation obeys the engine's **parity contract**: sample ``i``
of any batched transformer equals the sequential transformer applied to
sample ``i`` of the operands, up to floating-point round-off and zero
generator columns, so verdicts are independent of batch composition.  The
sequential counterpart of each domain is the :class:`~repro.core.contraction.DomainOps`
bundle of :func:`repro.core.contraction.domain_ops_for`.

Use :func:`batched_domain_for` to resolve a ``CraftConfig.domain`` name;
unknown names raise :class:`~repro.exceptions.ConfigurationError` — the
engine never falls back to the sequential loop silently.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, Type, runtime_checkable

import numpy as np

from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.relu import default_slopes, relu_relaxation
from repro.domains.zonotope import Zonotope
from repro.engine.batched_chzonotope import BatchedCHZonotope, box_center_radius, stack_parts
from repro.exceptions import ConfigurationError, DimensionMismatchError, DomainError


@runtime_checkable
class BatchedDomain(Protocol):
    """Structural interface the batched Craft driver programs against.

    A batched domain is a stack of ``B`` abstract elements of one domain
    sharing a common dimension ``n``.  The driver requires:

    * **Conversions** — ``from_bounds(lower, upper)`` builds the input
      stack from ``(B, n)`` box bounds (bit for bit ``from_elements`` of
      ``LinfBall.to_element`` per row), ``from_points(points)`` builds a
      degenerate stack, ``select(rows)`` gathers a sub-batch (per-sample
      early exit), and ``gather(stacks, which, rows)`` re-stacks rows of
      several stacks as ``element`` followed by ``from_elements`` would.
      A sample becomes a sequential element — ``element(i)`` — only when a
      result's element is first read; ``from_elements(seq)`` stacks
      sequential elements.
    * **Stacked transformers** — ``affine(weight, bias)`` with a shared
      ``(m, n)`` or per-sample ``(B, m, n)`` weight, ``relu(slopes,
      pass_through)``, ``sum(other)`` (Minkowski sum), and
      ``relu_slopes(delta)`` for slope optimisation.  Box has no notion of
      ``slopes`` and ignores them, the same way its sequential transformer
      does.
    * **Shared input block** (zonotope-family stacks only) —
      ``pad_leading(count)`` prepends zero generator columns and
      ``sum_aligned(other)`` adds ``other``'s columns into the leading
      ones (:func:`repro.mondeq.abstract_solvers.shared_input_terms`).
    * **Containment/consolidation hooks** — ``consolidate(basis, w_mul,
      w_add)`` returning a stack usable as the *outer* operand of
      ``contains`` (``basis`` is a per-sample ``(B, n, n)`` stack);
      ``contains(other)`` returning per-sample ``(B,)`` soundness flags;
      ``pca_basis()`` returning the consolidation basis stack or ``None``
      when the domain has no basis (Box).
    * **Geometry accessors** — ``concretize_bounds()``, ``width``,
      ``mean_width``, ``max_width``, ``batch_size``, ``dim``.
    """

    # Conversions -------------------------------------------------------
    @classmethod
    def from_bounds(cls, lower, upper) -> "BatchedDomain": ...
    @classmethod
    def from_elements(cls, elements: Sequence) -> "BatchedDomain": ...
    @classmethod
    def from_points(cls, points: np.ndarray) -> "BatchedDomain": ...
    @classmethod
    def gather(cls, stacks: Sequence, which, rows) -> "BatchedDomain": ...
    def element(self, index: int): ...
    def select(self, indices) -> "BatchedDomain": ...

    # Stacked transformers ---------------------------------------------
    def affine(self, weight, bias=None) -> "BatchedDomain": ...
    def relu(self, slopes=None, pass_through=None) -> "BatchedDomain": ...
    def sum(self, other) -> "BatchedDomain": ...
    def relu_slopes(self, slope_delta: float) -> np.ndarray: ...

    # Containment / consolidation hooks --------------------------------
    def consolidate(self, basis=None, w_mul: float = 0.0, w_add: float = 0.0) -> "BatchedDomain": ...
    def contains(self, other, tol: float = 1e-9) -> np.ndarray: ...
    def pca_basis(self) -> Optional[np.ndarray]: ...

    # Geometry ----------------------------------------------------------
    def concretize_bounds(self) -> Tuple[np.ndarray, np.ndarray]: ...
    @property
    def batch_size(self) -> int: ...
    @property
    def dim(self) -> int: ...
    @property
    def width(self) -> np.ndarray: ...
    @property
    def mean_width(self) -> np.ndarray: ...
    @property
    def max_width(self) -> np.ndarray: ...


class BatchedBox:
    """A stack of ``B`` intervals ``[lower_i, upper_i]`` in R^n.

    Mirrors :class:`repro.domains.interval.Interval` transformer by
    transformer; consolidation applies the Eq. 10 expansion to the radii
    (through the same centre/radius reconstruction the sequential
    ``DomainOps`` use, so bounds agree bit for bit) and the containment
    check is the exact O(n) inclusion test.
    """

    __slots__ = ("_lower", "_upper")

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 2 or lower.shape != upper.shape:
            raise DomainError(
                f"bounds must share a (batch, dim) shape, got {lower.shape} / {upper.shape}"
            )
        if np.any(lower > upper + 1e-12):
            raise DomainError("Interval lower bounds must not exceed upper bounds")
        self._lower = lower
        self._upper = np.maximum(upper, lower)

    # ------------------------------------------------------------------
    # Conversions to and from sequential elements
    # ------------------------------------------------------------------

    @classmethod
    def from_elements(cls, elements: Sequence[Interval]) -> "BatchedBox":
        elements = list(elements)
        if not elements:
            raise DomainError("from_elements requires at least one element")
        dim = elements[0].dim
        if any(element.dim != dim for element in elements):
            raise DimensionMismatchError("all elements must share the same dimension")
        bounds = [element.concretize_bounds() for element in elements]
        return cls(np.stack([b[0] for b in bounds]), np.stack([b[1] for b in bounds]))

    @classmethod
    def from_bounds(cls, lower, upper) -> "BatchedBox":
        """The boxes ``[lower_i, upper_i]`` themselves (the constructor
        validates and clamps them as :class:`Interval` does)."""
        return cls(lower, upper)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "BatchedBox":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(points, points.copy())

    @classmethod
    def gather(cls, stacks: Sequence["BatchedBox"], which, rows) -> "BatchedBox":
        """Stack row ``rows[j]`` of ``stacks[which[j]]`` as row ``j``."""
        rows = np.asarray(rows)
        lower = np.empty((rows.size, stacks[0].dim))
        upper = np.empty_like(lower)
        for destination, stack, source in stack_parts(stacks, which, rows):
            lower[destination] = stack._lower[source]
            upper[destination] = stack._upper[source]
        return cls(lower, upper)

    def element(self, index: int) -> Interval:
        return Interval(self._lower[index], self._upper[index])

    def select(self, indices) -> "BatchedBox":
        indices = np.asarray(indices)
        return BatchedBox(self._lower[indices], self._upper[indices])

    # ------------------------------------------------------------------
    # Representation accessors
    # ------------------------------------------------------------------

    @property
    def batch_size(self) -> int:
        return self._lower.shape[0]

    @property
    def dim(self) -> int:
        return self._lower.shape[1]

    @property
    def lower(self) -> np.ndarray:
        return self._lower.copy()

    @property
    def upper(self) -> np.ndarray:
        return self._upper.copy()

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self._lower + self._upper)

    @property
    def radius(self) -> np.ndarray:
        return 0.5 * (self._upper - self._lower)

    def concretize_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._lower.copy(), self._upper.copy()

    @property
    def width(self) -> np.ndarray:
        return self._upper - self._lower

    @property
    def mean_width(self) -> np.ndarray:
        return self.width.mean(axis=1)

    @property
    def max_width(self) -> np.ndarray:
        return self.width.max(axis=1)

    # ------------------------------------------------------------------
    # Abstract transformers (mirroring Interval)
    # ------------------------------------------------------------------

    def affine(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> "BatchedBox":
        """Sound interval affine transformer, batched.

        As in the sequential domain: the new centre is the affine image of
        the centre and the new radius is ``|W| @ radius``.  ``weight`` is a
        shared ``(m, n)`` matrix or a per-sample ``(B, m, n)`` stack.
        """
        weight = np.asarray(weight, dtype=float)
        center = self.center
        radius = self.radius
        if weight.ndim == 2:
            if weight.shape[1] != self.dim:
                raise DimensionMismatchError(
                    f"weight must have shape (m, {self.dim}), got {weight.shape}"
                )
            new_center = center @ weight.T
            new_radius = radius @ np.abs(weight).T
        elif weight.ndim == 3:
            if weight.shape[0] != self.batch_size or weight.shape[2] != self.dim:
                raise DimensionMismatchError(
                    f"weight must have shape ({self.batch_size}, m, {self.dim}), "
                    f"got {weight.shape}"
                )
            new_center = np.matmul(weight, center[:, :, None])[:, :, 0]
            new_radius = np.matmul(np.abs(weight), radius[:, :, None])[:, :, 0]
        else:
            raise DimensionMismatchError("weight must be a 2-d or 3-d array")
        if bias is not None:
            bias = np.asarray(bias, dtype=float).reshape(-1)
            if bias.shape[0] != new_center.shape[1]:
                raise DimensionMismatchError(
                    f"bias must have dimension {new_center.shape[1]}, got {bias.shape[0]}"
                )
            new_center = new_center + bias[None, :]
        return BatchedBox(new_center - new_radius, new_center + new_radius)

    def relu(
        self, slopes: Optional[np.ndarray] = None, pass_through: Optional[np.ndarray] = None
    ) -> "BatchedBox":
        """Exact interval ReLU (clipping), batched.

        ``slopes`` is accepted for protocol compatibility and ignored —
        clipping the bounds is both sound and optimal for a box, exactly as
        in the sequential transformer.
        """
        del slopes
        lower = np.maximum(self._lower, 0.0)
        upper = np.maximum(self._upper, 0.0)
        if pass_through is not None:
            pass_through = np.asarray(pass_through, dtype=bool)
            lower = np.where(pass_through[None, :], self._lower, lower)
            upper = np.where(pass_through[None, :], self._upper, upper)
        return BatchedBox(lower, upper)

    def sum(self, other: "BatchedBox") -> "BatchedBox":
        other = self._coerce(other)
        return BatchedBox(self._lower + other._lower, self._upper + other._upper)

    def scale(self, factor: float) -> "BatchedBox":
        factor = float(factor)
        lo = factor * self._lower
        hi = factor * self._upper
        return BatchedBox(np.minimum(lo, hi), np.maximum(lo, hi))

    def translate(self, offset: np.ndarray) -> "BatchedBox":
        offset = np.asarray(offset, dtype=float)
        return BatchedBox(self._lower + offset, self._upper + offset)

    def relu_slopes(self, slope_delta: float) -> np.ndarray:
        """Minimum-area slopes shifted by ``slope_delta``.

        The interval ReLU ignores slopes, but the shared step driver asks
        for them whenever slope optimisation is active; computing them the
        same way as the sequential step keeps the code paths aligned.
        """
        lower, upper = self.concretize_bounds()
        return np.clip(default_slopes(lower, upper) + slope_delta, 0.0, 1.0)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(
            self._lower[:, None, :],
            self._upper[:, None, :],
            size=(self.batch_size, count, self.dim),
        )

    # ------------------------------------------------------------------
    # Containment / consolidation hooks
    # ------------------------------------------------------------------

    def consolidate(
        self,
        basis: Optional[np.ndarray] = None,
        w_mul: float = 0.0,
        w_add: float = 0.0,
    ) -> "BatchedBox":
        """Expansion step of Eq. 10 on the radii (boxes are always proper).

        Mirrors the sequential ``DomainOps`` arithmetic exactly — the
        bounds are reconstructed from centre and expanded radius so that a
        zero-expansion consolidation produces bit-identical bounds on both
        engine paths.  ``basis`` is accepted and ignored (a box has no
        error basis).
        """
        del basis
        if w_mul < 0 or w_add < 0:
            raise DomainError("expansion parameters must be non-negative")
        center = self.center
        radius = (1.0 + w_mul) * self.radius + w_add
        return BatchedBox(center - radius, center + radius)

    def pca_basis(self) -> Optional[np.ndarray]:
        """Boxes carry no error basis; the driver skips basis bookkeeping."""
        return None

    def contains(self, other: "BatchedBox", tol: float = 1e-9) -> np.ndarray:
        """Exact per-sample inclusion flags, shape ``(B,)``."""
        other = self._coerce(other)
        return np.all(
            (other._lower >= self._lower - tol) & (other._upper <= self._upper + tol),
            axis=1,
        )

    def containment_margin(self, other: "BatchedBox") -> np.ndarray:
        """Per-sample element-wise inclusion ratios (≤ 1 means contained)."""
        other = self._coerce(other)
        radius = np.maximum(self.radius, 1e-300)
        offset = np.abs(other.center - self.center)
        return (offset + other.radius) / radius

    # ------------------------------------------------------------------
    # Misc utilities
    # ------------------------------------------------------------------

    def compress(self) -> "BatchedBox":
        """Boxes have constant representation size; nothing to compress."""
        return self

    def _coerce(self, other: "BatchedBox") -> "BatchedBox":
        if not isinstance(other, BatchedBox):
            raise DomainError(f"expected a BatchedBox, got {type(other).__name__}")
        if other.batch_size != self.batch_size or other.dim != self.dim:
            raise DimensionMismatchError(
                f"batch/dimension mismatch: ({self.batch_size}, {self.dim}) vs "
                f"({other.batch_size}, {other.dim})"
            )
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BatchedBox(batch={self.batch_size}, dim={self.dim})"


class BatchedZonotope(BatchedCHZonotope):
    """A stack of ``B`` plain zonotopes ``{ a_i + A_i nu }`` (zero Box part).

    Implements the Table 4 "No Box component" domain against the batched
    protocol: the representation is a :class:`BatchedCHZonotope` whose Box
    radii are identically zero, and the ReLU transformer writes fresh
    error terms into generator columns — per-sample identical to
    :meth:`repro.domains.zonotope.Zonotope.relu`.  Consolidation and the
    Theorem 4.2 containment check are inherited unchanged (with zero Box
    radii they reduce to the plain-zonotope forms the sequential
    ``domain_ops_for("zonotope")`` bundle computes through its CH-Zonotope
    lift).
    """

    __slots__ = ()

    def __init__(self, center, generators=None, box=None):
        super().__init__(center, generators, box)
        if np.any(self._box > 0):
            raise DomainError("BatchedZonotope carries no Box component")

    @classmethod
    def from_elements(cls, elements: Sequence) -> "BatchedZonotope":
        """Stack plain zonotopes (or zero-Box CH-Zonotopes)."""
        elements = list(elements)
        if not elements:
            raise DomainError("from_elements requires at least one element")
        lifted: List[Zonotope] = []
        for element in elements:
            if isinstance(element, CHZonotope):
                element = element.to_zonotope()
            if not isinstance(element, Zonotope):
                raise DomainError(
                    f"expected Zonotope elements, got {type(element).__name__}"
                )
            lifted.append(element)
        dim = lifted[0].dim
        if any(element.dim != dim for element in lifted):
            raise DimensionMismatchError("all elements must share the same dimension")
        k = max(element.num_generators for element in lifted)
        centers = np.stack([element.center for element in lifted])
        generators = np.zeros((len(lifted), dim, k))
        for index, element in enumerate(lifted):
            generators[index, :, : element.num_generators] = element.generators
        return cls(centers, generators, None)

    @classmethod
    def from_bounds(cls, lower, upper) -> "BatchedZonotope":
        """Stack of the boxes ``[lower_i, upper_i]``: one generator column per
        non-degenerate axis, compacted to the left and zero-padded to the
        largest count, bit for bit ``from_elements`` of
        ``Zonotope.from_interval`` per row."""
        center, radius = box_center_radius(lower, upper)
        axes = radius > 0
        generators = np.zeros(center.shape + (int(axes.sum(axis=1).max(initial=0)),))
        row, axis = np.nonzero(axes)
        generators[row, axis, np.cumsum(axes, axis=1)[row, axis] - 1] = radius[row, axis]
        return cls(center, generators, None)

    def element(self, index: int) -> Zonotope:
        """The ``index``-th sample as a sequential :class:`Zonotope`."""
        generators = self._generators[index]
        keep = np.abs(generators).sum(axis=0) > 0
        return Zonotope(self._center[index], generators[:, keep])

    def relu(
        self, slopes: Optional[np.ndarray] = None, pass_through: Optional[np.ndarray] = None
    ) -> "BatchedZonotope":
        """Zonotope ReLU: fresh error terms become generator columns, one
        per axis on which some row crosses (zero in the other rows),
        matching the sequential :meth:`Zonotope.relu`."""
        lower, upper = self.concretize_bounds()
        relaxation = relu_relaxation(lower, upper, slopes, pass_through=pass_through)
        center = relaxation.slopes * self._center + relaxation.offsets
        generators = relaxation.slopes[:, :, None] * self._generators
        new_axes = np.nonzero(np.any(relaxation.new_errors > 0, axis=0))[0]
        if new_axes.size:
            fresh = np.zeros((self.batch_size, self.dim, new_axes.size))
            fresh[:, new_axes, np.arange(new_axes.size)] = relaxation.new_errors[:, new_axes]
            generators = np.concatenate([generators, fresh], axis=2)
        return type(self)(center, generators, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BatchedZonotope(batch={self.batch_size}, dim={self.dim}, "
            f"k={self.num_generators})"
        )


class BatchedParallelotope(BatchedZonotope):
    """A stack of ``B`` order-bounded zonotopes (the parallelotope pipeline).

    The ladder rung between :class:`BatchedZonotope` and
    :class:`BatchedCHZonotope`: affine and Minkowski-sum transformers are
    the plain-zonotope ones, and the ReLU transformer immediately reduces
    its result to the enclosing PCA-aligned parallelotope stack (Amato &
    Scozzari 2012) via the Theorem 4.1 consolidation with zero expansion —
    so the error-term count is reset to ``dim`` after every solver step
    and the phase-two working set stays constant.

    The reduction is applied *unconditionally* (not only when the padded
    column count exceeds ``dim``): zero-padded stacks hide the per-sample
    generator count, and per-sample parity with the sequential
    :class:`~repro.domains.parallelotope.ParallelotopeZonotope` requires
    both sides to reduce at exactly the same program points.
    """

    __slots__ = ()

    def relu(
        self, slopes: Optional[np.ndarray] = None, pass_through: Optional[np.ndarray] = None
    ) -> "BatchedParallelotope":
        return super().relu(slopes=slopes, pass_through=pass_through)._reduce_order()

    def _reduce_order(self) -> "BatchedParallelotope":
        """Enclosing PCA parallelotope stack (Theorem 4.1, zero expansion).

        Zero-padded columns (batchmates' crossing patterns) never change
        the PCA basis or the coefficients — ``G Gᵀ`` and the column-wise
        coefficient sums are blind to zero columns — so the reduction is
        batch-composition independent *in exact arithmetic*.  In floating
        point the stacked BLAS calls differ from the sequential ones at
        the last ulp, and because the PR state layout duplicates the z/u
        rows the reduced matrices are rank-deficient, whose SVD subspaces
        amplify that noise; an every-step reduction therefore tracks the
        sequential pipeline to verdict-level agreement rather than the
        1e-9 bound parity of the other domains (soundness is unaffected —
        any PCA enclosure is sound, see the domain property tests).
        """
        return self.consolidate(None, 0.0, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BatchedParallelotope(batch={self.batch_size}, dim={self.dim}, "
            f"k={self.num_generators})"
        )


_BATCHED_DOMAINS = {
    "chzonotope": BatchedCHZonotope,
    "box": BatchedBox,
    "zonotope": BatchedZonotope,
    "parallelotope": BatchedParallelotope,
}


def batched_domain_for(domain: str) -> Type:
    """Resolve a ``CraftConfig.domain`` name to its batched stack class.

    Raises
    ------
    ConfigurationError
        For unknown domain names.  The engines treat this as fatal — a
        domain the vectorised path cannot represent must fail loudly, not
        silently fall back to the sequential loop.
    """
    try:
        return _BATCHED_DOMAINS[domain]
    except KeyError:
        raise ConfigurationError(
            f"no batched implementation for domain {domain!r}; "
            f"choose from {sorted(_BATCHED_DOMAINS)}"
        ) from None
