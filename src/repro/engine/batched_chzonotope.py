"""Batched CH-Zonotopes: a stack of B elements advanced by shared BLAS calls.

A :class:`BatchedCHZonotope` represents ``B`` CH-Zonotopes of a common
dimension ``n`` with a *uniform* number of error terms ``k``::

    centers    (B, n)
    generators (B, n, k)
    box        (B, n)

Every abstract transformer of :class:`~repro.domains.chzonotope.CHZonotope`
is mirrored here as a single broadcast/einsum expression, so certifying a
batch of input regions costs a handful of large matrix products instead of
``B`` Python-level passes.  The per-sample semantics are identical: sample
``i`` of the result equals the sequential transformer applied to sample
``i`` of the operands, up to floating-point round-off and zero generator
columns (samples whose Box/ReLU patterns differ carry each other's columns
with coefficient zero — a representation difference only, never a change of
the concretised set).

The batched Craft driver keeps every sample in a stack from its
precondition to its result.  Input regions enter through
:meth:`from_bounds` (one row per box), finished samples leave the iterate
through :meth:`select` while the remaining rows keep iterating as a
smaller stack (per-sample early exit), and :meth:`gather` re-stacks rows
of several stacks (phase one's exits become phase two's start).  A
sequential :class:`CHZonotope` is built by :meth:`element` only when a
result's element is first read; :meth:`from_elements` stacks sequential
elements, right-padding generators with zero columns to a uniform ``k``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.domains.chzonotope import CHZonotope
from repro.domains.relu import default_slopes, relu_relaxation
from repro.exceptions import DimensionMismatchError, DomainError, ImproperZonotopeError
from repro.utils.linalg import pca_basis


class BatchedCHZonotope:
    """A stack of ``B`` CH-Zonotopes ``{ a_i + A_i nu + diag(b_i) eta }``."""

    __slots__ = ("_center", "_generators", "_box", "_inverse_cache", "_bounds_cache")

    def __init__(self, center, generators=None, box=None):
        center = np.asarray(center, dtype=float)
        if center.ndim != 2:
            raise DomainError(f"centers must have shape (batch, dim), got {center.shape}")
        batch, dim = center.shape
        if generators is None:
            generators = np.zeros((batch, dim, 0))
        generators = np.asarray(generators, dtype=float)
        if generators.ndim != 3 or generators.shape[:2] != (batch, dim):
            raise DomainError(
                f"generators must have shape ({batch}, {dim}, k), got {generators.shape}"
            )
        if box is None:
            box = np.zeros((batch, dim))
        box = np.asarray(box, dtype=float)
        if box.shape != (batch, dim):
            raise DomainError(f"box must have shape ({batch}, {dim}), got {box.shape}")
        if np.any(box < 0):
            raise DomainError("box radii must be non-negative")
        self._center = center
        self._generators = generators
        self._box = box
        self._inverse_cache = None
        self._bounds_cache = None

    # ------------------------------------------------------------------
    # Conversions to and from sequential elements
    # ------------------------------------------------------------------

    @classmethod
    def from_elements(cls, elements: Sequence[CHZonotope]) -> "BatchedCHZonotope":
        """Stack sequential elements, right-padding generators to a common k."""
        elements = list(elements)
        if not elements:
            raise DomainError("from_elements requires at least one element")
        dim = elements[0].dim
        if any(element.dim != dim for element in elements):
            raise DimensionMismatchError("all elements must share the same dimension")
        k = max(element.num_generators for element in elements)
        centers = np.stack([element.center for element in elements])
        box = np.stack([element.box for element in elements])
        generators = np.zeros((len(elements), dim, k))
        for index, element in enumerate(elements):
            generators[index, :, : element.num_generators] = element.generators
        return cls(centers, generators, box)

    @classmethod
    def from_bounds(cls, lower, upper) -> "BatchedCHZonotope":
        """Stack of the boxes ``[lower_i, upper_i]`` (rows of two ``(B, n)``
        arrays): diagonal generators of the radius and a zero Box, bit for
        bit ``from_elements`` of ``CHZonotope.from_interval`` per row."""
        center, radius = box_center_radius(lower, upper)
        batch, dim = center.shape
        generators = np.zeros((batch, dim, dim))
        generators[:, np.arange(dim), np.arange(dim)] = radius
        return cls(center, generators, None)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "BatchedCHZonotope":
        """Degenerate stack containing exactly the rows of ``points``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(points, np.zeros((points.shape[0], points.shape[1], 0)), None)

    @classmethod
    def gather(cls, stacks: Sequence["BatchedCHZonotope"], which, rows) -> "BatchedCHZonotope":
        """Stack row ``rows[j]`` of ``stacks[which[j]]`` as row ``j``.

        Each row keeps its non-zero generator columns, moved to the left in
        their original order; its zero columns (``-0.0`` included) are
        dropped, and the stack is padded with zero columns to the largest
        count over exactly the gathered rows.  That is what
        ``from_elements([stacks[w].element(r) ...])`` produces, bit for bit,
        without building the elements — and the column count matters beyond
        the set it describes, because it changes numpy's summation order.
        """
        rows = np.asarray(rows)
        dim = stacks[0].dim
        center = np.empty((rows.size, dim))
        box = np.empty((rows.size, dim))
        parts = []
        for destination, stack, source in stack_parts(stacks, which, rows):
            generators = stack._generators[source]
            keep = np.abs(generators).sum(axis=1) > 0
            center[destination] = stack._center[source]
            box[destination] = stack._box[source]
            parts.append((destination, generators, keep))
        if len(parts) == 1:
            _, generators, keep = parts[0]
            if (keep == keep[0]).all():
                # The rows share their zero columns (a single row always
                # does): dropping those columns compacts every row.
                return cls(center, generators if keep[0].all() else generators[:, :, keep[0]], box)
        width = max(int(keep.sum(axis=1).max(initial=0)) for _, _, keep in parts)
        stacked = np.zeros((rows.size, dim, width))
        for destination, generators, keep in parts:
            row, column = np.nonzero(keep)
            target = np.cumsum(keep, axis=1)[row, column] - 1
            stacked[destination[row], :, target] = generators[row, :, column]
        return cls(center, stacked, box)

    def element(self, index: int) -> CHZonotope:
        """The ``index``-th sample as a sequential :class:`CHZonotope`."""
        generators = self._generators[index]
        keep = np.abs(generators).sum(axis=0) > 0
        return CHZonotope(self._center[index], generators[:, keep], self._box[index])

    def select(self, indices) -> "BatchedCHZonotope":
        """Gather a sub-batch (used for per-sample early exit)."""
        indices = np.asarray(indices)
        selected = type(self)(
            self._center[indices], self._generators[indices], self._box[indices]
        )
        if self._inverse_cache is not None:
            selected._inverse_cache = self._inverse_cache[indices]
        return selected

    # ------------------------------------------------------------------
    # Representation accessors
    # ------------------------------------------------------------------

    @property
    def batch_size(self) -> int:
        return self._center.shape[0]

    @property
    def dim(self) -> int:
        return self._center.shape[1]

    @property
    def num_generators(self) -> int:
        return self._generators.shape[2]

    @property
    def center(self) -> np.ndarray:
        return self._center.copy()

    @property
    def generators(self) -> np.ndarray:
        return self._generators.copy()

    @property
    def box(self) -> np.ndarray:
        return self._box.copy()

    def concretize_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        # Elements are immutable and the driver reads bounds several times
        # per iteration (ReLU relaxation, width heuristics, traces), so the
        # |A| column sum — a full pass over the largest array — is cached.
        if self._bounds_cache is None:
            radius = np.abs(self._generators).sum(axis=2) + self._box
            self._bounds_cache = (self._center - radius, self._center + radius)
        return self._bounds_cache

    @property
    def width(self) -> np.ndarray:
        """Per-sample element-wise widths, shape ``(B, n)``."""
        lower, upper = self.concretize_bounds()
        return upper - lower

    @property
    def mean_width(self) -> np.ndarray:
        """Per-sample mean width, shape ``(B,)``."""
        return self.width.mean(axis=1)

    @property
    def max_width(self) -> np.ndarray:
        """Per-sample maximum width, shape ``(B,)``."""
        return self.width.max(axis=1)

    # ------------------------------------------------------------------
    # Abstract transformers (mirroring CHZonotope)
    # ------------------------------------------------------------------

    def affine(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> "BatchedCHZonotope":
        """Exact affine transformer, batched.

        ``weight`` is either a shared ``(m, n)`` matrix or a per-sample
        ``(B, m, n)`` stack (the latter is used for per-sample postcondition
        difference matrices).  As in the sequential transformer, the Box
        errors are cast into generator columns — one column per coordinate
        whose Box radius is non-zero in *any* sample — and the result has a
        zero Box component.
        """
        weight = np.asarray(weight, dtype=float)
        if weight.ndim == 2:
            if weight.shape[1] != self.dim:
                raise DimensionMismatchError(
                    f"weight must have shape (m, {self.dim}), got {weight.shape}"
                )
            center = self._center @ weight.T
            generators = np.matmul(weight, self._generators)
            box_axes = np.nonzero(np.any(self._box > 0, axis=0))[0]
            box_columns = weight[None, :, box_axes] * self._box[:, None, box_axes]
        elif weight.ndim == 3:
            if weight.shape[0] != self.batch_size or weight.shape[2] != self.dim:
                raise DimensionMismatchError(
                    f"weight must have shape ({self.batch_size}, m, {self.dim}), "
                    f"got {weight.shape}"
                )
            center = np.matmul(weight, self._center[:, :, None])[:, :, 0]
            generators = np.matmul(weight, self._generators)
            box_axes = np.nonzero(np.any(self._box > 0, axis=0))[0]
            box_columns = weight[:, :, box_axes] * self._box[:, None, box_axes]
        else:
            raise DimensionMismatchError("weight must be a 2-d or 3-d array")
        if bias is not None:
            bias = np.asarray(bias, dtype=float).reshape(-1)
            if bias.shape[0] != center.shape[1]:
                raise DimensionMismatchError(
                    f"bias must have dimension {center.shape[1]}, got {bias.shape[0]}"
                )
            center = center + bias[None, :]
        generators = np.concatenate([generators, box_columns], axis=2)
        return type(self)(center, generators, None)

    def relu(
        self, slopes: Optional[np.ndarray] = None, pass_through: Optional[np.ndarray] = None
    ) -> "BatchedCHZonotope":
        """Batched ReLU transformer (per-sample identical to the sequential
        one): fresh error terms go into the Box component."""
        lower, upper = self.concretize_bounds()
        relaxation = relu_relaxation(lower, upper, slopes, pass_through=pass_through)
        center = relaxation.slopes * self._center + relaxation.offsets
        generators = relaxation.slopes[:, :, None] * self._generators
        box = relaxation.slopes * self._box
        return type(self)(center, generators, box + relaxation.new_errors)

    def sum(self, other: "BatchedCHZonotope") -> "BatchedCHZonotope":
        """Minkowski sum: generator columns concatenate, Box radii add."""
        other = self._coerce(other)
        return type(self)(
            self._center + other._center,
            np.concatenate([self._generators, other._generators], axis=2),
            self._box + other._box,
        )

    def sum_aligned(self, other: "BatchedCHZonotope") -> "BatchedCHZonotope":
        """Sum over shared error symbols (per-sample identical to
        :meth:`CHZonotope.sum_aligned`): ``other``'s ``k`` columns add into
        the first ``k`` columns instead of concatenating."""
        other = self._coerce(other)
        k = other.num_generators
        if k > self.num_generators:
            raise DomainError(
                f"cannot align {k} error symbols with {self.num_generators} columns"
            )
        generators = self._generators.copy()
        generators[:, :, :k] += other._generators
        return type(self)(self._center + other._center, generators, self._box + other._box)

    def pad_leading(self, count: int) -> "BatchedCHZonotope":
        """Prepend ``count`` zero generator columns (the sets are unchanged)."""
        padding = np.zeros((self.batch_size, self.dim, count))
        return type(self)(
            self._center, np.concatenate([padding, self._generators], axis=2), self._box
        )

    def scale(self, factor: float) -> "BatchedCHZonotope":
        factor = float(factor)
        return type(self)(
            factor * self._center, factor * self._generators, abs(factor) * self._box
        )

    def translate(self, offset: np.ndarray) -> "BatchedCHZonotope":
        offset = np.asarray(offset, dtype=float)
        return type(self)(self._center + offset, self._generators, self._box)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``count`` points per element, shape ``(B, count, n)``."""
        nu = rng.uniform(-1.0, 1.0, size=(self.batch_size, count, self.num_generators))
        eta = rng.uniform(-1.0, 1.0, size=(self.batch_size, count, self.dim))
        return (
            self._center[:, None, :]
            + np.matmul(nu, np.transpose(self._generators, (0, 2, 1)))
            + eta * self._box[:, None, :]
        )

    # ------------------------------------------------------------------
    # Error consolidation and the Theorem 4.2 containment check
    # ------------------------------------------------------------------

    def consolidate(
        self,
        basis: Optional[np.ndarray] = None,
        w_mul: float = 0.0,
        w_add: float = 0.0,
    ) -> "BatchedCHZonotope":
        """Batched error consolidation (Theorem 4.1 + Eq. 10 expansion).

        ``basis`` is a per-sample ``(B, n, n)`` stack (the default when
        ``None``: every sample's own PCA basis).  Soundness is
        basis-independent (Theorem 4.1 holds for any invertible basis);
        only the approximation tightness changes.

        An identity basis (phase one's first basis, computed from a point)
        takes the axis-aligned path: no inverse and no projection, and the
        result carries its inverse ``1/c`` for :meth:`containment_margin`.
        Every array equals the general path's bit for bit (see
        docs/engines.md, "Axis-aligned consolidation").
        """
        if w_mul < 0 or w_add < 0:
            raise DomainError("expansion parameters must be non-negative")
        if basis is None:
            basis = self.pca_basis()
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (self.batch_size, self.dim, self.dim):
            raise DomainError(
                f"basis must have shape ({self.batch_size}, {self.dim}, {self.dim}), "
                f"got {basis.shape}"
            )
        axis_aligned = _is_identity(basis)
        if axis_aligned:
            # inv(I) is I exactly and |I @ G| is |G| for finite G.
            projected = self._generators
        else:
            basis_inverse = _batched_inverse(basis, context="consolidation basis")
            projected = np.matmul(basis_inverse, self._generators)
        # C order: numpy's sum order follows the layout, and the general
        # path's matmul output is always C-ordered.
        coefficients = np.abs(projected, order="C").sum(axis=2)
        coefficients = (1.0 + w_mul) * coefficients + w_add
        floor = max(w_add, 1e-12)
        coefficients = np.maximum(coefficients, floor)
        new_generators = basis * coefficients[:, None, :]
        result = type(self)(self._center, new_generators, self._box)
        if axis_aligned:
            # What LAPACK returns for inv(diag(c)), bit for bit.
            result._inverse_cache = 1.0 / coefficients
        return result

    def pca_basis(self, jitter: float = 1e-12) -> np.ndarray:
        """Per-sample PCA bases, shape ``(B, n, n)`` (identity where no errors)."""
        if self.num_generators == 0:
            return np.broadcast_to(
                np.eye(self.dim), (self.batch_size, self.dim, self.dim)
            ).copy()
        try:
            # Economy SVD once k >= n: all n left vectors without the
            # (k, k) right factor — the same rule as utils.linalg.pca_basis
            # (engine parity requires both sides to pick the same driver).
            u, _, _ = np.linalg.svd(
                self._generators, full_matrices=self.num_generators < self.dim
            )
        except np.linalg.LinAlgError:
            # A numerically degenerate sample must not abort the whole
            # batch: fall back to the sequential helper, which retries the
            # failing sample with diagonal jitter (utils.linalg.pca_basis).
            u = np.stack([pca_basis(sample, jitter=jitter) for sample in self._generators])
        zero = ~np.any(self._generators, axis=(1, 2))
        if np.any(zero):
            u[zero] = np.eye(self.dim)
        return u

    def contains(self, other: "BatchedCHZonotope", tol: float = 1e-9) -> np.ndarray:
        """Per-sample Theorem 4.2 containment flags, shape ``(B,)``."""
        margins = self.containment_margin(other)
        return np.all(margins <= 1.0 + tol, axis=1)

    def containment_margin(self, other: "BatchedCHZonotope") -> np.ndarray:
        """Per-sample element-wise Theorem 4.2 margins, shape ``(B, n)``.

        Against an axis-aligned consolidation (inverse ``diag(1/c)``) each
        row of the projection is one product per entry, so the margin is
        ``Σ_j |(1/c_i)·G'_ij| + (1/c_i)·residual_i``: element-wise, with no
        inverse and no matmul, and bit for bit the general path's value.
        """
        other = self._coerce(other)
        inverse = self._generator_inverse()
        residual = np.maximum(
            0.0, np.abs(other._center - self._center) + other._box - self._box
        )
        if inverse.ndim == 2:
            # C order for the general path's summation order (see consolidate).
            zonotope_part = np.abs(inverse[:, :, None] * other._generators, order="C").sum(axis=2)
            return zonotope_part + inverse * residual
        zonotope_part = np.abs(np.matmul(inverse, other._generators)).sum(axis=2)
        box_part = np.abs(inverse * residual[:, None, :]).sum(axis=2)
        return zonotope_part + box_part

    def _generator_inverse(self) -> np.ndarray:
        """The inverse error matrices ``(B, n, n)``, or their diagonals
        ``(B, n)`` after an axis-aligned consolidation."""
        if self._generators.shape[1:] != (self.dim, self.dim):
            raise ImproperZonotopeError(
                "containment check requires the outer batch to be proper "
                f"(square error matrices); got shape {self._generators.shape[1:]}"
            )
        if self._inverse_cache is None:
            self._inverse_cache = _batched_inverse(self._generators, context="error matrix")
        return self._inverse_cache

    # ------------------------------------------------------------------
    # Misc utilities
    # ------------------------------------------------------------------

    def compress(self) -> "BatchedCHZonotope":
        """Drop generator columns that are zero across the whole batch."""
        if self.num_generators == 0:
            return self
        keep = np.abs(self._generators).sum(axis=(0, 1)) > 0
        if np.all(keep):
            return self
        return type(self)(self._center, self._generators[:, :, keep], self._box)

    def relu_slopes(self, slope_delta: float) -> np.ndarray:
        """Minimum-area slopes shifted by ``slope_delta`` (slope optimisation)."""
        lower, upper = self.concretize_bounds()
        return np.clip(default_slopes(lower, upper) + slope_delta, 0.0, 1.0)

    def _coerce(self, other: "BatchedCHZonotope") -> "BatchedCHZonotope":
        if not isinstance(other, BatchedCHZonotope):
            raise DomainError(f"expected a BatchedCHZonotope, got {type(other).__name__}")
        if other.batch_size != self.batch_size or other.dim != self.dim:
            raise DimensionMismatchError(
                f"batch/dimension mismatch: ({self.batch_size}, {self.dim}) vs "
                f"({other.batch_size}, {other.dim})"
            )
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BatchedCHZonotope(batch={self.batch_size}, dim={self.dim}, "
            f"k={self.num_generators})"
        )


def box_center_radius(lower, upper) -> Tuple[np.ndarray, np.ndarray]:
    """Centres and radii of the boxes ``[lower_i, upper_i]``, computed as
    :class:`~repro.domains.interval.Interval` computes them row by row."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.ndim != 2 or lower.shape != upper.shape:
        raise DomainError(
            f"bounds must share a (batch, dim) shape, got {lower.shape} / {upper.shape}"
        )
    if np.any(lower > upper + 1e-12):
        raise DomainError("Interval lower bounds must not exceed upper bounds")
    upper = np.maximum(upper, lower)
    return 0.5 * (lower + upper), 0.5 * (upper - lower)


def stack_parts(
    stacks: Sequence, which, rows: np.ndarray
) -> Iterator[Tuple[np.ndarray, object, np.ndarray]]:
    """``(destination rows, stack, source rows)`` for every stack a gather
    reads: output row ``j`` is row ``rows[j]`` of ``stacks[which[j]]``."""
    if len(stacks) == 1:
        yield np.arange(rows.size), stacks[0], rows
        return
    which = np.asarray(which)
    for index, stack in enumerate(stacks):
        destination = np.nonzero(which == index)[0]
        if destination.size:
            yield destination, stack, rows[destination]


def _is_identity(basis: np.ndarray) -> bool:
    """Whether every ``(n, n)`` matrix of the stack is the identity."""
    return bool((basis == np.eye(basis.shape[-1])).all())


def _batched_inverse(matrices: np.ndarray, context: str) -> np.ndarray:
    try:
        return np.linalg.inv(matrices)
    except np.linalg.LinAlgError as exc:
        raise ImproperZonotopeError(f"{context} is singular and cannot be inverted") from exc
