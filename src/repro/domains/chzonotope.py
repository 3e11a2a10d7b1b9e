"""The CH-Zonotope (Containing-Hybrid-Zonotope) abstract domain — Section 4.

A CH-Zonotope extends the Zonotope domain with a separate Box error
component::

    Z = { a + A nu + diag(b) eta | nu in [-1, 1]^k, eta in [-1, 1]^p }

with centre ``a`` in R^p, error matrix ``A`` in R^{p x k} and non-negative
Box error vector ``b`` in R^p.  When ``A`` is square (``k = p``) and
invertible the element is called *proper*; properness is what enables the
paper's two key operations:

* **Error consolidation** (Theorem 4.1): over-approximate an improper
  element by a proper one whose error matrix is ``diag(c) @ basis`` with
  consolidation coefficients ``c = |basis^-1 A| 1``, optionally *expanded*
  by ``(1 + w_mul)`` and ``w_add`` (Eq. 10) to help the contraction check.
* **Inclusion check** (Theorem 4.2): a sound O(p^2 (p + k)) test whether an
  improper CH-Zonotope is contained in a proper one — the operation that
  makes the contraction-based termination criterion (Theorem 3.1) tractable
  in high dimensions.

The transformers mirror the paper: affine maps cast the Box errors into
Zonotope errors (yielding an improper element with zero Box component),
while the ReLU transformer writes its fresh error terms into the Box
component, keeping the number of Zonotope error terms constant between
consolidations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.domains.base import AbstractElement
from repro.domains.interval import Interval
from repro.domains.relu import relu_relaxation
from repro.domains.zonotope import Zonotope
from repro.exceptions import DimensionMismatchError, DomainError, ImproperZonotopeError
from repro.utils.linalg import pca_basis, safe_inverse
from repro.utils.validation import ensure_matrix, ensure_nonnegative_vector, ensure_vector


class CHZonotope(AbstractElement):
    """CH-Zonotope ``{ a + A nu + diag(b) eta }`` (Eq. 3 of the paper)."""

    __slots__ = ("_center", "_generators", "_box", "_inverse_cache")

    def __init__(self, center, generators=None, box=None):
        center = ensure_vector(center, "center")
        dim = center.shape[0]
        if generators is None:
            generators = np.zeros((dim, 0))
        generators = ensure_matrix(generators, "generators", rows=dim)
        if box is None:
            box = np.zeros(dim)
        box = ensure_nonnegative_vector(box, "box", dim=dim)
        self._center = center
        self._generators = generators
        self._box = box
        self._inverse_cache = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_point(cls, point) -> "CHZonotope":
        """Degenerate CH-Zonotope containing exactly ``point``."""
        point = ensure_vector(point, "point")
        return cls(point, np.zeros((point.shape[0], 0)), np.zeros(point.shape[0]))

    @classmethod
    def from_interval(cls, interval: Interval) -> "CHZonotope":
        """CH-Zonotope whose Zonotope component is the diagonal of the box radius.

        The radius is stored in the Zonotope (not the Box) component so that
        the input region keeps its relational identity through affine layers.
        """
        radius = interval.radius
        return cls(interval.center, np.diag(radius), np.zeros(interval.dim))

    @classmethod
    def from_center_radius(cls, center, radius) -> "CHZonotope":
        """CH-Zonotope form of the box ``center +/- radius``."""
        return cls.from_interval(Interval.from_center_radius(center, radius))

    @classmethod
    def from_zonotope(cls, zonotope: Zonotope) -> "CHZonotope":
        """Lift a standard zonotope (zero Box component)."""
        return cls(zonotope.center, zonotope.generators, np.zeros(zonotope.dim))

    # ------------------------------------------------------------------
    # Representation accessors
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._center.shape[0]

    @property
    def center(self) -> np.ndarray:
        return self._center.copy()

    @property
    def generators(self) -> np.ndarray:
        """Zonotope error matrix ``A`` of shape ``(p, k)`` (copy)."""
        return self._generators.copy()

    @property
    def box(self) -> np.ndarray:
        """Box error vector ``b`` of shape ``(p,)`` (copy)."""
        return self._box.copy()

    @property
    def num_generators(self) -> int:
        """Number of Zonotope error terms ``k``."""
        return self._generators.shape[1]

    @property
    def is_proper(self) -> bool:
        """``True`` when ``A`` is square and (numerically) invertible."""
        if self._generators.shape != (self.dim, self.dim):
            return False
        return bool(np.linalg.matrix_rank(self._generators) == self.dim)

    @property
    def has_box_component(self) -> bool:
        """``True`` when the Box error vector is not identically zero."""
        return bool(np.any(self._box > 0))

    def decompose(self) -> Tuple[Zonotope, Interval]:
        """Split into the Zonotope component and the centred Box component."""
        zonotope = Zonotope(self._center, self._generators)
        box = Interval.from_center_radius(np.zeros(self.dim), self._box)
        return zonotope, box

    def to_zonotope(self) -> Zonotope:
        """Cast the Box errors into fresh generator columns (exact rewrite)."""
        nonzero = np.nonzero(self._box > 0)[0]
        extra = np.zeros((self.dim, nonzero.shape[0]))
        for column, axis in enumerate(nonzero):
            extra[axis, column] = self._box[axis]
        return Zonotope(self._center, np.hstack([self._generators, extra]))

    def to_interval(self) -> Interval:
        """Interval hull of the concretisation."""
        lower, upper = self.concretize_bounds()
        return Interval(lower, upper)

    # ------------------------------------------------------------------
    # AbstractElement interface
    # ------------------------------------------------------------------

    def concretize_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        radius = np.abs(self._generators).sum(axis=1) + self._box
        return self._center - radius, self._center + radius

    def affine(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> "CHZonotope":
        """Exact affine transformer.

        As in the paper, the Box errors are first cast as Zonotope errors
        (``A_hat = [A, diag(b)]``, ``b_hat = 0``); the result is therefore an
        improper CH-Zonotope with a zero Box component.
        """
        weight = np.asarray(weight, dtype=float)
        if weight.ndim != 2 or weight.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"weight must have shape (m, {self.dim}), got {weight.shape}"
            )
        as_zonotope = self.to_zonotope()
        center = weight @ as_zonotope.center
        if bias is not None:
            center = center + ensure_vector(bias, "bias", dim=weight.shape[0])
        return CHZonotope(center, weight @ as_zonotope.generators, np.zeros(weight.shape[0]))

    def relu(
        self, slopes: Optional[np.ndarray] = None, pass_through: Optional[np.ndarray] = None
    ) -> "CHZonotope":
        """ReLU transformer (Section 4, "Abstract Transformers").

        Fresh error terms from crossing neurons go into the Box component,
        keeping the Zonotope error count unchanged.  (The plain
        :meth:`Zonotope.relu` writes them as new generator columns: Table 4
        "No Box component".)  ``pass_through`` marks dimensions mapped by
        the identity (the input block of joint solver states).
        """
        lower, upper = self.concretize_bounds()
        relaxation = relu_relaxation(lower, upper, slopes, pass_through=pass_through)
        center = relaxation.slopes * self._center + relaxation.offsets
        generators = relaxation.slopes[:, None] * self._generators
        box = relaxation.slopes * self._box + relaxation.new_errors
        return CHZonotope(center, generators, box)

    def scale(self, factor: float) -> "CHZonotope":
        factor = float(factor)
        return CHZonotope(
            factor * self._center, factor * self._generators, abs(factor) * self._box
        )

    def translate(self, offset: np.ndarray) -> "CHZonotope":
        offset = ensure_vector(offset, "offset", dim=self.dim)
        return CHZonotope(self._center + offset, self._generators, self._box)

    def sum(self, other: "CHZonotope") -> "CHZonotope":
        """Minkowski sum: generator columns concatenate, Box radii add."""
        other = self._coerce(other)
        return CHZonotope(
            self._center + other._center,
            np.hstack([self._generators, other._generators]),
            self._box + other._box,
        )

    def sum_aligned(self, other: "CHZonotope") -> "CHZonotope":
        """Sum over shared error symbols.

        The ``k`` generator columns of ``other`` are the same error symbols
        as the first ``k`` columns of ``self``, so their coefficients add
        (the exact sum of two affine forms) instead of concatenating as in
        :meth:`sum`.  Box radii add as in :meth:`sum`: Box errors are never
        shared.
        """
        other = self._coerce(other)
        k = other.num_generators
        if k > self.num_generators:
            raise DomainError(
                f"cannot align {k} error symbols with {self.num_generators} columns"
            )
        generators = self._generators.copy()
        generators[:, :k] += other._generators
        return CHZonotope(self._center + other._center, generators, self._box + other._box)

    def pad_leading(self, count: int) -> "CHZonotope":
        """Prepend ``count`` zero generator columns (the set is unchanged)."""
        padding = np.zeros((self.dim, count))
        return CHZonotope(self._center, np.hstack([padding, self._generators]), self._box)

    def contains_point(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        """Exact membership test (via the equivalent standard zonotope)."""
        return self.to_zonotope().contains_point(point, tol=tol)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        nu = rng.uniform(-1.0, 1.0, size=(count, self.num_generators))
        eta = rng.uniform(-1.0, 1.0, size=(count, self.dim))
        return (
            self._center[None, :]
            + nu @ self._generators.T
            + eta * self._box[None, :]
        )

    def sample_vertices(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample extreme points (all error terms at ±1), used to falsify
        unsound containment claims in tests."""
        nu = rng.choice([-1.0, 1.0], size=(count, self.num_generators))
        eta = rng.choice([-1.0, 1.0], size=(count, self.dim))
        return (
            self._center[None, :]
            + nu @ self._generators.T
            + eta * self._box[None, :]
        )

    # ------------------------------------------------------------------
    # Error consolidation — Theorem 4.1 and Eq. (10)
    # ------------------------------------------------------------------

    def consolidate(
        self,
        basis: Optional[np.ndarray] = None,
        w_mul: float = 0.0,
        w_add: float = 0.0,
    ) -> "CHZonotope":
        """Over-approximate this element by a *proper* CH-Zonotope.

        Parameters
        ----------
        basis:
            Invertible ``(p, p)`` matrix used as the new error basis
            ``A_tilde``.  ``None`` selects the PCA basis of the current
            error matrix (Kopetzki et al. 2017), which the paper found to
            give the tightest approximations at tractable cost.
        w_mul, w_add:
            Expansion parameters of Eq. (10).  The consolidation
            coefficients become ``c = (1 + w_mul) |basis^-1 A| 1 + w_add``,
            which strictly enlarges the element and, counter-intuitively,
            makes detecting contraction easier (Section 5.2, "Expansion").

        Returns
        -------
        CHZonotope
            A proper element with error matrix ``diag(c) @ basis``; the Box
            component and the centre are unchanged (Theorem 4.1).
        """
        if w_mul < 0 or w_add < 0:
            raise DomainError("expansion parameters must be non-negative")
        if basis is None:
            basis = self.pca_basis()
        basis = ensure_matrix(basis, "basis", rows=self.dim, cols=self.dim)
        basis_inverse = safe_inverse(basis, context="consolidation basis")
        if self.num_generators:
            coefficients = np.abs(basis_inverse @ self._generators).sum(axis=1)
        else:
            coefficients = np.zeros(self.dim)
        coefficients = (1.0 + w_mul) * coefficients + w_add
        # Guard against an exactly singular new error matrix: a proper
        # CH-Zonotope needs strictly positive coefficients in every basis
        # direction.  A tiny floor keeps the element proper without
        # affecting precision (it only ever enlarges the set).
        floor = max(w_add, 1e-12)
        coefficients = np.maximum(coefficients, floor)
        # A' = basis @ diag(c): scale each new error *direction* (column of the
        # basis) by its consolidation coefficient (Theorem 4.1).
        new_generators = basis * coefficients[None, :]
        return CHZonotope(self._center, new_generators, self._box)

    def pca_basis(self) -> np.ndarray:
        """PCA basis of the current error matrix (identity if there is none)."""
        if self.num_generators == 0 or not np.any(self._generators):
            return np.eye(self.dim)
        return pca_basis(self._generators)

    # ------------------------------------------------------------------
    # Inclusion check — Theorem 4.2
    # ------------------------------------------------------------------

    def contains(self, other: "CHZonotope", tol: float = 1e-9) -> bool:
        """Sound (but incomplete) check that ``other`` is contained in ``self``.

        ``self`` must be proper.  Following Theorem 4.2, containment holds if

            |A^-1 A'| 1 + |A^-1 diag(max(0, |a' - a| + b' - b))| 1  <=  1

        element-wise, where unprimed quantities belong to ``self`` (the outer
        element) and primed ones to ``other`` (the inner element).

        Raises
        ------
        ImproperZonotopeError
            If ``self`` is not a proper CH-Zonotope.
        """
        other = self._coerce(other)
        margins = self.containment_margin(other)
        return bool(np.all(margins <= 1.0 + tol))

    def containment_margin(self, other: "CHZonotope") -> np.ndarray:
        """Element-wise left-hand side of the Theorem 4.2 condition.

        Values ``<= 1`` in every component mean containment is proven; the
        maximum entry is a useful diagnostic of "how far" from containment
        the iteration currently is (used by Fig. 18's precision study).
        """
        other = self._coerce(other)
        inverse = self._generator_inverse()
        if other.num_generators:
            zonotope_part = np.abs(inverse @ other._generators).sum(axis=1)
        else:
            zonotope_part = np.zeros(self.dim)
        residual = np.maximum(
            0.0, np.abs(other._center - self._center) + other._box - self._box
        )
        box_part = np.abs(inverse * residual[None, :]).sum(axis=1)
        return zonotope_part + box_part

    def _generator_inverse(self) -> np.ndarray:
        """Inverse of the (proper) error matrix, cached per element."""
        if self._generators.shape != (self.dim, self.dim):
            raise ImproperZonotopeError(
                "containment check requires the outer CH-Zonotope to be proper "
                f"(square error matrix); got shape {self._generators.shape}"
            )
        if self._inverse_cache is None:
            self._inverse_cache = safe_inverse(self._generators, context="error matrix")
        return self._inverse_cache

    # ------------------------------------------------------------------
    # Lattice-ish operations (used only by the Kleene baseline)
    # ------------------------------------------------------------------

    def join(self, other: "CHZonotope") -> "CHZonotope":
        """Sound quasi-join preserving shared error symbols.

        When both operands use the same number of Zonotope error terms they
        are interpreted as sharing those symbols (as is the case for the
        Kleene baseline, where the input symbols persist across iterations):
        the joined element keeps, per entry, the sign-consistent minimal
        coefficient and covers the remaining deviation of either operand
        with its Box component (Goubault & Putot 2008 style).  Otherwise the
        interval hull is returned.  Either way the result's concretisation
        contains both operands' (CH-Zonotopes are not a lattice, so this is
        a quasi-join in the sense of Gange et al. 2013).
        """
        other = self._coerce(other)
        if self.num_generators != other.num_generators:
            return CHZonotope.from_interval(self.to_interval().join(other.to_interval()))
        center = 0.5 * (self._center + other._center)
        same_sign = np.sign(self._generators) == np.sign(other._generators)
        kept = np.where(
            same_sign,
            np.sign(self._generators) * np.minimum(np.abs(self._generators), np.abs(other._generators)),
            0.0,
        )
        deviation_self = (
            np.abs(self._center - center)
            + np.abs(self._generators - kept).sum(axis=1)
            + self._box
        )
        deviation_other = (
            np.abs(other._center - center)
            + np.abs(other._generators - kept).sum(axis=1)
            + other._box
        )
        return CHZonotope(center, kept, np.maximum(deviation_self, deviation_other))

    def widen(self, other: "CHZonotope", threshold: float = 1e6) -> "CHZonotope":
        """Interval-style widening on the concretisation bounds."""
        other = self._coerce(other)
        widened = self.to_interval().widen(other.to_interval(), threshold=threshold)
        return CHZonotope.from_interval(widened)

    # ------------------------------------------------------------------
    # Misc utilities
    # ------------------------------------------------------------------

    def enlarge_box(self, amount) -> "CHZonotope":
        """Return a copy with the Box radii enlarged by ``amount`` (>= 0)."""
        amount = np.broadcast_to(np.asarray(amount, dtype=float), (self.dim,))
        if np.any(amount < 0):
            raise DomainError("enlarge_box requires a non-negative amount")
        return CHZonotope(self._center, self._generators, self._box + amount)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CHZonotope):
            return NotImplemented
        return bool(
            np.allclose(self._center, other._center)
            and self._generators.shape == other._generators.shape
            and np.allclose(self._generators, other._generators)
            and np.allclose(self._box, other._box)
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("CHZonotope elements are mutable-value objects and unhashable")

    def _coerce(self, other: "CHZonotope") -> "CHZonotope":
        if not isinstance(other, CHZonotope):
            raise DomainError(f"expected a CHZonotope, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return other
