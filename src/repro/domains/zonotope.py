"""The standard Zonotope abstract domain (Ghorbal et al. 2009; Singh et al. 2018).

A zonotope is an affine image of a hypercube::

    Z = { a + A nu | nu in [-1, 1]^k }

with centre ``a`` in R^p and error (generator) matrix ``A`` in R^{p x k}.
Affine transformers are exact; the ReLU transformer follows the
minimum-area relaxation of Singh et al. 2018 (see :mod:`repro.domains.relu`).

The paper uses this domain for

* the running example (Fig. 2),
* the Kleene-iteration baseline and the square-root case study (Section 6.5),
* the "unsound Zonotope" comparison of Fig. 20, and
* as the substrate on which CH-Zonotope is built.

Exact zonotope-in-zonotope containment is co-NP-complete (Kulmburg &
Althoff 2021); the approximate LP check of Sadraddini & Tedrake lives in
:mod:`repro.domains.containment`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.domains.base import AbstractElement
from repro.domains.interval import Interval
from repro.domains.relu import relu_relaxation
from repro.exceptions import DimensionMismatchError, DomainError
from repro.utils.validation import ensure_matrix, ensure_vector


class Zonotope(AbstractElement):
    """Zonotope ``{ a + A nu | nu in [-1, 1]^k }``."""

    __slots__ = ("_center", "_generators")

    def __init__(self, center, generators=None):
        center = ensure_vector(center, "center")
        if generators is None:
            generators = np.zeros((center.shape[0], 0))
        generators = ensure_matrix(generators, "generators", rows=center.shape[0])
        self._center = center
        self._generators = generators

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_point(cls, point) -> "Zonotope":
        """Degenerate zonotope containing exactly ``point``."""
        point = ensure_vector(point, "point")
        return cls(point, np.zeros((point.shape[0], 0)))

    @classmethod
    def from_interval(cls, interval: Interval) -> "Zonotope":
        """Zonotope with one axis-aligned generator per non-degenerate dimension."""
        radius = interval.radius
        nonzero = np.nonzero(radius > 0)[0]
        generators = np.zeros((interval.dim, nonzero.shape[0]))
        for column, axis in enumerate(nonzero):
            generators[axis, column] = radius[axis]
        return cls(interval.center, generators)

    @classmethod
    def from_center_radius(cls, center, radius) -> "Zonotope":
        """Zonotope form of the box ``center +/- radius``."""
        center = ensure_vector(center, "center")
        return cls.from_interval(Interval.from_center_radius(center, radius))

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
        """Error-coefficient matrix ``A`` of shape ``(p, k)`` (copy)."""
        return self._generators.copy()

    @property
    def num_generators(self) -> int:
        """Number of error terms ``k``."""
        return self._generators.shape[1]

    @property
    def order(self) -> float:
        """Zonotope order ``k / p`` (Kopetzki et al. 2017)."""
        return self.num_generators / max(self.dim, 1)

    # ------------------------------------------------------------------
    # AbstractElement interface
    # ------------------------------------------------------------------

    def concretize_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        radius = np.abs(self._generators).sum(axis=1)
        return self._center - radius, self._center + radius

    def to_interval(self) -> Interval:
        """Interval hull of the zonotope."""
        lower, upper = self.concretize_bounds()
        return Interval(lower, upper)

    def affine(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> "Zonotope":
        weight = np.asarray(weight, dtype=float)
        if weight.ndim != 2 or weight.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"weight must have shape (m, {self.dim}), got {weight.shape}"
            )
        center = weight @ self._center
        if bias is not None:
            center = center + ensure_vector(bias, "bias", dim=weight.shape[0])
        return Zonotope(center, weight @ self._generators)

    def relu(
        self, slopes: Optional[np.ndarray] = None, pass_through: Optional[np.ndarray] = None
    ) -> "Zonotope":
        lower, upper = self.concretize_bounds()
        relaxation = relu_relaxation(lower, upper, slopes, pass_through=pass_through)
        center = relaxation.slopes * self._center + relaxation.offsets
        generators = relaxation.slopes[:, None] * self._generators
        new_columns = np.nonzero(relaxation.new_errors > 0)[0]
        if new_columns.size:
            fresh = np.zeros((self.dim, new_columns.size))
            for column, axis in enumerate(new_columns):
                fresh[axis, column] = relaxation.new_errors[axis]
            generators = np.hstack([generators, fresh])
        return Zonotope(center, generators)

    def scale(self, factor: float) -> "Zonotope":
        factor = float(factor)
        return Zonotope(factor * self._center, factor * self._generators)

    def translate(self, offset: np.ndarray) -> "Zonotope":
        offset = ensure_vector(offset, "offset", dim=self.dim)
        return Zonotope(self._center + offset, self._generators)

    def sum(self, other: "Zonotope") -> "Zonotope":
        other = self._coerce(other)
        return Zonotope(
            self._center + other._center,
            np.hstack([self._generators, other._generators]),
        )

    def sum_aligned(self, other: "Zonotope") -> "Zonotope":
        """Sum over shared error symbols.

        The ``k`` generator columns of ``other`` are the same error symbols
        as the first ``k`` columns of ``self``, so their coefficients add
        (the exact sum of two affine forms) instead of concatenating as in
        :meth:`sum`.
        """
        other = self._coerce(other)
        k = other.num_generators
        if k > self.num_generators:
            raise DomainError(
                f"cannot align {k} error symbols with {self.num_generators} columns"
            )
        generators = self._generators.copy()
        generators[:, :k] += other._generators
        return Zonotope(self._center + other._center, generators)

    def pad_leading(self, count: int) -> "Zonotope":
        """Prepend ``count`` zero generator columns (the set is unchanged)."""
        padding = np.zeros((self.dim, count))
        return Zonotope(self._center, np.hstack([padding, self._generators]))

    def contains_point(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        """Membership test via a small linear program (least-norm solve).

        Membership means there is ``nu`` with ``||nu||_inf <= 1`` and
        ``A nu = point - a``.  We solve the minimum-infinity-norm problem via
        :func:`scipy.optimize.linprog`; for the degenerate generator-free
        case it reduces to an equality check.

        The system is rescaled to O(1) magnitudes before it reaches the LP
        solver: HiGHS drops matrix coefficients below its small-value
        tolerance, so a tiny-but-consistent system (e.g. generators of
        magnitude 1e-9) would otherwise be reported as infeasible.  The
        equality constraints additionally carry a ``tol`` slack per
        coordinate, so points within ``tol`` of the zonotope are accepted
        even when the residual does not lie exactly in the generator span
        (floating-point round-off after affine transformers).
        """
        point = ensure_vector(point, "point", dim=self.dim)
        residual = point - self._center
        if self.num_generators == 0 or np.all(np.abs(residual) <= tol):
            return bool(np.all(np.abs(residual) <= tol))
        radius = np.abs(self._generators).sum(axis=1)
        if np.any(np.abs(residual) > radius + tol):
            return False
        from scipy.optimize import linprog

        k = self.num_generators
        scale = max(float(np.abs(self._generators).max()), float(np.abs(residual).max()))
        generators = self._generators / scale
        rhs = residual / scale
        slack = max(tol / scale, 1e-12)
        # Variables: nu (k), t (1). Minimise t subject to
        # |A nu - residual| <= slack (element-wise), -t <= nu_i <= t.
        p = self.dim
        c = np.zeros(k + 1)
        c[-1] = 1.0
        a_ub = np.zeros((2 * p + 2 * k, k + 1))
        a_ub[:p, :k] = generators
        a_ub[p : 2 * p, :k] = -generators
        a_ub[2 * p : 2 * p + k, :k] = np.eye(k)
        a_ub[2 * p : 2 * p + k, -1] = -1.0
        a_ub[2 * p + k :, :k] = -np.eye(k)
        a_ub[2 * p + k :, -1] = -1.0
        b_ub = np.concatenate([rhs + slack, -rhs + slack, np.zeros(2 * k)])
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(None, None)] * k + [(0, None)],
            method="highs",
        )
        if not result.success:
            return False
        return bool(result.x[-1] <= 1.0 + tol)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        nu = rng.uniform(-1.0, 1.0, size=(count, self.num_generators))
        return self._center[None, :] + nu @ self._generators.T

    def sample_vertices(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample extreme points (``nu`` in ``{-1, +1}^k``), useful for
        falsifying containment claims in tests."""
        nu = rng.choice([-1.0, 1.0], size=(count, self.num_generators))
        return self._center[None, :] + nu @ self._generators.T

    # ------------------------------------------------------------------
    # Lattice-ish operations used by the Kleene baseline
    # ------------------------------------------------------------------

    def join(self, other: "Zonotope") -> "Zonotope":
        """A sound quasi-join (Gange et al. 2013): the smallest *box-shaped*
        zonotope containing both operands, with preserved shared centre
        direction.

        Zonotopes do not form a lattice; any upper bound is sound for Kleene
        iteration.  We use the interval hull enriched with one generator for
        the centre difference, which is cheap, sound, and (as the paper
        argues) still illustrates the inherent imprecision of joining
        iteration states.
        """
        other = self._coerce(other)
        hull = self.to_interval().join(other.to_interval())
        return Zonotope.from_interval(hull)

    def widen(self, other: "Zonotope", threshold: float = 1e6) -> "Zonotope":
        """Interval-style widening on the concretisation bounds."""
        other = self._coerce(other)
        widened = self.to_interval().widen(other.to_interval(), threshold=threshold)
        return Zonotope.from_interval(widened)

    def is_subset_of_box(self, box: Interval, tol: float = 1e-9) -> bool:
        """Exact check that the zonotope lies inside an axis-aligned box."""
        lower, upper = self.concretize_bounds()
        return bool(
            np.all(lower >= box.lower - tol) and np.all(upper <= box.upper + tol)
        )

    def remove_zero_generators(self, tol: float = 0.0) -> "Zonotope":
        """Drop generator columns whose norm is ``<= tol``."""
        if self.num_generators == 0:
            return self
        norms = np.abs(self._generators).sum(axis=0)
        keep = norms > tol
        return Zonotope(self._center, self._generators[:, keep])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Zonotope):
            return NotImplemented
        return bool(
            np.allclose(self._center, other._center)
            and self._generators.shape == other._generators.shape
            and np.allclose(self._generators, other._generators)
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("Zonotope elements are mutable-value objects and unhashable")

    def _coerce(self, other: "Zonotope") -> "Zonotope":
        if not isinstance(other, Zonotope):
            raise DomainError(f"expected a Zonotope, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return other


def minkowski_sum(elements: Iterable[Zonotope]) -> Zonotope:
    """Minkowski sum of a non-empty iterable of zonotopes."""
    elements = list(elements)
    if not elements:
        raise DomainError("minkowski_sum requires at least one element")
    result = elements[0]
    for element in elements[1:]:
        result = result.sum(element)
    return result
