"""Common interface of all abstract elements.

The fixpoint abstract-interpretation core (:mod:`repro.core`) is written
against this interface so that the contraction-based termination criterion
(Theorem 3.1), the Kleene baseline and the Craft verifier are domain
agnostic, exactly as stated in the paper ("our method can be instantiated
with any abstract domain").
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np


class AbstractElement(abc.ABC):
    """An abstract element over-approximating a set of points in R^p.

    Concrete subclasses are :class:`~repro.domains.interval.Interval`,
    :class:`~repro.domains.zonotope.Zonotope` and
    :class:`~repro.domains.chzonotope.CHZonotope`.
    All elements are immutable: every transformer returns a new element.
    """

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Dimension ``p`` of the concretised space."""

    @property
    @abc.abstractmethod
    def center(self) -> np.ndarray:
        """A point guaranteed to lie inside the concretisation."""

    @abc.abstractmethod
    def concretize_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return element-wise ``(lower, upper)`` bounds of the concretisation."""

    @abc.abstractmethod
    def affine(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> "AbstractElement":
        """Abstract transformer of ``x -> weight @ x + bias``."""

    @abc.abstractmethod
    def relu(
        self, slopes: Optional[np.ndarray] = None, pass_through: Optional[np.ndarray] = None
    ) -> "AbstractElement":
        """Abstract transformer of the element-wise ReLU.

        ``slopes`` optionally fixes the relaxation slope ``lambda`` per
        dimension (used by the slope-optimisation phase of Craft); ``None``
        uses the minimum-area choice ``lambda = u / (u - l)``.
        ``pass_through`` is a boolean mask selecting dimensions that are
        mapped by the identity instead (the input block of joint-space
        solver states).
        """

    @abc.abstractmethod
    def scale(self, factor: float) -> "AbstractElement":
        """Abstract transformer of ``x -> factor * x``."""

    @abc.abstractmethod
    def translate(self, offset: np.ndarray) -> "AbstractElement":
        """Abstract transformer of ``x -> x + offset``."""

    @abc.abstractmethod
    def sum(self, other: "AbstractElement") -> "AbstractElement":
        """Minkowski sum with another element of the same type and dimension."""

    @abc.abstractmethod
    def contains_point(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        """Return ``True`` when ``point`` lies in the concretisation."""

    @abc.abstractmethod
    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``count`` points drawn from the concretisation (shape ``(count, dim)``)."""

    # ------------------------------------------------------------------
    # Derived conveniences shared by all domains.
    # ------------------------------------------------------------------

    @property
    def width(self) -> np.ndarray:
        """Element-wise width ``upper - lower`` of the concretisation."""
        lower, upper = self.concretize_bounds()
        return upper - lower

    @property
    def mean_width(self) -> float:
        """Mean concretisation width — the precision proxy used in Fig. 13."""
        return float(np.mean(self.width))

    @property
    def max_width(self) -> float:
        """Maximum concretisation width, used by the divergence-abort heuristic."""
        return float(np.max(self.width)) if self.dim else 0.0

    def contains_points(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Vectorised :meth:`contains_point` over rows of ``points``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.array([self.contains_point(point, tol=tol) for point in points])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        lower, upper = self.concretize_bounds()
        return (
            f"{type(self).__name__}(dim={self.dim}, "
            f"mean_width={float(np.mean(upper - lower)):.4g})"
        )
