"""Pre- and postcondition specifications (Section 2 / Section 5.2).

The paper focuses on local l-infinity robustness: the precondition
``phi(x) = { x' : ||x - x'||_inf <= eps }`` (optionally intersected with the
valid input range) and the postcondition
``psi = h_t(x') - h_i(x') > 0 for all i != t`` (classification to class
``t``).  Both are represented here as small objects that can build abstract
elements / evaluate themselves on output abstractions, so Craft stays
independent of the concrete property being verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.results import PostconditionCheck
from repro.domains.base import AbstractElement
from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.zonotope import Zonotope
from repro.exceptions import VerificationError


def check_ball(epsilon: float, clip_min: Optional[float], clip_max: Optional[float]) -> None:
    """Raise :class:`VerificationError` unless the ball parameters are valid:
    a non-negative radius (``inf`` clips to the whole box) and no NaN, which
    would slip past every comparison into a region no engine can analyse."""
    if not epsilon >= 0:
        raise VerificationError(f"epsilon must be non-negative, got {epsilon}")
    for bound in (clip_min, clip_max):
        if bound is not None and math.isnan(bound):
            raise VerificationError("clip_min and clip_max must not be NaN")
    if clip_min is not None and clip_max is not None and clip_min > clip_max:
        raise VerificationError("clip_min must not exceed clip_max")


def check_input_dim(dim: int, input_dim: int) -> None:
    """Raise :class:`VerificationError` unless regions of dimension ``dim``
    fit a model with ``input_dim`` inputs."""
    if dim != input_dim:
        raise VerificationError(
            f"precondition dimension {dim} does not match the model input "
            f"dimension {input_dim}"
        )


def ball_bounds(
    centers: np.ndarray, epsilon: float, clip_min: Optional[float], clip_max: Optional[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Element-wise bounds of the clipped l-infinity ball(s) around ``centers``,
    one point or a ``(B, d)`` stack: each entry takes the same IEEE operations
    either way, so a stack's rows equal the per-ball bounds bit for bit."""
    lower = centers - epsilon
    upper = centers + epsilon
    if clip_min is not None:
        lower = np.maximum(lower, clip_min)
        upper = np.maximum(upper, clip_min)
    if clip_max is not None:
        lower = np.minimum(lower, clip_max)
        upper = np.minimum(upper, clip_max)
    return lower, upper


@dataclass(frozen=True)
class LinfBall:
    """The l-infinity ball precondition ``{ x' : ||x - x'||_inf <= epsilon }``.

    Attributes
    ----------
    center:
        The anchor input ``x``.
    epsilon:
        The perturbation radius.
    clip_min, clip_max:
        Optional valid input range (e.g. ``[0, 1]`` for images); the ball is
        intersected with it, matching the evaluation setting of the paper.
    """

    center: np.ndarray
    epsilon: float
    clip_min: Optional[float] = 0.0
    clip_max: Optional[float] = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(-1))
        check_ball(self.epsilon, self.clip_min, self.clip_max)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Element-wise bounds of the (clipped) ball."""
        return ball_bounds(self.center, self.epsilon, self.clip_min, self.clip_max)

    def to_interval(self) -> Interval:
        lower, upper = self.bounds()
        return Interval(lower, upper)

    def to_zonotope(self) -> Zonotope:
        return Zonotope.from_interval(self.to_interval())

    def to_chzonotope(self) -> CHZonotope:
        return CHZonotope.from_interval(self.to_interval())

    def to_parallelotope(self) -> "AbstractElement":
        from repro.domains.parallelotope import ParallelotopeZonotope

        return ParallelotopeZonotope.from_interval(self.to_interval())

    def to_element(self, domain: str) -> AbstractElement:
        """Build the precondition abstraction in the named domain."""
        builders = {
            "box": self.to_interval,
            "zonotope": self.to_zonotope,
            "parallelotope": self.to_parallelotope,
            "chzonotope": self.to_chzonotope,
        }
        try:
            return builders[domain]()
        except KeyError:
            raise VerificationError(f"unknown domain {domain!r}") from None

    def contains(self, point: np.ndarray) -> bool:
        """True when ``point`` lies inside the (clipped) ball."""
        return self.to_interval().contains_point(np.asarray(point, dtype=float).reshape(-1))


@dataclass(frozen=True)
class ClassificationSpec:
    """The postcondition "classified to class ``target``".

    Evaluating the spec on an output abstraction computes sound lower bounds
    of the logit differences ``y_target - y_i`` (via one exact affine
    transformer) and reports the minimum as the margin; the property is
    proven when the margin is strictly positive.
    """

    target: int
    num_classes: int

    def __post_init__(self):
        if not 0 <= self.target < self.num_classes:
            raise VerificationError(
                f"target class {self.target} out of range for {self.num_classes} classes"
            )
        if self.num_classes < 2:
            raise VerificationError("classification requires at least two classes")

    def difference_matrix(self) -> np.ndarray:
        """Matrix ``C`` with rows ``e_target - e_i`` for every ``i != target``."""
        rows = []
        for cls in range(self.num_classes):
            if cls == self.target:
                continue
            row = np.zeros(self.num_classes)
            row[self.target] = 1.0
            row[cls] = -1.0
            rows.append(row)
        return np.vstack(rows)

    def evaluate(self, output_element: AbstractElement) -> PostconditionCheck:
        """Check the postcondition on an abstraction of the network output."""
        if output_element.dim != self.num_classes:
            raise VerificationError(
                f"output abstraction has dimension {output_element.dim}, "
                f"expected {self.num_classes}"
            )
        differences = output_element.affine(self.difference_matrix())
        lower, _ = differences.concretize_bounds()
        margin = float(lower.min()) if lower.size else np.inf
        return PostconditionCheck(holds=margin > 0.0, margin=margin, lower_bounds=lower)

    def holds_concretely(self, logits: np.ndarray) -> bool:
        """Concrete counterpart, used for sanity checks and the attack harness."""
        logits = np.asarray(logits, dtype=float).reshape(-1)
        return bool(np.argmax(logits) == self.target)
