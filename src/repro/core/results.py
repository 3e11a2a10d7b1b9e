"""Result types returned by the fixpoint abstract-interpretation engines."""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, field
from typing import List, Optional

import numpy as np

from repro.domains.base import AbstractElement


class VerificationOutcome(enum.Enum):
    """Outcome of a single verification query.

    ``VERIFIED``
        The postcondition was proven for every point of the precondition.
    ``UNKNOWN``
        A sound fixpoint abstraction was found but the postcondition could
        not be shown (the verifier is incomplete, Section 5.2).
    ``NO_CONTAINMENT``
        Phase one never detected contraction (Theorem 3.1 precondition not
        met), so no sound fixpoint abstraction exists for this query.
    ``DIVERGED``
        The abstract iteration exceeded the divergence-abort width
        (Appendix C, "Abortion Heuristics").
    ``MISCLASSIFIED``
        The concrete network already misclassifies the centre input, so
        the robustness property is trivially false.
    """

    VERIFIED = "verified"
    UNKNOWN = "unknown"
    NO_CONTAINMENT = "no_containment"
    DIVERGED = "diverged"
    MISCLASSIFIED = "misclassified"


@dataclass
class PostconditionCheck:
    """Result of evaluating a postcondition on an output abstraction.

    Attributes
    ----------
    holds:
        Whether the postcondition is proven on the abstraction.
    margin:
        A real-valued margin; positive values prove the property and the
        magnitude measures slack (used by the adaptive-alpha line search and
        the abort heuristic).
    lower_bounds:
        Optional per-constraint lower bounds (e.g. logit differences),
        recorded for Fig. 20-style analyses.
    """

    holds: bool
    margin: float
    lower_bounds: Optional[np.ndarray] = None


@dataclass
class ContractionResult:
    """Result of the phase-one contraction search (Theorem 3.1 / B.1)."""

    contained: bool
    state: AbstractElement
    reference: Optional[AbstractElement]
    iterations: int
    consolidations: int
    width_trace: List[float] = field(default_factory=list)
    diverged: bool = False
    #: Largest error-term count any iterate reached (0 for basis-free domains).
    peak_error_terms: int = 0

    @property
    def mean_width(self) -> float:
        """Mean concretisation width of the final state."""
        return self.state.mean_width


@dataclass
class KleeneResult:
    """Result of the Kleene-iteration baseline."""

    converged: bool
    state: AbstractElement
    iterations: int
    joins: int
    widenings: int
    width_trace: List[float] = field(default_factory=list)
    diverged: bool = False


class StackRow:
    """Row ``row`` of a batched stack, standing in for the sequential element
    it holds until a result's element is first read.

    A pickled (or deep-copied) reference carries only its own row, as a
    one-row stack, never the stack it points into.
    """

    __slots__ = ("stack", "row")

    def __init__(self, stack, row: int):
        self.stack = stack
        self.row = row

    def element(self) -> AbstractElement:
        return self.stack.element(self.row)

    def __reduce__(self):
        return StackRow, (self.stack.select([self.row]), 0)


class _ElementField:
    """A dataclass field holding an abstract element or a :class:`StackRow`.

    The first read of a :class:`StackRow` builds the element with the
    domain's validating constructor and caches it in place; the batched
    engine stores references so that elements nobody reads are never built.
    ``dataclasses.replace``, ``==`` and ``repr`` read the field, so they
    build it too.
    """

    def __init__(self, default=MISSING):
        self._default = default

    def __set_name__(self, owner, name):
        self._slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            if self._default is MISSING:
                raise AttributeError(self._slot[1:])
            return self._default
        value = obj.__dict__[self._slot]
        if isinstance(value, StackRow):
            value = obj.__dict__[self._slot] = value.element()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._slot] = value


@dataclass
class FixpointAbstraction:
    """A sound abstraction of the true fixpoint set plus provenance data."""

    element: AbstractElement = _ElementField()
    contained: bool
    iterations_phase1: int
    iterations_phase2: int
    width_trace_phase1: List[float] = field(default_factory=list)
    width_trace_phase2: List[float] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return self.iterations_phase1 + self.iterations_phase2


@dataclass
class VerificationResult:
    """Full result of one Craft verification query (Algorithm 1)."""

    outcome: VerificationOutcome
    contained: bool
    certified: bool
    margin: float
    iterations_phase1: int
    iterations_phase2: int
    time_seconds: float
    selected_alpha2: Optional[float] = None
    selected_solver2: Optional[str] = None
    slope_optimized: bool = False
    fixpoint_abstraction: Optional[FixpointAbstraction] = None
    output_element: Optional[AbstractElement] = _ElementField(default=None)
    notes: str = ""
    #: Abstract domain that produced this verdict.  For escalation-ladder
    #: sweeps this is the *resolving* stage (the domain the query exited
    #: the waterfall in); for single-domain sweeps it is that domain.
    stage: Optional[str] = None
    #: Set by :meth:`repro.engine.cache.TieredVerdictCache.lookup` on
    #: replayed verdicts (the ``[cached]`` notes suffix is the
    #: human-readable echo).
    cached: bool = False
    #: ``"disk"`` for a verdict replayed from the on-disk verdict cache,
    #: ``None`` for live verdicts.
    cache_tier: Optional[str] = None
    #: Peak error-term (generator-column) count observed across both Craft
    #: phases.  ``None`` for verdicts that never ran the abstract analysis
    #: (misclassification short-circuits).  In the batched engines this is
    #: the padded stack width the sample actually streamed.
    peak_error_terms: Optional[int] = None

    @property
    def verified(self) -> bool:
        """Alias used throughout the experiment harness."""
        return self.outcome is VerificationOutcome.VERIFIED

    @property
    def from_cache(self) -> bool:
        """Whether this result was replayed from the on-disk fixpoint cache."""
        return self.cached

    def summary(self) -> str:
        """One-line human-readable summary used by the example scripts."""
        return (
            f"{self.outcome.value:>15} | contained={self.contained} | "
            f"margin={self.margin:+.4f} | iters={self.iterations_phase1}+{self.iterations_phase2} | "
            f"{self.time_seconds:.2f}s"
        )
