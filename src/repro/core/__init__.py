"""The paper's primary contribution: abstract interpretation of fixpoint iterators.

* :mod:`repro.core.contraction` — the contraction-based termination
  criterion of Theorem 3.1 (and its s-step variant, Theorem B.1) as a
  domain-agnostic engine.
* :mod:`repro.core.expansion` — the expansion schedules of Eq. (10) /
  Appendix D.2.
* :mod:`repro.core.kleene` — the Kleene-iteration baseline with joins,
  widening and semantic unrolling (Section 2.2).
* :mod:`repro.core.craft` — the Craft verifier (Algorithm 1): phase one
  finds an abstract post-fixpoint via contraction, phase two tightens it
  with fixpoint-set-preserving iterations and checks the postcondition.
* :mod:`repro.core.config` / :mod:`repro.core.results` — configuration and
  result types shared by the verification front-ends and the benchmarks.
"""

from repro.core.config import CraftConfig, ContractionSettings, KleeneSettings
from repro.core.contraction import ContractionEngine, DomainOps, domain_ops_for
from repro.core.craft import CraftVerifier, FixpointProblem
from repro.core.expansion import ExpansionSchedule
from repro.core.kleene import KleeneEngine
from repro.core.results import (
    ContractionResult,
    FixpointAbstraction,
    KleeneResult,
    PostconditionCheck,
    VerificationOutcome,
    VerificationResult,
)

__all__ = [
    "ContractionEngine",
    "ContractionResult",
    "ContractionSettings",
    "CraftConfig",
    "CraftVerifier",
    "DomainOps",
    "ExpansionSchedule",
    "FixpointAbstraction",
    "FixpointProblem",
    "KleeneEngine",
    "KleeneResult",
    "KleeneSettings",
    "PostconditionCheck",
    "VerificationOutcome",
    "VerificationResult",
    "domain_ops_for",
]
