"""Reproduction of *Abstract Interpretation of Fixpoint Iterators with
Applications to Neural Networks* (PLDI 2023).

The package is organised around the paper's two contributions and the
substrates they need:

``repro.domains``
    Abstract-domain substrate: Box (interval), Zonotope, and the paper's
    novel CH-Zonotope domain with error consolidation (Theorem 4.1) and the
    efficient inclusion check (Theorem 4.2).

``repro.core``
    The domain-specific abstract interpretation framework for fixpoint
    iterators: the contraction-based termination criterion (Theorem 3.1),
    fixpoint-set preservation, a Kleene-iteration baseline, and the Craft
    verifier (Algorithm 1).

``repro.nn`` / ``repro.mondeq``
    A numpy neural-network substrate and the monotone operator Deep
    Equilibrium Model (monDEQ) architecture with Forward-Backward and
    Peaceman-Rachford fixpoint solvers, implicit-differentiation training,
    Lipschitz baselines and PGD attacks.

``repro.verify``
    Verification front-ends: local L-infinity robustness certification,
    global certification via domain splitting, and baseline verifiers.

``repro.engine``
    The batched certification engine: domain-generic element stacks
    (CH-Zonotope, Box, plain Zonotope and the order-bounded Parallelotope)
    advanced by shared BLAS calls, a batched Craft driver with per-sample
    early exit dispatching on ``CraftConfig.domain``, the per-query
    escalation waterfall over ``CraftConfig.domains``
    (``repro.engine.escalation``), and one scheduler for it on an
    in-process, worker-pool or cluster transport, with a shared on-disk
    verdict cache keyed by the exact query.

``repro.service``
    The long-lived certification service over the engines: an asyncio
    admission frontend (cache-first, coalescing, deadlines/budgets,
    streamed verdicts), multi-machine shard fan-out over
    ``multiprocessing.managers`` TCP with work stealing and
    exactly-once fault recovery, and deterministic seeded fault
    injection for the test battery and soak benchmark.

``repro.datasets``
    Synthetic dataset substrate (MNIST/CIFAR-like generators, Gaussian
    mixtures, HCAS collision-avoidance MDP).

``repro.numerics``
    The Householder square-root case study (Section 6.5 / Appendix A).
"""

from repro.core.config import CraftConfig
from repro.core.craft import CraftVerifier
from repro.core.results import FixpointAbstraction, VerificationOutcome, VerificationResult
from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.zonotope import Zonotope
from repro.engine import (
    BatchCertificationScheduler,
    BatchedBox,
    BatchedCHZonotope,
    BatchedCraft,
    BatchedParallelotope,
    BatchedZonotope,
    ShardedScheduler,
)
from repro.mondeq.model import MonDEQ
from repro.service import (
    AutoscaleConfig,
    CertificationFrontend,
    ClusterScheduler,
    FaultSpec,
    ServiceConfig,
    serve_sweep,
)
from repro.verify.specs import ClassificationSpec, LinfBall

__version__ = "1.14.0"

__all__ = [
    "AutoscaleConfig",
    "BatchCertificationScheduler",
    "BatchedBox",
    "BatchedCHZonotope",
    "BatchedCraft",
    "BatchedParallelotope",
    "BatchedZonotope",
    "CertificationFrontend",
    "CHZonotope",
    "ClassificationSpec",
    "ClusterScheduler",
    "CraftConfig",
    "CraftVerifier",
    "FaultSpec",
    "FixpointAbstraction",
    "Interval",
    "LinfBall",
    "MonDEQ",
    "ServiceConfig",
    "ShardedScheduler",
    "serve_sweep",
    "VerificationOutcome",
    "VerificationResult",
    "Zonotope",
    "__version__",
]
