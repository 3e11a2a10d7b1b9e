"""Shared hypothesis strategies for the abstract-domain property tests.

Every abstract transformer in :mod:`repro.domains` carries an
over-approximation contract ("the image of every concrete point lies in the
abstract image"); the strategies here generate the raw material — centres,
generator matrices, Box radii, weights — those contract tests are driven
with.  Keeping them in one place guarantees that the CH-Zonotope, Zonotope,
Interval and PCA-enclosure soundness tests all sample the same
distribution of elements.
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

FINITE = {"allow_nan": False, "allow_infinity": False}

DIM = 3


def centers(dim=DIM, bound=5.0):
    """Centre vectors with entries in ``[-bound, bound]``."""
    return arrays(np.float64, (dim,), elements=st.floats(-bound, bound, **FINITE))


def generator_matrices(dim=DIM, count=4, bound=2.0):
    """Generator matrices ``(dim, count)`` with entries in ``[-bound, bound]``."""
    return arrays(np.float64, (dim, count), elements=st.floats(-bound, bound, **FINITE))


def box_vectors(dim=DIM, bound=1.5):
    """Non-negative Box radii in ``[0, bound]``."""
    return arrays(np.float64, (dim,), elements=st.floats(0, bound, **FINITE))


def weight_matrices(rows=2, cols=DIM, bound=3.0):
    """Affine weights ``(rows, cols)`` with entries in ``[-bound, bound]``."""
    return arrays(np.float64, (rows, cols), elements=st.floats(-bound, bound, **FINITE))


def sparse_generator_stacks(batch=3, dim=DIM, count=4, bound=2.0):
    """Generator stacks ``(batch, dim, count)`` rich in zero entries and in
    whole zero columns, ``-0.0`` included: the columns the batched engine
    drops when a row leaves a stack and pads when rows are stacked."""
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-bound, bound, **FINITE))
    # Per row and column: 0 zeroes the column, 1 sets it to -0.0, 2 keeps it.
    kinds = arrays(np.int8, (batch, count), elements=st.sampled_from([0, 1, 2]))
    return st.tuples(arrays(np.float64, (batch, dim, count), elements=entries), kinds).map(
        _zero_columns
    )


def _zero_columns(drawn):
    stack, kinds = drawn
    stack = stack.copy()
    for kind, value in ((0, 0.0), (1, -0.0)):
        stack[np.broadcast_to((kinds == kind)[:, None, :], stack.shape)] = value
    return stack


def unit_floats():
    """Floats in ``[0, 1]`` (ReLU slopes, interpolation weights)."""
    return st.floats(0, 1, **FINITE)


def sample_points(element, count=24, seed=0):
    """Deterministic concretisation samples of an abstract element."""
    return element.sample(count, np.random.default_rng(seed))


# ----------------------------------------------------------------------
# Differential-fuzzing strategies: whole models, input regions and
# verifier configurations (tests/engine/test_differential.py).
# ----------------------------------------------------------------------


def mondeq_models(max_input_dim=5, max_latent_dim=8, max_output_dim=4):
    """Random monotone DEQs with small, varied shapes.

    Strong monotonicity keeps the fixpoint iterations contracting quickly,
    so a fuzzing example costs milliseconds rather than the full phase-one
    budget.
    """
    from repro.mondeq.model import MonDEQ

    return st.builds(
        lambda input_dim, latent_dim, output_dim, monotonicity, seed: MonDEQ.random(
            input_dim=input_dim,
            latent_dim=latent_dim,
            output_dim=output_dim,
            monotonicity=monotonicity,
            seed=seed,
        ),
        input_dim=st.integers(2, max_input_dim),
        latent_dim=st.integers(3, max_latent_dim),
        output_dim=st.integers(2, max_output_dim),
        monotonicity=st.floats(6.0, 14.0, **FINITE),
        seed=st.integers(0, 2**16),
    )


def input_regions(input_dim, count=4, bound=1.5):
    """``count`` region centres for a model of the given input dimension."""
    return arrays(
        np.float64, (count, input_dim), elements=st.floats(-bound, bound, **FINITE)
    )


def epsilons():
    """Perturbation radii spanning trivially-certifiable to hopeless."""
    return st.sampled_from([1e-4, 0.01, 0.05, 0.15, 0.3])


def domain_ladders():
    """Random escalation ladders: ascending subsequences of the domain
    precision order with at least two stages.

    Ladders are drawn from the Box/Zonotope/CH-Zonotope rungs — the
    domains whose engine parity contract is bit-level (1e-9 bounds), so
    the differential suite can assert strict agreement.  The parallelotope
    rung's every-step SVD reduction amplifies last-ulp BLAS differences
    between the stacked and sequential pipelines (see
    ``BatchedParallelotope._reduce_order``), so its ladder coverage lives
    in the dedicated verdict-level tests
    (``tests/engine/test_escalation.py``).
    """
    rungs = ("box", "zonotope", "chzonotope")
    subsets = [
        tuple(name for keep, name in zip(mask, rungs) if keep)
        for mask in [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    ]
    return st.sampled_from(subsets)


def craft_configs():
    """Verifier configurations exercising the engines' distinct code paths.

    Budgets are kept small (fuzzing wants many examples, not deep runs) and
    the invalid fb-then-pr solver combination is never generated.  The
    abstract domain is drawn from all three batched stacks (CH-Zonotope,
    Box, plain Zonotope) — the domain-generic engine must agree with the
    sequential reference for every one of them.
    """
    from repro.core.config import ContractionSettings, CraftConfig

    def build(domain, solvers, same_iteration, slope_mode):
        solver1, solver2 = solvers
        return CraftConfig(
            domains=(domain,),
            solver1=solver1,
            alpha1=0.1 if solver1 == "pr" else 0.04,
            solver2=solver2,
            alpha2_grid=(0.05, 0.15, 0.5),
            contraction=ContractionSettings(
                max_iterations=60, consolidate_every=3, history_size=4
            ),
            slope_optimization=slope_mode,
            same_iteration_containment=same_iteration,
            tighten_max_iterations=12,
        )

    return st.builds(
        build,
        # chzonotope drawn twice: it has the most distinct code paths.
        domain=st.sampled_from(["chzonotope", "chzonotope", "box", "zonotope"]),
        solvers=st.sampled_from([("pr", "fb"), ("pr", "pr"), ("fb", "fb")]),
        same_iteration=st.booleans(),
        slope_mode=st.sampled_from(["none", "none", "reduced"]),
    )
