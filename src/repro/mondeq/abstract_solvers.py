"""Sound abstract transformers of monDEQ fixpoint-solver iterations.

Following Algorithm 1, the abstract solver state ``S`` covers only the
solver variables —

* ``[z]``      for Forward–Backward splitting (dimension ``p``),
* ``[z ; u]``  for Peaceman–Rachford splitting (dimension ``2p``),

while the input abstraction ``X`` is a separate element that is *injected*
into every abstract step ``g#_alpha(X, S)``.  One step is the composition of

1. an exact affine transformer on the state (the linear part of Eq. 8 for
   FB, or the closed form of Eq. 9 for PR using the resolvent
   ``D = (I + alpha (I - W))^{-1}``),
2. the addition of the input-injection element (``alpha U X + alpha b``
   for FB, ``2 alpha D U X + 2 alpha D b`` replicated over the ``z`` and
   ``u`` blocks for PR), and
3. the ReLU transformer on the ``z`` block (the auxiliary block passes
   through).

The injection is added in one of two ways:

* **Fresh input symbols** (``input_terms == 0``): a Minkowski sum, treating
  the state and the input as independent.  This is a sound
  over-approximation of the concrete iteration for every ``x`` in the input
  region and every ``s`` in the state abstraction, so Theorems 3.1/3.3/5.1
  apply unchanged; each step appends the injection's ``k_x`` columns plus
  the ReLU's (at most ``p``) columns.  Phase one uses it, and so do the
  Parallelotope and Box domains throughout.
* **Shared input symbols** (``input_terms == k_x``): the state keeps the
  input's ``k_x`` error symbols as one leading block of its generator
  matrix, and each step adds its injection into that block
  (``sum_aligned``).  This is the exact affine transformer of the joint
  element ``(s, x)`` with the unchanging ``x`` rows left implicit, so it
  is sound for every ``x`` and each step only appends the ReLU's columns.
  It is sound only while the block is aligned: the drivers open a zero
  block (:func:`repro.core.craft.open_input_block`) wherever the state is
  input-independent — at phase-two entry and after every phase-two
  consolidation.  :func:`shared_input_terms` decides which domains share.

The same construction works for every domain in :mod:`repro.domains`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Type

import numpy as np

from repro.domains.base import AbstractElement
from repro.domains.chzonotope import CHZonotope
from repro.domains.relu import default_slopes
from repro.exceptions import ConfigurationError, DomainError
from repro.mondeq.model import MonDEQ
from repro.mondeq.solvers import pr_matrices

StepFunction = Callable[[AbstractElement], AbstractElement]

#: Domains whose phase-two steps share the input's error symbols.
#: Parallelotope order-reduces after every ReLU, which merges the input
#: block into its PCA basis, and Box has no symbols: both keep fresh ones.
SHARED_INPUT_DOMAINS = ("chzonotope", "zonotope")


@dataclass(frozen=True)
class StateLayout:
    """Layout of the abstract solver state.

    Attributes
    ----------
    latent_dim:
        Dimension ``p`` of the monDEQ latent state.
    has_aux:
        Whether the layout carries the Peaceman–Rachford auxiliary block.
    """

    latent_dim: int
    has_aux: bool

    @property
    def dim(self) -> int:
        """Total dimension of the state abstraction."""
        return (2 if self.has_aux else 1) * self.latent_dim

    @property
    def z_slice(self) -> slice:
        return slice(0, self.latent_dim)

    @property
    def u_slice(self) -> Optional[slice]:
        if not self.has_aux:
            return None
        return slice(self.latent_dim, 2 * self.latent_dim)

    def relu_pass_through(self) -> Optional[np.ndarray]:
        """Mask of dimensions the ReLU does *not* apply to (the aux block)."""
        if not self.has_aux:
            return None
        mask = np.zeros(self.dim, dtype=bool)
        mask[self.u_slice] = True
        return mask

    def z_selector(self) -> np.ndarray:
        """Selection matrix extracting the ``z`` block from a state vector."""
        selector = np.zeros((self.latent_dim, self.dim))
        selector[:, self.z_slice] = np.eye(self.latent_dim)
        return selector


def layout_for(model: MonDEQ, solver: str) -> StateLayout:
    """The state layout induced by the *containment-phase* solver."""
    if solver not in ("pr", "fb"):
        raise ConfigurationError(f"unknown solver {solver!r}")
    return StateLayout(latent_dim=model.latent_dim, has_aux=solver == "pr")


# ----------------------------------------------------------------------
# State-space matrices and input injections of one solver iteration
# ----------------------------------------------------------------------


def fb_state_matrices(model: MonDEQ, alpha: float, layout: StateLayout):
    """State matrix and input-injection map of one FB step.

    Returns ``(state_matrix, input_matrix, bias)`` such that the
    pre-activation of the new state is
    ``state_matrix @ s + input_matrix @ x + bias``.
    """
    p = layout.latent_dim
    m_matrix = (1.0 - alpha) * np.eye(p) + alpha * model.w_matrix
    state_matrix = np.zeros((layout.dim, layout.dim))
    state_matrix[layout.z_slice, layout.z_slice] = m_matrix
    input_matrix = np.zeros((layout.dim, model.input_dim))
    input_matrix[layout.z_slice, :] = alpha * model.u_weight
    bias = np.zeros(layout.dim)
    bias[layout.z_slice] = alpha * model.bias
    if layout.has_aux:
        # An FB step on a PR layout leaves the auxiliary block unchanged;
        # this maps joint fixpoints onto themselves and is therefore still
        # fixpoint-set preserving (Theorem 5.1 applies to the z block).
        state_matrix[layout.u_slice, layout.u_slice] = np.eye(p)
    return state_matrix, input_matrix, bias


def fb_contraction_factor(model: MonDEQ) -> Callable[[float], float]:
    """``alpha -> rho((1 - alpha) I + alpha W)``, the contraction factor of
    the FB step's linear part, from one eigenvalue computation.

    The eigenvalues of ``(1 - alpha) I + alpha W`` are ``1 - alpha + alpha
    lambda`` for the eigenvalues ``lambda`` of ``W``, so one ``eigvals``
    serves every damping.  The phase-two alpha race starts its walk at the
    candidate of least factor (:meth:`repro.core.config.CraftConfig.race_candidates`).
    """
    eigenvalues = np.linalg.eigvals(model.w_matrix)

    def factor(alpha: float) -> float:
        return float(np.abs(1.0 - alpha + alpha * eigenvalues).max())

    return factor


def pr_state_matrices(model: MonDEQ, alpha: float, layout: StateLayout):
    """State matrix and input-injection map of one PR step (Eq. 9).

    With the resolvent ``D = (I + alpha (I - W))^{-1}`` the new auxiliary
    state is the affine function

        u' = (4 D - 2 I) z + (I - 2 D) u + 2 alpha D U x + 2 alpha D b

    of the previous state; the new ``z`` is ``ReLU(u')``, so both output
    blocks are set to ``u'`` before the (masked) ReLU.
    """
    if not layout.has_aux:
        raise ConfigurationError("PR steps require a layout with the auxiliary block")
    p = layout.latent_dim
    resolvent = pr_matrices(model, alpha)
    z_coeff = 4.0 * resolvent - 2.0 * np.eye(p)
    u_coeff = np.eye(p) - 2.0 * resolvent
    input_block = 2.0 * alpha * resolvent @ model.u_weight
    bias_block = 2.0 * alpha * resolvent @ model.bias

    state_matrix = np.zeros((layout.dim, layout.dim))
    input_matrix = np.zeros((layout.dim, model.input_dim))
    bias = np.zeros(layout.dim)
    for block in (layout.z_slice, layout.u_slice):
        state_matrix[block, layout.z_slice] = z_coeff
        state_matrix[block, layout.u_slice] = u_coeff
        input_matrix[block, :] = input_block
        bias[block] = bias_block
    return state_matrix, input_matrix, bias


# ----------------------------------------------------------------------
# Step builders
# ----------------------------------------------------------------------


def _step_matrices(model: MonDEQ, layout: StateLayout, solver: str, alpha: float):
    if solver == "fb":
        return fb_state_matrices(model, alpha, layout)
    if solver == "pr":
        return pr_state_matrices(model, alpha, layout)
    raise ConfigurationError(f"unknown solver {solver!r}")


def _injection(input_element, input_matrix, bias, input_terms: int):
    """The input-injection element, checked against the input block width."""
    injection = input_element.affine(input_matrix, bias)
    if input_terms and injection.num_generators != input_terms:
        raise DomainError(
            f"an input block of {input_terms} columns cannot carry the "
            f"injection's {injection.num_generators} error symbols"
        )
    return injection


def make_abstract_step(
    model: MonDEQ,
    layout: StateLayout,
    input_element: AbstractElement,
    solver: str,
    alpha: float,
    slope_delta: float = 0.0,
    input_terms: int = 0,
) -> StepFunction:
    """Build the abstract transformer ``S -> g#_alpha(X, S)``.

    Parameters
    ----------
    model, layout:
        The monDEQ and the state layout fixed by the containment-phase
        solver.
    input_element:
        Abstraction of the input region ``X`` (any domain); the
        input-injection element is precomputed once from it.
    solver, alpha:
        Splitting method (``"fb"`` / ``"pr"``) and damping parameter.
    slope_delta:
        Shift added to the minimum-area ReLU slopes (slope optimisation).
    input_terms:
        ``0`` adds the injection with fresh input symbols.  A positive
        value (:func:`shared_input_terms`) adds it into the state's leading
        input block of that many columns, which the caller must keep
        aligned with :func:`repro.core.craft.open_input_block`.
    """
    state_matrix, input_matrix, bias = _step_matrices(model, layout, solver, alpha)
    pass_through = layout.relu_pass_through()
    # The injection element carries the whole input contribution (including
    # the bias), so correlations of the input across the z and u blocks are
    # preserved within one step.
    injection = _injection(input_element, input_matrix, bias, input_terms)

    def step(element: AbstractElement) -> AbstractElement:
        if element.dim != layout.dim:
            raise DomainError(
                f"solver state has dimension {element.dim}, expected {layout.dim}"
            )
        propagated = element.affine(state_matrix)
        if input_terms:
            propagated = propagated.sum_aligned(injection)
        else:
            propagated = propagated.sum(injection)
        slopes = None
        if slope_delta != 0.0:
            lower, upper = propagated.concretize_bounds()
            slopes = np.clip(default_slopes(lower, upper) + slope_delta, 0.0, 1.0)
        return propagated.relu(slopes=slopes, pass_through=pass_through)

    return step


class BatchedAbstractStep:
    """The batched abstract transformer ``S -> g#_alpha(X, S)`` over a stack.

    The per-sample semantics are exactly those of the step built by
    :func:`make_abstract_step`; the input-injection element is a
    :class:`~repro.engine.batched_chzonotope.BatchedCHZonotope` precomputed
    from the whole batch of input regions.  :meth:`select` derives the step
    for a sub-batch, which is how the batched Craft driver keeps iterating
    only the still-active samples after early exits.
    """

    def __init__(self, state_matrix, injection, pass_through, slope_delta, input_terms):
        self._state_matrix = state_matrix
        self._injection = injection
        self._pass_through = pass_through
        self._slope_delta = slope_delta
        self._input_terms = input_terms

    @property
    def batch_size(self) -> int:
        return self._injection.batch_size

    def select(self, indices) -> "BatchedAbstractStep":
        """The same step restricted to the given sample rows."""
        return BatchedAbstractStep(
            self._state_matrix,
            self._injection.select(indices),
            self._pass_through,
            self._slope_delta,
            self._input_terms,
        )

    def __call__(self, state):
        if state.dim != self._state_matrix.shape[0]:
            raise DomainError(
                f"solver state has dimension {state.dim}, "
                f"expected {self._state_matrix.shape[0]}"
            )
        if state.batch_size != self._injection.batch_size:
            raise DomainError(
                f"state batch {state.batch_size} does not match the injection "
                f"batch {self._injection.batch_size}"
            )
        propagated = state.affine(self._state_matrix)
        if self._input_terms:
            propagated = propagated.sum_aligned(self._injection)
        else:
            propagated = propagated.sum(self._injection)
        slopes = None
        if self._slope_delta != 0.0:
            slopes = propagated.relu_slopes(self._slope_delta)
        return propagated.relu(slopes=slopes, pass_through=self._pass_through)


def make_batched_abstract_step(
    model: MonDEQ,
    layout: StateLayout,
    batched_input,
    solver: str,
    alpha: float,
    slope_delta: float = 0.0,
    input_terms: int = 0,
) -> BatchedAbstractStep:
    """Batched counterpart of :func:`make_abstract_step`.

    ``batched_input`` is a ``BatchedCHZonotope`` stacking the input-region
    abstractions of the whole batch (one row per certification query).
    """
    state_matrix, input_matrix, bias = _step_matrices(model, layout, solver, alpha)
    injection = _injection(batched_input, input_matrix, bias, input_terms)
    return BatchedAbstractStep(
        state_matrix, injection, layout.relu_pass_through(), slope_delta, input_terms
    )


def shared_input_terms(domain: str, input_element) -> int:
    """Width of the phase-two input block for ``domain``; 0 keeps fresh symbols.

    The one rule both Craft drivers read (:data:`SHARED_INPUT_DOMAINS`):
    one block column per error symbol of the input element, which may be a
    sequential element or a batched stack.  The step builders reject an
    injection whose column count differs from the block width.
    """
    if domain not in SHARED_INPUT_DOMAINS:
        return 0
    return input_element.num_generators


def build_initial_state(
    model: MonDEQ,
    layout: StateLayout,
    z0: np.ndarray,
    domain: Type[AbstractElement] = CHZonotope,
) -> AbstractElement:
    """Initial state abstraction ``S_0`` (Algorithm 1, line 2).

    The solver blocks are initialised to the singleton ``z0`` — typically
    the concrete fixpoint of the centre input (both the ``z`` and the
    auxiliary block, matching ``S_0 = {[z*(x); z*(x)]}``).
    """
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.shape[0] != layout.latent_dim:
        raise DomainError(f"z0 must have dimension {layout.latent_dim}")
    blocks = 2 if layout.has_aux else 1
    return domain.from_point(np.concatenate([z0] * blocks))


def make_output_map(model: MonDEQ, layout: StateLayout) -> Callable[[AbstractElement], AbstractElement]:
    """Map a state abstraction to the output abstraction ``Y = V z + v`` (exact)."""
    selector = model.v_weight @ layout.z_selector()

    def extract(element: AbstractElement) -> AbstractElement:
        return element.affine(selector, model.v_bias)

    return extract


def make_z_extractor(layout: StateLayout) -> Callable[[AbstractElement], AbstractElement]:
    """Map a state abstraction to the abstraction of the ``z`` block (exact)."""
    selector = layout.z_selector()

    def extract(element: AbstractElement) -> AbstractElement:
        return element.affine(selector)

    return extract
