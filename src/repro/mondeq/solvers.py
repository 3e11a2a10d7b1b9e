"""Concrete operator-splitting fixpoint solvers for monDEQs (Section 5.1).

Iterating ``f(x, z) = ReLU(W z + U x + b)`` directly may diverge (the
running example of the paper does); instead the unique fixpoint is found by
operator splitting:

* **Forward–Backward (FB) splitting** (Eq. 8)::

      s_{n+1} = ReLU((1 - alpha) s_n + alpha (W s_n + U x + b))

  which converges for ``0 < alpha < 2 m / ||I - W||_2^2``.

* **Peaceman–Rachford (PR) splitting** (Eq. 9), which maintains an auxiliary
  state ``u`` and converges for any ``alpha > 0``.

Both are exposed as single-step functions (used by training, attacks and
the abstract transformers) and as a run-to-convergence driver
:func:`solve_fixpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.mondeq.model import MonDEQ
from repro.utils.validation import ensure_vector


@dataclass
class SolverResult:
    """Result of running a fixpoint solver to convergence.

    Attributes
    ----------
    z:
        The (approximate) fixpoint ``z*``.
    u:
        The auxiliary Peaceman–Rachford state at convergence (equal to the
        pre-activation); for FB splitting it simply mirrors ``z``.
    iterations:
        Number of solver iterations performed.
    converged:
        Whether the residual dropped below the tolerance.
    residuals:
        The residual trace ``||z_n - z_{n-1}||`` per iteration.
    """

    z: np.ndarray
    u: np.ndarray
    iterations: int
    converged: bool
    residuals: List[float]


def default_alpha(model: MonDEQ, method: str) -> float:
    """A safe default damping parameter for the given method.

    FB uses half of the convergence bound ``2m / ||I - W||^2``; PR converges
    for any positive alpha, for which the paper's tables use values around
    ``0.05 – 0.1``.
    """
    if method == "fb":
        return 0.5 * model.fb_alpha_bound()
    if method == "pr":
        return 0.1
    raise ConfigurationError(f"unknown solver method {method!r}")


def fb_step(model: MonDEQ, x: np.ndarray, z: np.ndarray, alpha: float) -> np.ndarray:
    """One Forward–Backward iteration ``g^FB_alpha(x, z)`` (Eq. 8)."""
    pre = (1.0 - alpha) * z + alpha * (model.w_matrix @ z + model.u_weight @ x + model.bias)
    return np.maximum(pre, 0.0)


def pr_matrices(model: MonDEQ, alpha: float) -> np.ndarray:
    """The resolvent ``(I + alpha (I - W))^{-1}`` used by PR splitting."""
    latent = model.latent_dim
    return np.linalg.inv(np.eye(latent) + alpha * (np.eye(latent) - model.w_matrix))


def pr_step(
    model: MonDEQ,
    x: np.ndarray,
    z: np.ndarray,
    u: np.ndarray,
    alpha: float,
    resolvent: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One Peaceman–Rachford iteration ``g^PR_alpha(x, [z; u])`` (Eq. 9)."""
    if resolvent is None:
        resolvent = pr_matrices(model, alpha)
    u_half = 2.0 * z - u
    z_half = resolvent @ (u_half + alpha * (model.u_weight @ x + model.bias))
    u_new = 2.0 * z_half - u_half
    z_new = np.maximum(u_new, 0.0)
    return z_new, u_new


def _validate_solver_budget(method: str, max_iterations: int) -> None:
    """Reject non-positive iteration budgets up front.

    A zero budget used to fall through to the failure branch with an empty
    residual trace and crash on ``residuals[-1]``; it is a configuration
    error, not a convergence failure.
    """
    if max_iterations < 1:
        raise ConfigurationError(
            f"max_iterations must be >= 1 for {method!r} splitting, got {max_iterations}"
        )


def solve_fixpoint(
    model: MonDEQ,
    x: np.ndarray,
    method: str = "pr",
    alpha: Optional[float] = None,
    tol: float = 1e-9,
    max_iterations: int = 2000,
    raise_on_failure: bool = False,
) -> SolverResult:
    """Iterate the chosen operator-splitting method until convergence.

    Parameters
    ----------
    model, x:
        The monDEQ and a single input vector.
    method:
        ``"pr"`` (default) or ``"fb"``.
    alpha:
        Damping parameter; ``None`` selects :func:`default_alpha`.
    tol:
        Convergence threshold on ``||z_n - z_{n-1}||``.
    max_iterations:
        Iteration budget (must be at least 1).
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result when the budget is exhausted.
    """
    x = ensure_vector(x, "x", dim=model.input_dim)
    if method not in ("pr", "fb"):
        raise ConfigurationError(f"unknown solver method {method!r}")
    _validate_solver_budget(method, max_iterations)
    if alpha is None:
        alpha = default_alpha(model, method)
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")

    latent = model.latent_dim
    z = np.zeros(latent)
    u = np.zeros(latent)
    residuals: List[float] = []
    resolvent = pr_matrices(model, alpha) if method == "pr" else None

    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if method == "fb":
            z_new = fb_step(model, x, z, alpha)
            u_new = z_new
        else:
            z_new, u_new = pr_step(model, x, z, u, alpha, resolvent=resolvent)
        residual = float(np.linalg.norm(z_new - z))
        residuals.append(residual)
        z, u = z_new, u_new
        if residual < tol:
            converged = True
            break

    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"{method.upper()} splitting did not converge within {max_iterations} iterations "
            f"(last residual {residuals[-1]:.3e})"
        )
    return SolverResult(z=z, u=u, iterations=iterations, converged=converged, residuals=residuals)


@dataclass
class BatchSolverResult:
    """Result of running a fixpoint solver over a batch of inputs.

    Attributes
    ----------
    z, u:
        Stacked fixpoints / auxiliary states of shape ``(batch, latent)``;
        each row is frozen at the iteration its own residual converged.
    iterations:
        Per-sample iteration counts.
    converged:
        Per-sample convergence flags.
    """

    z: np.ndarray
    u: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def solve_fixpoint_batch(
    model: MonDEQ,
    xs: np.ndarray,
    method: str = "pr",
    alpha: Optional[float] = None,
    tol: float = 1e-9,
    max_iterations: int = 2000,
) -> BatchSolverResult:
    """Solve the fixpoints of many inputs in one vectorised iteration.

    Semantically equivalent to calling :func:`solve_fixpoint` per row of
    ``xs``; the whole batch advances through shared matrix products and each
    sample drops out of the active set (its state frozen) as soon as its own
    residual falls below ``tol``, so early converging samples stop paying
    for slow ones.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != model.input_dim:
        raise ConfigurationError(
            f"inputs must have shape (batch, {model.input_dim}), got {xs.shape}"
        )
    if method not in ("pr", "fb"):
        raise ConfigurationError(f"unknown solver method {method!r}")
    _validate_solver_budget(method, max_iterations)
    if alpha is None:
        alpha = default_alpha(model, method)
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")

    batch = xs.shape[0]
    latent = model.latent_dim
    z = np.zeros((batch, latent))
    u = np.zeros((batch, latent))
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    injection = xs @ model.u_weight.T + model.bias[None, :]
    w_t = model.w_matrix.T
    resolvent_t = pr_matrices(model, alpha).T if method == "pr" else None

    active = np.arange(batch)
    for iteration in range(1, max_iterations + 1):
        if active.size == 0:
            break
        z_a, u_a = z[active], u[active]
        if method == "fb":
            pre = (1.0 - alpha) * z_a + alpha * (z_a @ w_t + injection[active])
            z_new = np.maximum(pre, 0.0)
            u_new = z_new
        else:
            u_half = 2.0 * z_a - u_a
            z_half = (u_half + alpha * injection[active]) @ resolvent_t
            u_new = 2.0 * z_half - u_half
            z_new = np.maximum(u_new, 0.0)
        residual = np.linalg.norm(z_new - z_a, axis=1)
        z[active], u[active] = z_new, u_new
        iterations[active] = iteration
        done = residual < tol
        converged[active[done]] = True
        active = active[~done]
    return BatchSolverResult(z=z, u=u, iterations=iterations, converged=converged)


def iterate_implicit_layer(
    model: MonDEQ, x: np.ndarray, steps: int, z0: Optional[np.ndarray] = None
) -> np.ndarray:
    """Naively iterate ``f(x, .)`` for ``steps`` iterations.

    Provided to reproduce the paper's observation (Section 5.1, example)
    that the raw iteration may diverge while operator splitting converges.
    """
    x = ensure_vector(x, "x", dim=model.input_dim)
    z = np.zeros(model.latent_dim) if z0 is None else ensure_vector(z0, "z0", dim=model.latent_dim)
    for _ in range(steps):
        z = model.implicit_layer(x, z)
    return z
