"""Unit tests for the concrete FB / PR fixpoint solvers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.mondeq.solvers import (
    default_alpha,
    fb_step,
    iterate_implicit_layer,
    pr_step,
    solve_fixpoint,
    solve_fixpoint_batch,
)


class TestSolvers:
    @pytest.mark.parametrize("method", ["fb", "pr"])
    def test_converges_to_true_fixpoint(self, small_mondeq, rng, method):
        x = rng.uniform(size=small_mondeq.input_dim)
        result = solve_fixpoint(small_mondeq, x, method=method, tol=1e-10)
        assert result.converged
        # The fixpoint satisfies z = ReLU(Wz + Ux + b).
        assert np.allclose(result.z, small_mondeq.implicit_layer(x, result.z), atol=1e-7)

    def test_fb_and_pr_agree(self, small_mondeq, rng):
        x = rng.uniform(size=small_mondeq.input_dim)
        z_fb = solve_fixpoint(small_mondeq, x, method="fb", tol=1e-10).z
        z_pr = solve_fixpoint(small_mondeq, x, method="pr", tol=1e-10).z
        assert np.allclose(z_fb, z_pr, atol=1e-6)

    def test_pr_converges_for_large_alpha(self, small_mondeq, rng):
        """PR converges for any alpha > 0 (Eq. 9), including far above the FB bound."""
        x = rng.uniform(size=small_mondeq.input_dim)
        result = solve_fixpoint(small_mondeq, x, method="pr", alpha=1.0, tol=1e-9)
        assert result.converged

    def test_residuals_monotone_tail(self, small_mondeq, rng):
        x = rng.uniform(size=small_mondeq.input_dim)
        result = solve_fixpoint(small_mondeq, x, method="pr", tol=1e-12, max_iterations=300)
        tail = np.array(result.residuals[-10:])
        assert np.all(np.diff(tail) <= 1e-10)

    def test_default_alpha_values(self, small_mondeq):
        assert 0 < default_alpha(small_mondeq, "fb") < small_mondeq.fb_alpha_bound()
        assert default_alpha(small_mondeq, "pr") == pytest.approx(0.1)
        with pytest.raises(ConfigurationError):
            default_alpha(small_mondeq, "newton")

    @pytest.mark.parametrize(
        "batched, kwargs",
        [
            pytest.param(False, {"method": "secant"}, id="method"),
            pytest.param(False, {"alpha": -0.1}, id="alpha"),
            # A zero or negative budget is a configuration error, not an
            # IndexError from an empty residual trace.
            *(
                pytest.param(
                    False,
                    {"max_iterations": budget, "raise_on_failure": raise_on_failure},
                    id=f"budget{budget}-raise{raise_on_failure}",
                )
                for budget in (0, -1)
                for raise_on_failure in (True, False)
            ),
            *(
                pytest.param(True, {"max_iterations": budget}, id=f"batch-budget{budget}")
                for budget in (0, -1)
            ),
        ],
    )
    def test_invalid_arguments(self, small_mondeq, rng, batched, kwargs):
        x = rng.uniform(size=small_mondeq.input_dim)
        with pytest.raises(ConfigurationError):
            if batched:
                solve_fixpoint_batch(small_mondeq, np.stack([x, x]), **kwargs)
            else:
                solve_fixpoint(small_mondeq, x, **kwargs)

    def test_non_convergence_raises_when_requested(self, small_mondeq, rng):
        x = rng.uniform(size=small_mondeq.input_dim)
        with pytest.raises(ConvergenceError):
            solve_fixpoint(small_mondeq, x, max_iterations=1, tol=1e-14, raise_on_failure=True)

    def test_single_steps_match_driver(self, small_mondeq, rng):
        x = rng.uniform(size=small_mondeq.input_dim)
        alpha = default_alpha(small_mondeq, "fb")
        z = np.zeros(small_mondeq.latent_dim)
        for _ in range(50):
            z = fb_step(small_mondeq, x, z, alpha)
        reference = solve_fixpoint(small_mondeq, x, method="fb", alpha=alpha, tol=1e-12).z
        assert np.allclose(z, reference, atol=1e-4)

    def test_pr_step_shapes(self, small_mondeq, rng):
        x = rng.uniform(size=small_mondeq.input_dim)
        z = np.zeros(small_mondeq.latent_dim)
        u = np.zeros(small_mondeq.latent_dim)
        z_new, u_new = pr_step(small_mondeq, x, z, u, alpha=0.1)
        assert z_new.shape == u_new.shape == (small_mondeq.latent_dim,)
        assert np.allclose(z_new, np.maximum(u_new, 0.0))

    def test_naive_iteration_helper(self, small_mondeq, rng):
        x = rng.uniform(size=small_mondeq.input_dim)
        z = iterate_implicit_layer(small_mondeq, x, steps=3)
        assert z.shape == (small_mondeq.latent_dim,)

    def test_running_example_naive_iteration_does_not_converge(self):
        """Section 5.1: directly iterating f fails to reach the fixpoint of the
        running example (it oscillates), while operator splitting converges."""
        from repro.experiments.running_example import make_running_example_model

        model = make_running_example_model()
        x = np.array([0.2, 0.5])
        solved = solve_fixpoint(model, x, method="fb", alpha=0.1).z
        even = iterate_implicit_layer(model, x, steps=40)
        odd = iterate_implicit_layer(model, x, steps=41)
        assert np.linalg.norm(even - odd) > 1e-2
        assert np.linalg.norm(even - solved) > 1e-2
