"""Soundness and structure tests for the abstract monDEQ solver steps."""

import numpy as np
import pytest

from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.parallelotope import ParallelotopeZonotope
from repro.domains.zonotope import Zonotope
from repro.exceptions import ConfigurationError, DomainError
from repro.mondeq.abstract_solvers import (
    build_initial_state,
    fb_state_matrices,
    layout_for,
    make_abstract_step,
    make_output_map,
    make_z_extractor,
    pr_state_matrices,
)
from repro.mondeq.solvers import fb_step, pr_step
from repro.verify.specs import LinfBall


@pytest.fixture
def ball(small_mondeq, rng):
    center = rng.uniform(0.2, 0.8, size=small_mondeq.input_dim)
    return LinfBall(center=center, epsilon=0.05)


class TestLayout:
    def test_fb_layout(self, small_mondeq):
        layout = layout_for(small_mondeq, "fb")
        assert not layout.has_aux
        assert layout.dim == small_mondeq.latent_dim
        assert layout.relu_pass_through() is None

    def test_pr_layout(self, small_mondeq):
        layout = layout_for(small_mondeq, "pr")
        assert layout.has_aux
        assert layout.dim == 2 * small_mondeq.latent_dim
        mask = layout.relu_pass_through()
        assert mask.sum() == small_mondeq.latent_dim

    def test_unknown_solver(self, small_mondeq):
        with pytest.raises(ConfigurationError):
            layout_for(small_mondeq, "anderson")

    def test_selectors(self, small_mondeq, rng):
        layout = layout_for(small_mondeq, "pr")
        state = rng.normal(size=layout.dim)
        assert np.allclose(layout.z_selector() @ state, state[: small_mondeq.latent_dim])


class TestStateMatrices:
    def test_fb_matrix_matches_concrete_step(self, small_mondeq, rng):
        layout = layout_for(small_mondeq, "fb")
        alpha = 0.4 * small_mondeq.fb_alpha_bound()
        state_matrix, input_matrix, bias = fb_state_matrices(small_mondeq, alpha, layout)
        x = rng.uniform(size=small_mondeq.input_dim)
        z = rng.uniform(size=small_mondeq.latent_dim)
        pre_activation = state_matrix @ z + input_matrix @ x + bias
        assert np.allclose(np.maximum(pre_activation, 0.0), fb_step(small_mondeq, x, z, alpha))

    def test_pr_matrix_matches_concrete_step(self, small_mondeq, rng):
        layout = layout_for(small_mondeq, "pr")
        alpha = 0.15
        state_matrix, input_matrix, bias = pr_state_matrices(small_mondeq, alpha, layout)
        x = rng.uniform(size=small_mondeq.input_dim)
        z = rng.uniform(size=small_mondeq.latent_dim)
        u = rng.normal(size=small_mondeq.latent_dim)
        state = np.concatenate([z, u])
        pre_activation = state_matrix @ state + input_matrix @ x + bias
        z_new, u_new = pr_step(small_mondeq, x, z, u, alpha)
        p = small_mondeq.latent_dim
        assert np.allclose(np.maximum(pre_activation[:p], 0.0), z_new, atol=1e-9)
        assert np.allclose(pre_activation[p:], u_new, atol=1e-9)

    def test_pr_requires_aux_layout(self, small_mondeq):
        with pytest.raises(ConfigurationError):
            pr_state_matrices(small_mondeq, 0.1, layout_for(small_mondeq, "fb"))


class TestAbstractStepSoundness:
    @pytest.mark.parametrize("solver", ["fb", "pr"])
    @pytest.mark.parametrize("domain", [CHZonotope, Zonotope, Interval])
    def test_step_over_approximates_concrete(self, small_mondeq, ball, rng, solver, domain):
        layout = layout_for(small_mondeq, solver)
        alpha = 0.3 * small_mondeq.fb_alpha_bound() if solver == "fb" else 0.12
        input_element = ball.to_element({CHZonotope: "chzonotope", Zonotope: "zonotope", Interval: "box"}[domain])
        step = make_abstract_step(small_mondeq, layout, input_element, solver, alpha)

        state_box = Interval.from_center_radius(np.full(layout.dim, 0.2), 0.1)
        if domain is Interval:
            abstract_state = state_box
        elif domain is Zonotope:
            abstract_state = Zonotope.from_interval(state_box)
        else:
            abstract_state = CHZonotope.from_interval(state_box)
        image = step(abstract_state)

        p = small_mondeq.latent_dim
        for _ in range(50):
            x = ball.to_interval().sample(1, rng)[0]
            state = state_box.sample(1, rng)[0]
            if solver == "fb":
                concrete = fb_step(small_mondeq, x, state[:p], alpha)
            else:
                z_new, u_new = pr_step(small_mondeq, x, state[:p], state[p:], alpha)
                concrete = np.concatenate([z_new, u_new])
            assert image.contains_point(concrete, tol=1e-6)

    def test_dimension_mismatch_rejected(self, small_mondeq, ball):
        layout = layout_for(small_mondeq, "fb")
        step = make_abstract_step(small_mondeq, layout, ball.to_chzonotope(), "fb", 0.05)
        with pytest.raises(DomainError):
            step(CHZonotope.from_point(np.zeros(layout.dim + 1)))

    def test_unknown_solver_rejected(self, small_mondeq, ball):
        layout = layout_for(small_mondeq, "fb")
        with pytest.raises(ConfigurationError):
            make_abstract_step(small_mondeq, layout, ball.to_chzonotope(), "anderson", 0.1)

    def test_slope_delta_step_still_sound(self, small_mondeq, ball, rng):
        layout = layout_for(small_mondeq, "fb")
        alpha = 0.3 * small_mondeq.fb_alpha_bound()
        step = make_abstract_step(
            small_mondeq, layout, ball.to_chzonotope(), "fb", alpha, slope_delta=0.2
        )
        abstract_state = CHZonotope.from_center_radius(np.full(layout.dim, 0.2), 0.1)
        image = step(abstract_state)
        for _ in range(30):
            x = ball.to_interval().sample(1, rng)[0]
            z = abstract_state.to_interval().sample(1, rng)[0]
            assert image.contains_point(fb_step(small_mondeq, x, z, alpha), tol=1e-6)


class TestInitialStateAndOutput:
    def test_initial_state_is_singleton(self, small_mondeq, rng):
        z0 = rng.uniform(size=small_mondeq.latent_dim)
        for solver in ("fb", "pr"):
            layout = layout_for(small_mondeq, solver)
            for domain in (CHZonotope, Zonotope, Interval):
                state = build_initial_state(small_mondeq, layout, z0, domain=domain)
                assert state.dim == layout.dim
                assert np.allclose(state.width, 0.0)
                expected = np.concatenate([z0] * (2 if solver == "pr" else 1))
                assert np.allclose(state.center, expected)

    @pytest.mark.parametrize(
        "domain",
        [Interval, Zonotope, ParallelotopeZonotope, CHZonotope],
        ids=lambda domain: domain.__name__,
    )
    def test_initial_state_keeps_the_requested_domain(self, small_mondeq, rng, domain):
        """``build_initial_state`` is ``domain.from_point``: the singleton is
        built in exactly the requested class, subclasses included."""
        z0 = rng.uniform(size=small_mondeq.latent_dim)
        for solver in ("fb", "pr"):
            layout = layout_for(small_mondeq, solver)
            state = build_initial_state(small_mondeq, layout, z0, domain=domain)
            assert type(state) is domain
            assert state.contains_point(np.concatenate([z0] * (2 if solver == "pr" else 1)))

    def test_initial_state_validates_z0(self, small_mondeq):
        layout = layout_for(small_mondeq, "fb")
        with pytest.raises(DomainError):
            build_initial_state(small_mondeq, layout, np.zeros(small_mondeq.latent_dim + 1))

    def test_output_map_matches_readout(self, small_mondeq, rng):
        layout = layout_for(small_mondeq, "pr")
        output_map = make_output_map(small_mondeq, layout)
        z = rng.normal(size=small_mondeq.latent_dim)
        u = rng.normal(size=small_mondeq.latent_dim)
        element = CHZonotope.from_point(np.concatenate([z, u]))
        output = output_map(element)
        assert np.allclose(output.center, small_mondeq.readout(z))

    def test_z_extractor(self, small_mondeq, rng):
        layout = layout_for(small_mondeq, "pr")
        extract = make_z_extractor(layout)
        z = rng.normal(size=small_mondeq.latent_dim)
        element = CHZonotope.from_point(np.concatenate([z, np.zeros_like(z)]))
        assert np.allclose(extract(element).center, z)
