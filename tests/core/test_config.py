"""Unit tests for the configuration dataclasses."""

import pytest

from repro.core.config import ContractionSettings, CraftConfig, KleeneSettings, ServiceConfig
from repro.exceptions import ConfigurationError


class TestContractionSettings:
    def test_defaults_follow_paper(self):
        settings = ContractionSettings()
        assert settings.max_iterations == 500
        assert settings.consolidate_every == 3
        assert settings.basis_recompute_every == 30
        assert settings.history_size == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"consolidate_every": 0},
            {"basis_recompute_every": 0},
            {"history_size": 0},
            {"abort_width": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ContractionSettings(**kwargs)


class TestKleeneSettings:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            KleeneSettings(max_iterations=0)
        with pytest.raises(ConfigurationError):
            KleeneSettings(semantic_unrolling=-1)


class TestServiceConfig:
    def test_service_config_rejects_bad_concurrency(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_concurrent_batches=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coalesce_window_seconds": -0.01},
            {"max_batch_cells": 0},
            {"shard_timeout_seconds": 0.0},
            {"retry_backoff_seconds": 0.0},
            {"retry_backoff_factor": 0.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)


class TestCraftConfig:
    def test_defaults_are_valid(self):
        config = CraftConfig()
        assert config.domain == "chzonotope"
        assert config.solver1 == "pr"
        assert config.solver2 == "fb"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"domain": "polyhedra"},
            {"solver1": "newton"},
            {"expansion": "quadratic"},
            {"slope_optimization": "full"},
            {"alpha1": 0.0},
            {"alpha2": 1.5},
            {"w_mul": -1.0},
            {"tighten_max_iterations": 0},
            {"alpha2_grid": ()},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CraftConfig(**kwargs)

    def test_with_updates_returns_copy(self):
        config = CraftConfig()
        updated = config.with_updates(alpha1=0.05)
        assert updated.alpha1 == 0.05
        assert config.alpha1 == 0.1


class TestEscalationLadderConfig:
    def test_domain_is_a_singleton_ladder_alias(self):
        config = CraftConfig(domain="box")
        assert config.domains == ("box",)
        assert not config.is_ladder
        assert CraftConfig().domains == ("chzonotope",)

    def test_ladder_sets_domain_to_final_stage(self):
        config = CraftConfig(domains=("box", "zonotope", "chzonotope"))
        assert config.domain == "chzonotope"
        assert config.is_ladder
        assert CraftConfig.escalation().domains == ("box", "zonotope", "chzonotope")

    def test_ladder_order_is_validated(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            CraftConfig(domains=("chzonotope", "box"))
        with pytest.raises(ConfigurationError, match="ascending"):
            CraftConfig(domains=("box", "box"))
        with pytest.raises(ConfigurationError):
            CraftConfig(domains=())
        with pytest.raises(ConfigurationError):
            CraftConfig(domains=("box", "octagon"))

    def test_conflicting_alias_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicts"):
            CraftConfig(domain="box", domains=("box", "chzonotope"))
        # A consistent alias is accepted.
        config = CraftConfig(domain="chzonotope", domains=("box", "chzonotope"))
        assert config.domains == ("box", "chzonotope")

    def test_with_updates_realigns_alias_and_ladder(self):
        ladder = CraftConfig.escalation()
        assert ladder.with_updates(domain="box").domains == ("box",)
        widened = CraftConfig(domain="box").with_updates(
            domains=("zonotope", "chzonotope")
        )
        assert widened.domain == "chzonotope"

    def test_stage_configs_are_singletons_sharing_everything_else(self):
        ladder = CraftConfig.escalation(alpha1=0.2)
        stages = ladder.stage_configs()
        assert [stage.domain for stage in stages] == ["box", "zonotope", "chzonotope"]
        for stage in stages:
            assert not stage.is_ladder
            assert stage.alpha1 == 0.2
        with pytest.raises(ConfigurationError, match="not a stage"):
            ladder.stage_config("parallelotope")

    def test_parallelotope_is_a_valid_domain(self):
        config = CraftConfig(domain="parallelotope")
        assert config.domains == ("parallelotope",)

    def test_reference_configuration(self):
        assert CraftConfig.reference().slope_optimization == "reference"

    @pytest.mark.parametrize(
        "name, attribute, value",
        [
            ("no_zono_component", "domain", "box"),
            ("no_box_component", "use_box_component", False),
            ("only_pr", "solver2", "pr"),
            ("only_fb", "solver1", "fb"),
            ("no_lambda_optimization", "slope_optimization", "none"),
            ("reduced_lambda_optimization", "slope_optimization", "reduced"),
            ("same_iteration_containment", "same_iteration_containment", True),
            ("no_expansion", "expansion", "none"),
        ],
    )
    def test_ablation_configurations(self, name, attribute, value):
        assert getattr(CraftConfig.ablation(name), attribute) == value

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ConfigurationError):
            CraftConfig.ablation("no_such_ablation")
