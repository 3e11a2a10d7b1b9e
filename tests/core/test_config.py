"""Unit tests for the configuration dataclasses."""

import math
from dataclasses import fields, replace

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
            {"abort_width": math.nan},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ContractionSettings(**kwargs)

    @pytest.mark.parametrize(
        "name", ["max_iterations", "consolidate_every", "basis_recompute_every", "history_size"]
    )
    @pytest.mark.parametrize("value", [math.nan, 2.5])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ContractionSettings(**{name: value})


class TestKleeneSettings:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            KleeneSettings(max_iterations=0)
        with pytest.raises(ConfigurationError):
            KleeneSettings(semantic_unrolling=-1)

    @pytest.mark.parametrize("name", ["max_iterations", "semantic_unrolling", "widen_after"])
    @pytest.mark.parametrize("value", [math.nan, 2.5])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            KleeneSettings(**{name: value})

    @pytest.mark.parametrize("name", ["abort_width", "widening_threshold"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_bounds_must_be_positive(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            KleeneSettings(**{name: value})


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

    @pytest.mark.parametrize(
        "name",
        [
            "coalesce_window_seconds",
            "shard_timeout_seconds",
            "retry_backoff_seconds",
            "retry_backoff_factor",
        ],
    )
    def test_nan_rejected(self, name):
        """A NaN lease bound would never expire (``now >= nan`` is false),
        so a hung cluster worker would never be marked dead."""
        with pytest.raises(ConfigurationError, match=name):
            ServiceConfig(**{name: math.nan})


class TestCraftConfig:
    def test_defaults_are_valid(self):
        config = CraftConfig()
        assert config.domain == "chzonotope"
        assert config.solver1 == "pr"
        assert config.solver2 == "fb"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"domains": ("polyhedra",)},
            {"solver1": "newton"},
            {"expansion": "quadratic"},
            {"expansion": "none"},
            {"slope_optimization": "full"},
            {"alpha1": 0.0},
            {"alpha1": math.nan},
            {"w_mul": -1.0},
            {"w_mul": math.nan},
            {"w_add": math.nan},
            {"tighten_max_iterations": 0},
            {"tighten_max_iterations": math.nan},
            {"tighten_max_iterations": 2.5},
            {"alpha2_grid": ()},
            {"alpha2_grid": (-0.5,)},
            {"alpha2_grid": (1.5, 0.1)},
            {"alpha2_grid": (0.1, math.nan)},
            {"alpha2_grid": (math.inf,)},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CraftConfig(**kwargs)

    def test_twelve_settable_fields(self):
        assert [field.name for field in fields(CraftConfig)] == [
            "domains", "solver1", "alpha1", "solver2", "alpha2_grid", "contraction",
            "expansion", "w_mul", "w_add", "slope_optimization",
            "same_iteration_containment", "tighten_max_iterations",
        ]


class TestEscalationLadderConfig:
    def test_domain_reads_the_final_stage(self):
        config = CraftConfig(domains=("box",))
        assert config.domain == "box"
        assert not config.is_ladder
        assert CraftConfig().domains == ("chzonotope",)
        assert CraftConfig(domains=["box", "zonotope"]).domains == ("box", "zonotope")

    def test_domain_is_not_settable(self):
        with pytest.raises(TypeError):
            CraftConfig(domain="box")
        with pytest.raises(TypeError):
            replace(CraftConfig(), domain="box")

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
        config = CraftConfig(domains=("parallelotope",))
        assert config.domain == "parallelotope"

    def test_reference_configuration(self):
        assert CraftConfig.reference().slope_optimization == "reference"

    @pytest.mark.parametrize(
        "name, changes",
        [
            ("reference", {}),
            ("no_zono_component", {"domains": ("box",), "slope_optimization": "none"}),
            ("no_box_component", {"domains": ("zonotope",)}),
            ("only_pr", {"solver2": "pr"}),
            ("only_fb", {"solver1": "fb", "alpha1": 0.04}),
            ("no_lambda_optimization", {"slope_optimization": "none"}),
            ("reduced_lambda_optimization", {"slope_optimization": "reduced"}),
            ("same_iteration_containment", {"same_iteration_containment": True}),
            ("no_expansion", {"w_mul": 0.0, "w_add": 0.0}),
            ("escalation_ladder", {"domains": ("box", "zonotope", "chzonotope")}),
        ],
    )
    def test_ablation_configurations(self, name, changes):
        """Each Table 4 row is the reference configuration with only its own
        fields changed; the ablation names are exactly the Table 4 rows."""
        from repro.experiments.ablation import ABLATION_NAMES

        assert name in ABLATION_NAMES
        assert CraftConfig.ablation(name) == replace(CraftConfig.reference(), **changes)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ConfigurationError):
            CraftConfig.ablation("no_such_ablation")
