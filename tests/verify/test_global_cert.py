"""Unit tests for domain-splitting global certification (Section 6.2)."""

import numpy as np
import pytest

from repro.core.config import ContractionSettings, CraftConfig
from repro.domains.interval import Interval
from repro.verify.global_cert import DomainSplittingCertifier, GlobalCertificationResult


@pytest.fixture(scope="module")
def certifier(trained_mondeq):
    config = CraftConfig(
        slope_optimization="none", contraction=ContractionSettings(max_iterations=200)
    )
    return DomainSplittingCertifier(trained_mondeq, config, max_depth=3, min_cell_width=1e-3)


class TestDomainSplitting:
    def test_tiny_region_certified_without_split(self, trained_mondeq, trained_sample, certifier):
        x, _ = trained_sample
        region = Interval.from_center_radius(x, 1e-5)
        result = certifier.certify_region(region)
        assert result.coverage == pytest.approx(1.0)
        assert all(cell.depth == 0 for cell in result.cells)

    def test_cells_partition_the_region(self, trained_mondeq, trained_sample, certifier):
        x, _ = trained_sample
        region = Interval.from_center_radius(x, 0.05)
        result = certifier.certify_region(region)
        assert result.total_volume == pytest.approx(region.volume, rel=1e-9)
        assert 0.0 <= result.coverage <= 1.0

    def test_max_depth_respected(self, trained_mondeq, trained_sample, certifier):
        x, _ = trained_sample
        region = Interval.from_center_radius(x, 0.2)
        result = certifier.certify_region(region)
        assert max(cell.depth for cell in result.cells) <= 3

    def test_certified_cells_report_consistent_class(self, trained_mondeq, trained_sample, certifier, rng):
        """Sampling check: inside a certified cell the prediction never changes."""
        x, _ = trained_sample
        region = Interval.from_center_radius(x, 0.03)
        result = certifier.certify_region(region)
        for cell in result.certified_cells()[:3]:
            for point in cell.region.sample(5, rng):
                assert trained_mondeq.predict(point) == cell.predicted_class

    def test_result_helpers(self):
        result = GlobalCertificationResult()
        assert result.coverage == 0.0
        assert result.certified_cells() == []
        assert result.uncertified_cells() == []


def _decomposition(result):
    return sorted(
        (
            tuple(cell.region.lower.tolist()),
            tuple(cell.region.upper.tolist()),
            cell.predicted_class,
            cell.certified,
            cell.depth,
        )
        for cell in result.cells
    )


@pytest.mark.parametrize("engine", ["batched", "sharded"])
def test_every_engine_honours_the_cache_dir(engine, tmp_path):
    """A seeded 3-input random monDEQ on a thin slice (16 cells, 4 of them
    certified): the frontier's verdicts land in ``cache_dir``, and a second
    certifier over the same directory returns the same decomposition."""
    from repro.mondeq.model import MonDEQ

    model = MonDEQ.random(input_dim=3, latent_dim=12, output_dim=5, monotonicity=5.0, seed=1)
    region = Interval(np.array([0.0, 0.0, 0.49]), np.array([1.0, 1.0, 0.51]))

    def run():
        with DomainSplittingCertifier(
            model, CraftConfig(), max_depth=4, engine=engine, num_workers=1,
            cache_dir=str(tmp_path),
        ) as certifier:
            return certifier.certify_region(region)

    first = run()
    assert any(cell.certified for cell in first.cells)
    entries = sorted(tmp_path.glob("*.json"))
    assert entries
    second = run()
    assert _decomposition(second) == _decomposition(first)
    assert sorted(tmp_path.glob("*.json")) == entries
