"""Unit tests for the expansion schedules (Eq. 10, Appendix D.2)."""

import pytest

from repro.core.config import CraftConfig
from repro.core.expansion import ADD_GROWTH, GROWTH_EVERY, MUL_GROWTH, ExpansionSchedule
from repro.exceptions import ConfigurationError


class TestSchedules:
    def test_constant_schedule_is_constant(self):
        schedule = ExpansionSchedule("const", w_mul=1e-3, w_add=1e-2)
        first = schedule.step()
        for _ in range(5):
            assert schedule.step() == first

    @pytest.mark.parametrize("mode", ["const", "exp"])
    def test_zero_expansion_stays_zero(self, mode):
        """Table 4's "No Expansion" row: zero parameters under either schedule."""
        schedule = ExpansionSchedule(mode, w_mul=0.0, w_add=0.0)
        for _ in range(5):
            assert schedule.step() == (0.0, 0.0)

    def test_exponential_growth_every_second_consolidation(self):
        # Appendix D.2: x1.1 / x1.2 every second consolidation.
        assert (MUL_GROWTH, ADD_GROWTH, GROWTH_EVERY) == (1.1, 1.2, 2)
        schedule = ExpansionSchedule("exp", w_mul=1e-3, w_add=1e-2)
        first = schedule.step()
        second = schedule.step()
        third = schedule.step()
        assert first == second == (1e-3, 1e-2)
        assert third[0] == pytest.approx(1e-3 * MUL_GROWTH)
        assert third[1] == pytest.approx(1e-2 * ADD_GROWTH)

    def test_reset(self):
        schedule = ExpansionSchedule("exp", w_mul=1e-3, w_add=1e-2)
        for _ in range(6):
            schedule.step()
        schedule.reset()
        assert schedule.consolidations == 0
        assert schedule.step() == (1e-3, 1e-2)

    def test_from_config(self):
        config = CraftConfig(expansion="exp", w_mul=0.5, w_add=0.25)
        schedule = ExpansionSchedule.from_config(config)
        assert schedule.mode == "exp"
        assert schedule.current == (0.5, 0.25)

    def test_invalid_mode_and_parameters(self):
        with pytest.raises(ConfigurationError):
            ExpansionSchedule("bogus")
        with pytest.raises(ConfigurationError):
            ExpansionSchedule("none")
        with pytest.raises(ConfigurationError):
            ExpansionSchedule("const", w_mul=-1.0)
        with pytest.raises(ConfigurationError):
            ExpansionSchedule("const", w_add=float("nan"))
