"""Expansion schedules for error consolidation (Eq. 10 and Appendix D.2).

Expansion enlarges the consolidated abstraction by a multiplicative factor
``(1 + w_mul)`` and an additive amount ``w_add`` per error direction.  The
paper uses two schedules:

* ``const`` — fixed ``w_mul = 1e-3``, ``w_add = 1e-2``;
* ``exp``   — starts at the constant values and multiplies ``w_mul`` by 1.1
  and ``w_add`` by 1.2 every second consolidation (used for the CIFAR-like
  configurations, Table 7).

Table 4's "No Expansion" row is ``w_mul = w_add = 0``: either schedule then
stays at zero.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import CraftConfig
from repro.exceptions import ConfigurationError

#: The ``exp`` schedule multiplies ``w_mul`` by ``MUL_GROWTH`` and ``w_add``
#: by ``ADD_GROWTH`` after every ``GROWTH_EVERY``-th consolidation.
MUL_GROWTH = 1.1
ADD_GROWTH = 1.2
GROWTH_EVERY = 2


class ExpansionSchedule:
    """Stateful iterator over the expansion parameters ``(w_mul, w_add)``."""

    def __init__(self, mode: str = "const", w_mul: float = 1e-3, w_add: float = 1e-2):
        if mode not in ("const", "exp"):
            raise ConfigurationError(f"unknown expansion mode {mode!r}")
        if not (w_mul >= 0 and w_add >= 0):
            raise ConfigurationError("expansion parameters must be non-negative")
        self.mode = mode
        self._initial = (w_mul, w_add)
        self._current = (w_mul, w_add)
        self._consolidations = 0

    @classmethod
    def from_config(cls, config: CraftConfig) -> "ExpansionSchedule":
        """Build the schedule described by a :class:`CraftConfig`."""
        return cls(mode=config.expansion, w_mul=config.w_mul, w_add=config.w_add)

    @property
    def current(self) -> Tuple[float, float]:
        """The expansion parameters to use for the next consolidation."""
        return self._current

    @property
    def consolidations(self) -> int:
        """Number of consolidations recorded so far."""
        return self._consolidations

    def step(self) -> Tuple[float, float]:
        """Return the parameters for this consolidation and advance the schedule."""
        params = self._current
        self._consolidations += 1
        if self.mode == "exp" and self._consolidations % GROWTH_EVERY == 0:
            w_mul, w_add = self._current
            self._current = (w_mul * MUL_GROWTH, w_add * ADD_GROWTH)
        return params

    def reset(self) -> None:
        """Reset the schedule to its initial parameters."""
        self._consolidations = 0
        self._current = self._initial
