"""Server performance fluctuation (paper section V-A).

Server performance in shared clouds varies over time.  Following Schad et
al.'s measurements the paper models it as a **bimodal distribution**: in each
fluctuation interval (50 ms) the mean service time of a server is redrawn to
be either ``t_kv`` or ``t_kv / d`` with equal probability (range parameter
``d = 3``).  Each server fluctuates independently.

Redraws are lazy: no timer runs.  :meth:`BimodalFluctuation.mean_at` makes
the draws of every interval boundary crossed since the last query, one per
boundary, when a server begins service.  Boundaries accumulate with the
float additions a periodic ``call_in`` chain would perform, so the mean
seen at any time is the one a ticking timer would have set.  Both tiers use
these classes, the packet tier on the engine clock and the flow tier on its
micro-heap clock.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.rng import DrawSource


class StableService:
    """Degenerate model: constant mean service time (ablation baseline)."""

    __slots__ = ("mean_service_time",)

    def __init__(self, mean_service_time: float) -> None:
        if mean_service_time <= 0:
            raise ConfigurationError("mean_service_time must be positive")
        self.mean_service_time = mean_service_time

    def mean_at(self, t: float) -> float:
        """The (constant) mean service time."""
        return self.mean_service_time

    def expected_mean(self) -> float:
        """Long-run average of the mean service time."""
        return self.mean_service_time


class BimodalFluctuation:
    """Bimodal mean-service-time fluctuation with a fixed redraw interval."""

    __slots__ = (
        "base_service_time",
        "range_parameter",
        "interval",
        "_draws",
        "_current",
        "_next",
        "redraws",
    )

    def __init__(
        self,
        *,
        base_service_time: float,
        range_parameter: float = 3.0,
        interval: float = 50e-3,
        rng: DrawSource,
        origin: float = 0.0,
    ) -> None:
        if base_service_time <= 0:
            raise ConfigurationError("base_service_time must be positive")
        if range_parameter < 1:
            raise ConfigurationError("range parameter d must be >= 1")
        if interval <= 0:
            raise ConfigurationError("fluctuation interval must be positive")
        self.base_service_time = base_service_time
        self.range_parameter = range_parameter
        self.interval = interval
        self._draws = rng
        self._current = self._draw()
        # First redraw boundary; ``origin`` is the clock's start time.
        self._next = origin + interval
        self.redraws = 0

    def _draw(self) -> float:
        if self._draws.random() < 0.5:
            return self.base_service_time
        return self.base_service_time / self.range_parameter

    def mean_at(self, t: float) -> float:
        """Mean service time in the fluctuation interval containing ``t``.

        Draws once per boundary crossed since the previous call.  Query
        times must be non-decreasing, as a server's service begin times are.
        """
        while t >= self._next:
            self._current = self._draw()
            self._next += self.interval
            self.redraws += 1
        return self._current

    def expected_mean(self) -> float:
        """Long-run average mean service time: ``(t + t/d) / 2``."""
        return 0.5 * (
            self.base_service_time + self.base_service_time / self.range_parameter
        )

    def expected_rate_utilization_factor(self) -> float:
        """The paper's ``2 / (1 + d)`` factor.

        Rate-averaged capacity under fluctuation: half the time the server
        drains at ``1/t``, half at ``d/t``, so nominal utilization ``rho``
        corresponds to effective utilization ``2 rho / (1 + d)``.
        """
        return 2.0 / (1.0 + self.range_parameter)
