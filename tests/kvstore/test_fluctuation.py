"""Tests for the bimodal server-performance fluctuation model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kvstore.fluctuation import BimodalFluctuation, StableService


def _model(seed=0, base=4e-3, d=3.0, interval=50e-3):
    return BimodalFluctuation(
        base_service_time=base,
        range_parameter=d,
        interval=interval,
        rng=np.random.default_rng(seed),
    )


class TestValidation:
    def test_base_positive(self):
        with pytest.raises(ConfigurationError):
            _model(base=0.0)

    def test_range_at_least_one(self):
        with pytest.raises(ConfigurationError):
            _model(d=0.5)

    def test_interval_positive(self):
        with pytest.raises(ConfigurationError):
            _model(interval=0.0)

    def test_stable_service_validation(self):
        with pytest.raises(ConfigurationError):
            StableService(0.0)


class _StubDraws:
    """Draw source replaying fixed uniforms and counting the draws made."""

    def __init__(self, values):
        self._values = list(values)
        self.draws = 0

    def random(self):
        value = self._values[self.draws]
        self.draws += 1
        return value


class TestBimodal:
    def test_mean_is_one_of_two_modes(self):
        model = _model()
        seen = {round(model.mean_at(k * 50e-3), 9) for k in range(60)}
        assert seen == {round(4e-3, 9), round(4e-3 / 3, 9)}

    def test_redraw_count_matches_intervals(self):
        model = _model()
        model.mean_at(1.0)
        # 50 ms interval over 1 s -> 19-20 redraws depending on boundary.
        assert 18 <= model.redraws <= 20

    def test_one_draw_per_boundary_crossed(self):
        """Hand-computed: boundaries at 50, 100, 150 ms; a draw < 0.5 picks
        the slow mode ``t``, otherwise the fast mode ``t / d``."""
        draws = _StubDraws([0.1, 0.9, 0.3, 0.7])
        model = BimodalFluctuation(
            base_service_time=6e-3, range_parameter=3.0, interval=50e-3, rng=draws
        )
        assert draws.draws == 1  # the construction-time draw
        assert model.mean_at(0.0) == 6e-3
        assert model.mean_at(0.049) == 6e-3
        assert draws.draws == 1
        assert model.mean_at(0.05) == 2e-3  # crossed 50 ms
        assert draws.draws == 2
        assert model.mean_at(0.17) == 2e-3  # crossed 100 and 150 ms
        assert draws.draws == 4
        assert model.mean_at(0.17) == 2e-3
        assert (draws.draws, model.redraws) == (4, 3)

    def test_boundaries_anchor_at_origin(self):
        draws = _StubDraws([0.1, 0.9])
        model = BimodalFluctuation(
            base_service_time=6e-3, interval=50e-3, rng=draws, origin=1.0
        )
        assert model.mean_at(1.0 + 0.049) == 6e-3
        assert draws.draws == 1
        assert model.mean_at(1.0 + 50e-3) == 2e-3
        assert draws.draws == 2

    def test_modes_roughly_equiprobable(self):
        model = _model(seed=7)
        n = 400
        fast = sum(model.mean_at(k * 50e-3) < 4e-3 for k in range(1, n + 1))
        assert 0.4 < fast / n < 0.6

    def test_expected_mean(self):
        model = _model()
        assert model.expected_mean() == pytest.approx(
            0.5 * (4e-3 + 4e-3 / 3)
        )

    def test_utilization_factor_matches_paper(self):
        """The paper's 2/(1+d) with d=3 gives 0.5 (90% nominal -> 45%)."""
        model = _model(d=3.0)
        assert model.expected_rate_utilization_factor() == pytest.approx(0.5)

    def test_deterministic_for_seed(self):
        def trajectory(seed):
            model = _model(seed=seed)
            return [model.mean_at(k * 50e-3) for k in range(1, 21)]

        assert trajectory(3) == trajectory(3)
        assert trajectory(3) != trajectory(4)


class TestStableService:
    def test_constant_mean(self):
        model = StableService(2e-3)
        assert model.mean_at(0.0) == 2e-3
        assert model.mean_at(1.0) == 2e-3
        assert model.expected_mean() == 2e-3
