import numpy as np
import pytest

from tradelab.baselines import (
    StrategySpec,
    act,
    d3_discretize,
    holds_position,
    is_random,
    moving_average,
    sign_discretize,
)
from tradelab.env import EnvConfig
from tradelab.harness import evaluate_policy

from helpers import make_series, random_walk


class TestDeterministicStrategies:
    def test_long_always_buys(self, rng):
        series = random_walk(20, rng)
        spec = StrategySpec(kind="long")
        assert all(act(spec, t, series) == 1.0 for t in range(20))

    def test_short_always_sells(self, rng):
        series = random_walk(20, rng)
        assert act(StrategySpec(kind="short"), 7, series) == -1.0

    def test_hold_strategies_sustain_direction(self, rng):
        series = random_walk(20, rng)
        assert act(StrategySpec(kind="buy_hold"), 0, series) == 1.0
        assert act(StrategySpec(kind="buy_hold"), 19, series) == 1.0
        assert act(StrategySpec(kind="sell_hold"), 5, series) == -1.0

    def test_hold_flags(self):
        assert holds_position("buy_hold") and holds_position("sell_hold")
        assert not holds_position("long") and not holds_position("mrma")


class TestTechnicalStrategies:
    def test_moving_average_window_ends_at_t(self):
        series = make_series([10, 10, 10, 13])
        assert moving_average(series.closes(), 3, 3) == pytest.approx(11.0)

    @pytest.mark.parametrize("window", [2, 20, 499])  # 499: the longest window 500 bars allow
    def test_moving_average_is_np_mean(self, rng, window):
        closes = random_walk(500, rng).closes()
        for t in range(window, len(closes)):
            ma = moving_average(closes, t, window)
            assert type(ma) is float
            assert ma == closes[t - window + 1 : t + 1].mean()

    def test_mean_reversion_hand_example(self):
        series = make_series([10, 10, 10, 13])
        assert act(StrategySpec(kind="mrma", ma_window=3), 3, series) == -1.0

    def test_trend_following_mirrors(self):
        series = make_series([10, 10, 10, 13])
        assert act(StrategySpec(kind="tfma", ma_window=3), 3, series) == 1.0

    def test_opposition_property(self, rng):
        series = random_walk(60, rng)
        mr = StrategySpec(kind="mrma", ma_window=5)
        tf = StrategySpec(kind="tfma", ma_window=5)
        closes = series.closes()
        for t in range(5, 60):
            ma = moving_average(closes, t, 5)
            if closes[t] != ma:
                assert act(mr, t, series) == -act(tf, t, series)

    def test_insufficient_history(self, rng):
        series = random_walk(30, rng)
        with pytest.raises(ValueError, match="insufficient history"):
            act(StrategySpec(kind="mrma", ma_window=10), 5, series)

    def test_ma_window_invariant(self):
        with pytest.raises(ValueError, match="ma_window"):
            StrategySpec(kind="tfma", ma_window=1)


class TestRandomStrategies:
    def test_discrete_frequencies(self, rng):
        series = random_walk(5, rng)
        gen = np.random.default_rng(7)
        spec = StrategySpec(kind="random_d")
        draws = [act(spec, 0, series, gen) for _ in range(10_000)]
        ups = draws.count(1.0)
        assert set(draws) == {-1.0, 1.0}
        assert 4900 <= ups <= 5100

    def test_continuous_support(self, rng):
        series = random_walk(5, rng)
        gen = np.random.default_rng(11)
        draws = [act(StrategySpec(kind="random_c"), 0, series, gen) for _ in range(5000)]
        assert all(-1.0 <= a <= 1.0 for a in draws)
        assert abs(float(np.mean(draws))) < 0.05
        assert float(np.std(draws)) > 0.5  # roughly uniform, not degenerate

    def test_reproducible_from_seed(self, rng):
        series = random_walk(5, rng)
        a = [act(StrategySpec(kind="random_c"), 0, series, np.random.default_rng(3)) for _ in range(5)]
        b = [act(StrategySpec(kind="random_c"), 0, series, np.random.default_rng(3)) for _ in range(5)]
        assert a == b

    def test_rng_required(self, rng):
        series = random_walk(5, rng)
        with pytest.raises(ValueError, match="needs an rng"):
            act(StrategySpec(kind="random_d"), 0, series)

    def test_is_random(self):
        assert is_random("random_c") and is_random("random_d")
        assert not is_random("buy_hold")


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown strategy kind"):
            StrategySpec(kind="hodl")


class TestSignDiscretizer:
    def test_zero_maps_down(self):
        assert sign_discretize(0.0) == -1.0

    def test_positive_maps_up(self):
        assert sign_discretize(0.3) == 1.0

    def test_lower_interior(self):
        assert sign_discretize(-1.0) == -1.0

    def test_odd_away_from_zero(self, rng):
        for _ in range(100):
            a = float(rng.uniform(1e-9, 1.0))
            assert sign_discretize(-a) == -sign_discretize(a)


class TestD3Discretizer:
    def test_boundaries(self):
        assert d3_discretize(1.0 / 3.0) == 0.0
        assert d3_discretize(-1.0 / 3.0) == -1.0
        assert d3_discretize(0.34) == 1.0

    def test_branches(self):
        assert d3_discretize(-1.0) == -1.0
        assert d3_discretize(0.0) == 0.0
        assert d3_discretize(1.0) == 1.0

    def test_odd_away_from_boundaries(self, rng):
        for _ in range(200):
            a = float(rng.uniform(0, 1))
            if abs(a - 1.0 / 3.0) < 1e-9:
                continue
            assert d3_discretize(-a) == -d3_discretize(a)


class TestBuyHoldCompounding:
    def test_final_cash_tracks_price_ratio(self, rng):
        series = random_walk(50, rng)
        env_cfg = EnvConfig(window=4, transaction_cost=0.0, initial_cash=1e5)
        spec = StrategySpec(kind="buy_hold")
        report = evaluate_policy(lambda rows: [act(spec, 4 + i, series) for i in range(len(rows))],
                                 series, env_cfg, "buy_hold", seed=0, hold_fees=True)
        first_open = series.closes()[4]
        expected = 1e5 * series.closes()[-1] / first_open
        assert report.equity[-1] == pytest.approx(expected, rel=1e-9)
