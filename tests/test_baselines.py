import numpy as np
import pytest

from tradelab.baselines import (
    HOLDS,
    KINDS,
    RANDOM,
    act,
    d3_discretize,
    moving_average,
    sign_discretize,
)
from tradelab.env import EnvConfig
from tradelab.harness import ExperimentConfig, evaluate_policy

from helpers import make_series, random_walk


class TestDeterministicStrategies:
    def test_long_always_buys(self, rng):
        series = random_walk(20, rng)
        assert all(act("long", t, series) == 1.0 for t in range(20))

    def test_short_always_sells(self, rng):
        series = random_walk(20, rng)
        assert act("short", 7, series) == -1.0

    def test_hold_strategies_sustain_direction(self, rng):
        series = random_walk(20, rng)
        assert act("buy_hold", 0, series) == 1.0
        assert act("buy_hold", 19, series) == 1.0
        assert act("sell_hold", 5, series) == -1.0

    def test_hold_flags(self):
        assert "buy_hold" in HOLDS and "sell_hold" in HOLDS
        assert "long" not in HOLDS and "mrma" not in HOLDS


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
        assert act("mrma", 3, series, ma_window=3) == -1.0

    def test_trend_following_mirrors(self):
        series = make_series([10, 10, 10, 13])
        assert act("tfma", 3, series, ma_window=3) == 1.0

    def test_opposition_property(self, rng):
        series = random_walk(60, rng)
        closes = series.closes()
        for t in range(5, 60):
            ma = moving_average(closes, t, 5)
            if closes[t] != ma:
                assert act("mrma", t, series, ma_window=5) == -act("tfma", t, series, ma_window=5)

    def test_insufficient_history(self, rng):
        series = random_walk(30, rng)
        with pytest.raises(ValueError, match="insufficient history"):
            act("mrma", 5, series, ma_window=10)

    def test_ma_window_invariant(self):
        # checked once, by the experiment config that names the strategies
        with pytest.raises(ValueError, match=r"^ma_window must be >= 2 for tfma, got 1$"):
            ExperimentConfig(dataset_path="prices.csv", strategies=("tfma",), ma_window=1)


class TestRandomStrategies:
    def test_discrete_frequencies(self, rng):
        series = random_walk(5, rng)
        gen = np.random.default_rng(7)
        draws = [act("random_d", 0, series, gen) for _ in range(10_000)]
        ups = draws.count(1.0)
        assert set(draws) == {-1.0, 1.0}
        assert 4900 <= ups <= 5100

    def test_continuous_support(self, rng):
        series = random_walk(5, rng)
        gen = np.random.default_rng(11)
        draws = [act("random_c", 0, series, gen) for _ in range(5000)]
        assert all(-1.0 <= a <= 1.0 for a in draws)
        assert abs(float(np.mean(draws))) < 0.05
        assert float(np.std(draws)) > 0.5  # roughly uniform, not degenerate

    def test_reproducible_from_seed(self, rng):
        series = random_walk(5, rng)
        a = [act("random_c", 0, series, np.random.default_rng(3)) for _ in range(5)]
        b = [act("random_c", 0, series, np.random.default_rng(3)) for _ in range(5)]
        assert a == b

    @pytest.mark.parametrize("kind,draw", [
        ("random_c", lambda gen: float(gen.uniform(-1.0, 1.0))),
        ("random_d", lambda gen: float(gen.choice((-1.0, 1.0)))),
    ])
    def test_draws_the_bits_of_uniform_and_choice(self, rng, kind, draw):
        """Each action is the float numpy's uniform or choice gives, and the
        generator ends where those calls leave it."""
        series = random_walk(5, rng)
        gen, reference = np.random.default_rng([13, 1]), np.random.default_rng([13, 1])
        got = [act(kind, 0, series, gen) for _ in range(10_000)]
        want = [draw(reference) for _ in range(10_000)]
        assert all(type(a) is float for a in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert gen.bit_generator.state == reference.bit_generator.state

    def test_rng_required(self, rng):
        series = random_walk(5, rng)
        with pytest.raises(ValueError, match="needs an rng"):
            act("random_d", 0, series)

    def test_is_random(self, rng):
        # exactly the RANDOM kinds need an rng
        series = random_walk(30, rng)
        for kind in KINDS:
            try:
                act(kind, 25, series, ma_window=5)
                needs_rng = False
            except ValueError as exc:
                assert str(exc) == f"strategy {kind!r} needs an rng"
                needs_rng = True
            assert needs_rng == (kind in RANDOM), kind


class TestSpec:
    def test_unknown_kind(self, rng):
        series = random_walk(30, rng)
        with pytest.raises(ValueError, match=r"^unknown strategy kind 'hodl'; expected one of \("):
            act("hodl", 25, series, np.random.default_rng(0))


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
        _, equity, _ = evaluate_policy(
            lambda rows: [act("buy_hold", 4 + i, series) for i in range(len(rows))],
            series, env_cfg, "buy_hold", seed=0, hold_fees=True)
        first_open = series.closes()[4]
        expected = 1e5 * series.closes()[-1] / first_open
        assert equity[-1] == pytest.approx(expected, rel=1e-9)
