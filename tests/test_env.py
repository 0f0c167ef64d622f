import math

import numpy as np
import pytest

from tradelab.env import CASH_FLOOR, EnvConfig, TradingEnv

from helpers import make_series, random_walk
from oracles import episode_return, resimulate


def one_step_env(p_t, p_next, window=1, extra_days=0, **config):
    """An env reset at bar ``window``, whose first step trades from p_t into p_next.
    ``extra_days`` more bars at p_next keep it open after that step, so the step is
    then terminal only when it wipes."""
    prices = [p_t] * window + [p_t, p_next] + [p_next] * extra_days
    env = TradingEnv(make_series(prices), EnvConfig(window=window, **config))
    env.reset()
    return env


def step_once(cash, action, p_t, p_next, tc):
    """(cash, wiped) after one step from ``cash`` that trades p_t into p_next."""
    env = one_step_env(p_t, p_next, extra_days=1, transaction_cost=tc, initial_cash=cash)
    _, wiped = env.step(action)
    return env.cash, wiped


class TestSettle:
    """One day's cash update through ``TradingEnv.step``."""

    def test_half_long_no_fee(self):
        # 50_000 committed buys 500 shares, which gain 10 each
        cash, wiped = step_once(100_000, 0.5, 100, 110, 0.0)
        assert cash == pytest.approx(105_000, rel=1e-12)
        assert not wiped

    def test_hold_action(self):
        assert step_once(100_000, 0.0, 100, 37, 5.0) == (100_000, False)

    def test_full_short_with_fee(self):
        # 1000 shares short gain 10 each; the fee is 0.1% of the 100_000 opening notional
        cash, wiped = step_once(100_000, -1.0, 100, 90, 0.1)
        assert cash == pytest.approx(109_900, rel=1e-12)
        assert not wiped
        assert step_once(100_000, -1.0, 100, 90, 0.0)[0] - cash == pytest.approx(100.0)

    def test_short_wipeout_floors_cash(self):
        # short loss of 110000 exceeds the committed 100000
        cash, wiped = step_once(100_000, -1.0, 100, 210, 0.0)
        assert wiped
        assert cash == CASH_FLOOR

    def test_partial_wipeout_keeps_uncommitted_cash(self):
        cash, wiped = step_once(100_000, -0.5, 100, 250, 0.0)
        assert wiped
        assert cash == 50_000  # the uncommitted half survives

    def test_action_out_of_range(self):
        env = one_step_env(10, 11, initial_cash=100.0)
        with pytest.raises(ValueError, match=r"^action 1\.5 outside \[-1, 1\]$"):
            env.step(1.5)
        with pytest.raises(ValueError, match="outside"):
            env.step(float("nan"))
        assert (env.t, env.cash, env.terminal) == (1, 100.0, False)  # a rejected action moves nothing


class TestStepFunction:
    def test_reward_is_log_growth(self):
        env = one_step_env(100, 110, window=2, initial_cash=100_000)
        assert env.t == 2
        reward, _ = env.step(0.5)
        assert env.cash == pytest.approx(105_000)
        assert reward == pytest.approx(math.log(1.05), abs=1e-12)
        assert env.t == 3

    def test_hold_reward_zero(self):
        env = one_step_env(100, 90, initial_cash=100_000)
        reward, _ = env.step(0.0)
        assert env.cash == 100_000
        assert reward == 0.0

    def test_terminal_state_rejected(self):
        env = one_step_env(1, 1, initial_cash=1.0)
        _, terminal = env.step(0.0)
        assert terminal and env.terminal
        with pytest.raises(ValueError, match="terminal"):
            env.step(0.0)

    def test_wipe_marks_terminal(self):
        # two tradable days, so only the wipe can end the episode after the first
        env = TradingEnv(make_series([100, 100, 210, 210]), EnvConfig(window=1, initial_cash=100_000))
        env.reset()
        reward, terminal = env.step(-1.0)
        assert terminal and env.terminal
        assert env.t == 2 and env.t <= env.last_t
        assert env.cash == CASH_FLOOR
        assert reward == pytest.approx(math.log(CASH_FLOOR / 100_000))

    def test_step_before_reset_raises(self):
        env = TradingEnv(make_series([100, 101, 102]), EnvConfig(window=1))
        with pytest.raises(ValueError, match="not reset"):
            env.step(0.0)


class TestTradingEnv:
    def test_reset_contract(self):
        env = TradingEnv(make_series([100] * 33), EnvConfig(window=30, initial_cash=100_000))
        env.reset()
        obs = env.observation_table()[env.t - env.first_t]
        assert env.cash == 100_000
        assert not env.terminal
        assert env.t == 30
        assert obs.shape == (30,)

    def test_minimum_segment_has_one_step(self):
        # w + 2 prices: one full window plus one tradable day
        env = TradingEnv(make_series([100, 101, 102, 103]), EnvConfig(window=2))
        env.reset()
        assert env.last_t - env.first_t + 1 == 1
        _, terminal = env.step(1.0)
        assert terminal

    def test_segment_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            TradingEnv(make_series([100, 101]), EnvConfig(window=2))
        with pytest.raises(ValueError, match="too short"):
            TradingEnv(make_series([100, 101, 102]), EnvConfig(window=2))

    def test_observation_alignment_excludes_traded_return(self):
        series = make_series([100, 110, 121, 133.1, 146.41])
        env = TradingEnv(series, EnvConfig(window=2))
        table = env.observation_table()
        env.reset()
        # the window ends with the move into the position-opening bar
        assert table[env.t - env.first_t].tolist() == pytest.approx([10.0, 10.0])
        env.step(1.0)
        assert table[env.t - env.first_t].tolist() == pytest.approx([10.0, 10.0])

    def test_observation_rows_are_trailing_moves(self, rng):
        series = random_walk(40, rng)
        closes = series.closes()
        for w in (1, 3, 7):
            env = TradingEnv(series, EnvConfig(window=w))
            table = env.observation_table()
            assert table.shape == (len(series) - w, w)
            for t in range(env.first_t, env.last_t + 2):
                window = closes[t - w : t + 1]
                assert table[t - w].tolist() == (100 * np.diff(window) / window[:-1]).tolist()

    def test_hold_never_changes_cash(self, rng):
        series = random_walk(40, rng)
        env = TradingEnv(series, EnvConfig(window=3, transaction_cost=2.0))
        env.reset()
        while not env.terminal:
            env.step(0.0)
        assert env.cash == env.config.initial_cash

    def test_full_long_compounding(self, rng):
        series = random_walk(50, rng)
        env = TradingEnv(series, EnvConfig(window=4, transaction_cost=0.0, initial_cash=5000.0))
        env.reset()
        first_price = series.closes()[env.first_t]
        while not env.terminal:
            env.step(1.0)
        expected = 5000.0 * series.closes()[-1] / first_price
        assert env.cash == pytest.approx(expected, rel=1e-9)

    def test_telescoping(self, rng):
        series = random_walk(60, rng)
        env = TradingEnv(series, EnvConfig(window=3, transaction_cost=0.05))
        env.reset()
        curve = [env.cash]
        total = 0.0
        while not env.terminal:
            reward, _ = env.step(float(rng.uniform(-0.9, 1.0)))
            total += reward
            curve.append(env.cash)
        assert abs(total - episode_return(curve)) < 1e-9

    def test_scale_equivariance(self, rng):
        series = random_walk(40, rng)
        actions = [float(rng.uniform(-1, 1)) for _ in range(40)]
        curves = []
        rewards = []
        for scale in (1.0, 7.5):
            env = TradingEnv(series, EnvConfig(window=3, transaction_cost=0.0,
                                               initial_cash=10_000.0 * scale))
            env.reset()
            curve, rews = [env.cash], []
            for action in actions:
                if env.terminal:
                    break
                reward, _ = env.step(action)
                curve.append(env.cash)
                rews.append(reward)
            curves.append(curve)
            rewards.append(rews)
        ratio = np.array(curves[1]) / np.array(curves[0])
        assert np.allclose(ratio, 7.5, rtol=1e-12)
        assert np.allclose(rewards[0], rewards[1], atol=1e-12)

    def test_long_short_symmetry_without_fees(self):
        for amount in (0.25, 0.6, 1.0):
            long_cash, _ = step_once(1000.0, amount, 50.0, 53.0, 0.0)
            short_cash, _ = step_once(1000.0, -amount, 50.0, 53.0, 0.0)
            assert (long_cash - 1000.0) == pytest.approx(-(short_cash - 1000.0), abs=1e-9)

    def test_fee_monotonicity(self):
        cashes = [step_once(1000.0, 0.8, 50.0, 51.0, tc)[0] for tc in (0.0, 0.1, 0.5, 1.0, 5.0)]
        assert all(a >= b for a, b in zip(cashes, cashes[1:]))

    def test_matches_independent_resimulation(self, rng):
        for _ in range(50):
            n = int(rng.integers(8, 30))
            series = random_walk(n, rng, scale=0.05)
            w = int(rng.integers(1, 4))
            if n < w + 2:
                continue
            tc = float(rng.uniform(0, 0.5))
            env = TradingEnv(series, EnvConfig(window=w, transaction_cost=tc,
                                               initial_cash=float(rng.uniform(100, 1e6))))
            env.reset()
            actions = []
            curve = [env.cash]
            while not env.terminal:
                action = float(rng.uniform(-1, 1))
                actions.append(action)
                env.step(action)
                curve.append(env.cash)
            prices = series.closes()[env.first_t:].tolist()
            expected_curve, _, _ = resimulate(curve[0], actions, prices, [tc] * len(actions))
            assert np.allclose(curve, expected_curve, rtol=1e-9, atol=0.0)


class TestScalarSettle:
    """The env steps on Python floats. Its cash curve and rewards must equal, bit for
    bit, those of ``resimulate`` fed the np.float64 closes of ``PriceSeries.closes()``."""

    def test_bit_identical_to_float64_settle(self, rng):
        kinds = {"zero": 0, "wipe": 0, "override": 0}
        for _ in range(250):
            n = int(rng.integers(4, 30))
            series = random_walk(n, rng, scale=float(rng.choice([0.02, 0.3, 0.9])))
            w = int(rng.integers(1, 3))
            if n < w + 2:
                continue
            config = EnvConfig(window=w, transaction_cost=float(rng.uniform(0, 0.5)),
                               initial_cash=float(rng.uniform(100, 1e6)))
            steps = n - 1 - w
            actions = [float(rng.choice([0.0, -1.0, 1.0, rng.uniform(-1, 1)]))
                       for _ in range(steps)]
            tcs = [None if rng.random() < 0.5 else float(rng.choice([0.0, rng.uniform(0, 2)]))
                   for _ in range(steps)]
            env = TradingEnv(series, config)
            env.reset()
            curve, rewards = [env.cash], []
            for action, tc in zip(actions, tcs):
                reward, terminal = env.step(action, tc=tc)
                assert type(env.cash) is float
                curve.append(env.cash)
                rewards.append(reward)
                if terminal:
                    break
            closes = series.closes()
            assert type(closes[0]) is np.float64
            costs = [config.transaction_cost if tc is None else tc for tc in tcs]
            expected_curve, expected_rewards, _ = resimulate(config.initial_cash, actions,
                                                             closes[w:], costs)
            assert curve == expected_curve
            assert rewards == expected_rewards
            kinds["zero"] += 0.0 in actions[: len(rewards)]
            kinds["wipe"] += len(rewards) < steps
            kinds["override"] += any(tc is not None for tc in tcs[: len(rewards)])
        assert all(count > 0 for count in kinds.values()), kinds


class TestEpisodeReturn:
    def test_hand_example(self):
        assert episode_return([100_000, 105_000, 103_950]) == pytest.approx(math.log(1.0395), abs=1e-12)

    def test_constant_curve(self):
        assert episode_return([5.0, 5.0, 5.0]) == 0.0

    def test_single_point(self):
        assert episode_return([100_000.0]) == 0.0

    def test_empty_curve(self):
        with pytest.raises(ValueError, match="empty"):
            episode_return([])

    def test_non_positive_entry(self):
        with pytest.raises(ValueError, match="non-positive"):
            episode_return([100.0, 0.0])


class TestEnvConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EnvConfig(window=0)
        with pytest.raises(ValueError):
            EnvConfig(transaction_cost=-0.1)
        with pytest.raises(ValueError):
            EnvConfig(initial_cash=0.0)
