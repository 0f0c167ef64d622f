import math

import numpy as np
import pytest

from tradelab.env import CASH_FLOOR, EnvConfig, EnvState, TradingEnv, episode_return, settle, step

from helpers import make_series, random_walk
from oracles import resimulate


class TestSettle:
    def test_half_long_no_fee(self):
        cash, shares, committed, fee, wiped = settle(100_000, 0.5, 100, 110, 0.0)
        assert committed == 50_000
        assert shares == 500
        assert fee == 0.0
        assert cash == pytest.approx(105_000, rel=1e-12)
        assert not wiped

    def test_hold_action(self):
        cash, shares, committed, fee, wiped = settle(100_000, 0.0, 100, 37, 5.0)
        assert (cash, shares, committed, fee, wiped) == (100_000, 0.0, 0.0, 0.0, False)

    def test_full_short_with_fee(self):
        cash, shares, committed, fee, wiped = settle(100_000, -1.0, 100, 90, 0.1)
        assert committed == 100_000
        assert shares == 1000
        assert fee == pytest.approx(100.0)
        assert cash == pytest.approx(109_900, rel=1e-12)
        assert not wiped

    def test_short_wipeout_floors_cash(self):
        # short loss of 110000 exceeds the committed 100000
        cash, shares, committed, fee, wiped = settle(100_000, -1.0, 100, 210, 0.0)
        assert wiped
        assert cash == CASH_FLOOR

    def test_partial_wipeout_keeps_uncommitted_cash(self):
        cash, _, committed, _, wiped = settle(100_000, -0.5, 100, 250, 0.0)
        assert wiped
        assert committed == 50_000
        assert cash == 50_000  # the uncommitted half survives

    def test_action_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            settle(100.0, 1.5, 10, 11, 0.0)
        with pytest.raises(ValueError, match="outside"):
            settle(100.0, float("nan"), 10, 11, 0.0)

    def test_non_positive_price(self):
        with pytest.raises(ValueError, match="positive"):
            settle(100.0, 0.5, 0.0, 11, 0.0)


class TestStepFunction:
    def test_reward_is_log_growth(self):
        state = EnvState(t=5, cash=100_000)
        out = step(state, 0.5, 100, 110, EnvConfig(window=2))
        assert out.next_state.cash == pytest.approx(105_000)
        assert out.reward == pytest.approx(math.log(1.05), abs=1e-12)
        assert out.next_state.t == 6
        assert out.info["held_shares"] == 500

    def test_hold_reward_zero(self):
        out = step(EnvState(t=0, cash=100_000), 0.0, 100, 90, EnvConfig(window=1))
        assert out.next_state.cash == 100_000
        assert out.reward == 0.0

    def test_terminal_state_rejected(self):
        with pytest.raises(ValueError, match="terminal"):
            step(EnvState(t=0, cash=1.0, terminal=True), 0.0, 1, 1, EnvConfig(window=1))

    def test_wipe_marks_terminal(self):
        out = step(EnvState(t=0, cash=100_000), -1.0, 100, 210, EnvConfig(window=1))
        assert out.next_state.terminal
        assert out.next_state.cash == CASH_FLOOR
        assert out.reward == pytest.approx(math.log(CASH_FLOOR / 100_000))


class TestTradingEnv:
    def test_reset_contract(self):
        env = TradingEnv(make_series([100] * 33), EnvConfig(window=30, initial_cash=100_000))
        state, obs = env.reset()
        assert state.cash == 100_000
        assert not state.terminal
        assert state.t == 30
        assert obs.shape == (30,)

    def test_minimum_segment_has_one_step(self):
        # w + 2 prices: one full window plus one tradable day
        env = TradingEnv(make_series([100, 101, 102, 103]), EnvConfig(window=2))
        env.reset()
        assert env.n_steps() == 1
        out = env.step(1.0)
        assert out.next_state.terminal

    def test_segment_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            TradingEnv(make_series([100, 101]), EnvConfig(window=2))
        with pytest.raises(ValueError, match="too short"):
            TradingEnv(make_series([100, 101, 102]), EnvConfig(window=2))

    def test_observation_alignment_excludes_traded_return(self):
        series = make_series([100, 110, 121, 133.1, 146.41])
        env = TradingEnv(series, EnvConfig(window=2))
        _, obs = env.reset()
        # the window ends with the move into the position-opening bar
        assert obs.tolist() == pytest.approx([10.0, 10.0])
        out = env.step(1.0)
        assert out.observation.tolist() == pytest.approx([10.0, 10.0])

    def test_hold_never_changes_cash(self, rng):
        series = random_walk(40, rng)
        env = TradingEnv(series, EnvConfig(window=3, transaction_cost=2.0))
        state, _ = env.reset()
        while not state.terminal:
            state = env.step(0.0).next_state
        assert state.cash == env.config.initial_cash

    def test_full_long_compounding(self, rng):
        series = random_walk(50, rng)
        env = TradingEnv(series, EnvConfig(window=4, transaction_cost=0.0, initial_cash=5000.0))
        state, _ = env.reset()
        first_price = series.bars[env.first_t].close
        while not state.terminal:
            state = env.step(1.0).next_state
        expected = 5000.0 * series.bars[-1].close / first_price
        assert state.cash == pytest.approx(expected, rel=1e-9)

    def test_telescoping(self, rng):
        series = random_walk(60, rng)
        env = TradingEnv(series, EnvConfig(window=3, transaction_cost=0.05))
        state, _ = env.reset()
        curve = [state.cash]
        total = 0.0
        while not state.terminal:
            out = env.step(float(rng.uniform(-0.9, 1.0)))
            total += out.reward
            state = out.next_state
            curve.append(state.cash)
        assert abs(total - episode_return(curve)) < 1e-9

    def test_scale_equivariance(self, rng):
        series = random_walk(40, rng)
        actions = [float(rng.uniform(-1, 1)) for _ in range(40)]
        curves = []
        rewards = []
        for scale in (1.0, 7.5):
            env = TradingEnv(series, EnvConfig(window=3, transaction_cost=0.0,
                                               initial_cash=10_000.0 * scale))
            state, _ = env.reset()
            curve, rews = [state.cash], []
            for action in actions:
                if state.terminal:
                    break
                out = env.step(action)
                state = out.next_state
                curve.append(state.cash)
                rews.append(out.reward)
            curves.append(curve)
            rewards.append(rews)
        ratio = np.array(curves[1]) / np.array(curves[0])
        assert np.allclose(ratio, 7.5, rtol=1e-12)
        assert np.allclose(rewards[0], rewards[1], atol=1e-12)

    def test_long_short_symmetry_without_fees(self):
        for amount in (0.25, 0.6, 1.0):
            long_cash, *_ = settle(1000.0, amount, 50.0, 53.0, 0.0)
            short_cash, *_ = settle(1000.0, -amount, 50.0, 53.0, 0.0)
            assert (long_cash - 1000.0) == pytest.approx(-(short_cash - 1000.0), abs=1e-9)

    def test_fee_monotonicity(self):
        cashes = [settle(1000.0, 0.8, 50.0, 51.0, tc)[0] for tc in (0.0, 0.1, 0.5, 1.0, 5.0)]
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
            state, _ = env.reset()
            actions = []
            curve = [state.cash]
            while not state.terminal:
                action = float(rng.uniform(-1, 1))
                actions.append(action)
                state = env.step(action).next_state
                curve.append(state.cash)
            prices = [b.close for b in series.bars[env.first_t:]]
            expected_curve, _, _ = resimulate(curve[0], actions, prices, [tc] * len(actions))
            assert np.allclose(curve, expected_curve, rtol=1e-9, atol=0.0)


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
