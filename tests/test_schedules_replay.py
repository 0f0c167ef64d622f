import math
import tracemalloc

import numpy as np
import pytest

from tradelab.agents import (
    DecaySchedule,
    DqnAgent,
    DqnConfig,
    ReplayBuffer,
    Td3Agent,
    Td3Config,
    schedule_value,
    train,
)
from tradelab.env import EnvConfig, TradingEnv

from helpers import make_series, random_walk
from oracles import per_step_train


def filled(capacity: int, n: int) -> ReplayBuffer:
    """Rows 0..n-1 of a table whose row i holds [i]; row i's reward is i."""
    buf = ReplayBuffer(capacity=capacity)
    buf.bind(np.arange(n + 1.0)[:, None])
    for i in range(n):
        buf.push(i, 0.0, float(i), False)
    return buf


class TestSchedule:
    def test_episode_zero_gives_initial(self):
        sched = DecaySchedule(0.5, 0.05, 50.0)
        assert schedule_value(sched, 0) == 0.5

    def test_far_horizon_reaches_final(self):
        sched = DecaySchedule(0.5, 0.05, 50.0)
        assert schedule_value(sched, int(50 * 50.0)) == pytest.approx(0.05, abs=1e-6)

    def test_hand_value(self):
        sched = DecaySchedule(0.5, 0.05, 50.0)
        expected = 0.05 + 0.45 * math.exp(-1.0)
        assert schedule_value(sched, 50) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("sched", [
        DecaySchedule(0.5, 0.05, 50.0),
        DecaySchedule(0.4, 0.1, 50.0),
        DecaySchedule(0.5, 0.2, 50.0),
        DecaySchedule(1.0, 0.05, 50.0),
    ])
    def test_monotone_and_bounded(self, sched):
        values = [schedule_value(sched, ep) for ep in range(0, 2000, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(sched.final <= v <= sched.initial for v in values)

    def test_invariants(self):
        with pytest.raises(ValueError):
            DecaySchedule(0.1, 0.5, 50.0)  # final above initial
        with pytest.raises(ValueError):
            DecaySchedule(0.5, 0.1, 0.0)
        with pytest.raises(ValueError):
            schedule_value(DecaySchedule(0.5, 0.1, 10.0), -1)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = filled(capacity=5, n=8)
        assert len(buf) == 5
        assert buf.items()["reward"].tolist() == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_exact_capacity(self):
        buf = filled(capacity=3, n=3)
        assert buf.items()["reward"].tolist() == [0.0, 1.0, 2.0]

    def test_sample_is_seeded(self):
        a = filled(capacity=10, n=10).sample(6, np.random.default_rng(3))[2].tolist()
        b = filled(capacity=10, n=10).sample(6, np.random.default_rng(3))[2].tolist()
        assert a == b

    def test_sample_with_external_rng(self):
        buf = filled(capacity=4, n=4)
        got = buf.sample(3, np.random.default_rng(0))
        again = buf.sample(3, np.random.default_rng(0))
        assert got[2].tolist() == again[2].tolist()

    def test_sample_gathers_each_row_and_the_next(self):
        s, a, r, s2, term = filled(capacity=5, n=8).sample(50, np.random.default_rng(1))
        assert set(r.tolist()) <= {3.0, 4.0, 5.0, 6.0, 7.0}
        assert np.array_equal(s[:, 0], r) and np.array_equal(s2[:, 0], r + 1.0)
        assert s.shape == s2.shape == (50, 1) and a.shape == term.shape == (50,)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            ReplayBuffer(capacity=2).sample(1, np.random.default_rng(0))

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)

    def test_push_needs_a_next_row_in_the_table(self):
        buf = ReplayBuffer(capacity=4)
        with pytest.raises(ValueError, match="bind"):
            buf.push(0, 0.0, 0.0, False)
        buf.bind(np.zeros((3, 2)))
        buf.push(1, 0.0, 0.0, False)  # its next state is the last row
        for row in (2, 3, -1):
            with pytest.raises(ValueError, match="next row"):
                buf.push(row, 0.0, 0.0, False)
        assert len(buf) == 1

    def test_rebinding_needs_an_equal_table(self):
        buf = ReplayBuffer(capacity=4)
        table = np.arange(8.0).reshape(4, 2)
        buf.bind(np.ones((4, 2)))
        buf.bind(table)  # nothing held yet, so any table will do
        buf.push(0, 0.0, 0.0, False)
        buf.bind(table.copy())
        for other in (table + 1.0, table[:3], np.arange(12.0).reshape(4, 3)):
            with pytest.raises(ValueError, match="different observation table"):
                buf.bind(other)
        assert buf.observations is not None and np.array_equal(buf.observations, table)


def spiked_series(n=40, spike_at=20, seed=4):
    """A random walk whose close triples once: a short held into it is wiped."""
    closes = [bar.close for bar in random_walk(n, np.random.default_rng(seed)).bars]
    closes[spike_at + 1:] = [3.0 * c for c in closes[spike_at + 1:]]
    return make_series(closes)


def small_td3(**overrides):
    return Td3Config(**{"batch_size": 8, "actor_hidden": (4,), "critic_hidden": (4,), **overrides})


def small_dqn(**overrides):
    return DqnConfig(**{"batch_size": 8, "hidden": (4,), **overrides})


class TestTrainingRows:
    WINDOW = 3

    def test_rows_gather_the_observations_the_env_returned(self, monkeypatch):
        series, env_cfg = spiked_series(), EnvConfig(window=self.WINDOW)
        seen = []  # (t, next observation, terminal) of every step, in order
        original_step = TradingEnv.step

        def recording_step(env, action, tc=None):
            t = env.t
            reward, terminal = original_step(env, action, tc)
            seen.append((t, env.observation_table()[env.t - env.first_t].copy(), terminal))
            return reward, terminal

        monkeypatch.setattr(TradingEnv, "step", recording_step)
        agent = Td3Agent(self.WINDOW, small_td3(warmup_episodes=8), seed=0)
        train(agent, series, env_cfg, episodes=8, seed=3)
        env = TradingEnv(series, env_cfg)
        observations = np.array(env.observation_table())  # row t - w is the observation at t
        terminal_ts = {t for t, _, terminal in seen if terminal}
        assert env.last_t in terminal_ts  # a final step
        assert any(t < env.last_t for t in terminal_ts)  # a wiped step, mid-episode

        rows = agent.buffer.items()
        assert len(rows) == len(seen)
        table = agent.buffer.observations
        for stored, (t, next_obs, terminal) in zip(rows, seen):
            assert stored["row"] == t - self.WINDOW
            assert np.array_equal(table[stored["row"]], observations[t - self.WINDOW])
            assert np.array_equal(table[stored["row"] + 1], next_obs)
            assert np.array_equal(next_obs, observations[t + 1 - self.WINDOW])
            assert stored["terminal"] == terminal

        # the buffer never wrapped, so slot i holds step i
        slots = np.random.default_rng(9).integers(0, len(seen), size=400)
        s, _, _, s2, term = agent.buffer.sample(400, np.random.default_rng(9))
        for i, slot in enumerate(slots):
            t, next_obs, terminal = seen[slot]
            assert np.array_equal(s[i], observations[t - self.WINDOW])
            assert np.array_equal(s2[i], next_obs)
            assert term[i] == terminal

    def test_retraining_needs_the_same_segment(self):
        env_cfg = EnvConfig(window=self.WINDOW)
        series = random_walk(30, np.random.default_rng(1))
        agent = Td3Agent(self.WINDOW, small_td3(warmup_episodes=2), seed=0)
        train(agent, series, env_cfg, episodes=1, seed=0)
        held = len(agent.buffer)
        train(agent, series, env_cfg, episodes=1, seed=1)
        assert len(agent.buffer) == 2 * held
        with pytest.raises(ValueError, match="different observation table"):
            train(agent, random_walk(30, np.random.default_rng(2)), env_cfg, episodes=1, seed=0)

    def test_rows_cost_only_the_ring(self):
        """Training rows are indices: 20,000 of them retain only the ring's bytes."""
        rows = 20_000
        agent = Td3Agent(self.WINDOW, small_td3(warmup_episodes=10, buffer_capacity=rows), seed=0)
        series = random_walk(self.WINDOW + rows // 10 + 1, np.random.default_rng(5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train(agent, series, EnvConfig(window=self.WINDOW), episodes=10, seed=0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(agent.buffer) == rows
        assert grown <= agent.buffer.items().nbytes + 64 * 1024


class TestWarmupStream:
    """A warmup episode draws its actions at once and rewinds the generator when a
    wipe ends it early, so training matches one draw per step bit for bit."""

    WINDOW = 3
    WARMUP = 6
    AGENTS = {  # TD3 bounds read from JSON are ints
        "td3_int_bounds": (Td3Agent, small_td3(warmup_episodes=WARMUP, action_low=-1, action_high=1)),
        "dqn_2_actions": (DqnAgent, small_dqn(warmup_episodes=WARMUP, actions=(-1.0, 1.0))),
        "dqn_3_actions": (DqnAgent, small_dqn(warmup_episodes=WARMUP, actions=(-1.0, 0.0, 1.0))),
    }

    def make(self, kind):
        cls, cfg = self.AGENTS[kind]
        return cls(self.WINDOW, cfg, seed=2)

    def episode_lengths(self, agent, series):
        """Steps of each episode in the buffer, and the steps of a full pass."""
        rows = agent.buffer.items()
        ends = np.flatnonzero(rows["terminal"] == 1.0)
        env = TradingEnv(series, EnvConfig(window=self.WINDOW))
        return np.diff(ends, prepend=-1), env.last_t - env.first_t + 1

    @pytest.mark.parametrize("kind", AGENTS)
    def test_matches_per_step_draws(self, kind):
        series, env_cfg = spiked_series(), EnvConfig(window=self.WINDOW)
        agent, reference = self.make(kind), self.make(kind)
        episodes = self.WARMUP + 3
        log = train(agent, series, env_cfg, episodes, seed=5)
        expected = per_step_train(reference, series, env_cfg, episodes, seed=5)

        lengths, steps = self.episode_lengths(agent, series)
        assert len(lengths) == episodes
        assert 0 < np.sum(lengths[: self.WARMUP] < steps) < self.WARMUP  # wipes mid-warmup
        assert all(not math.isnan(r["mean_loss"]) for r in log[self.WARMUP:])  # then it learns
        assert agent.buffer.items().tobytes() == reference.buffer.items().tobytes()
        np.testing.assert_equal(log, expected)
        theta = reference.snapshot()
        for name, values in agent.snapshot().items():
            assert np.array_equal(values, theta[name]), name

    @pytest.mark.parametrize("kind", AGENTS)
    def test_one_draw_per_warmup_episode(self, kind, monkeypatch):
        series = spiked_series()
        agent = self.make(kind)
        sizes = []
        draw = agent.random_actions

        def counted(rng, n):
            sizes.append(n)
            return draw(rng, n)

        monkeypatch.setattr(agent, "random_actions", counted)
        train(agent, series, EnvConfig(window=self.WINDOW), self.WARMUP, seed=5)
        lengths, steps = self.episode_lengths(agent, series)
        assert 0 < np.sum(lengths < steps) < self.WARMUP
        # each episode draws a full pass; a wiped one then redraws the steps it took
        assert sizes == [n for k in lengths.tolist() for n in ([steps] if k == steps else [steps, k])]
