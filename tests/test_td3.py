import json

import numpy as np
import pytest

import tradelab.agents.td3 as td3_module
from tradelab.agents import (
    DecaySchedule,
    Td3Agent,
    Td3Config,
    actor_gradient,
    bootstrap_target,
    td3_select_action,
    td3_target_action,
    train,
)
from tradelab.env import EnvConfig
from tradelab.neuralnet import config_hash, create_mlp, forward

from helpers import alternating_series, observation_rows, push_pairs
from oracles import finite_difference_grads, rel_close


def small_config(**overrides):
    defaults = dict(
        batch_size=8,
        warmup_episodes=1,
        buffer_capacity=500,
        actor_hidden=(8,),
        critic_hidden=(8,),
        exploration_noise=DecaySchedule(0.3, 0.05, 5.0),
        policy_noise=DecaySchedule(0.2, 0.1, 5.0),
        noise_clip=DecaySchedule(0.5, 0.2, 5.0),
    )
    defaults.update(overrides)
    return Td3Config(**defaults)


def zero_actor(window):
    net = create_mlp((window, 4, 1), np.random.default_rng(0), output_activation="tanh")
    net.theta[...] = 0.0
    return net


class StubRng:
    """Feeds a fixed normal draw; only what td3_target_action touches."""

    def __init__(self, draw):
        self.draw = draw

    def normal(self, loc, scale, size):
        return np.full(size, self.draw)


class TestSelectAction:
    def test_noiseless_is_policy_output(self, rng):
        actor = create_mlp((3, 4, 1), rng, output_activation="tanh")
        state = rng.normal(size=3)
        expected = float(forward(actor, state)[0])
        assert td3_select_action(actor, state, 0.0, -1.0, 1.0, rng) == expected

    def test_zero_network_acts_zero(self, rng):
        assert td3_select_action(zero_actor(3), [1.0, 2.0, 3.0], 0.0, -1.0, 1.0, rng) == 0.0

    def test_noise_is_centered(self):
        actor = zero_actor(2)
        gen = np.random.default_rng(99)
        draws = [td3_select_action(actor, [0.0, 0.0], 0.2, -1.0, 1.0, gen) for _ in range(10_000)]
        assert abs(float(np.mean(draws))) < 0.01

    def test_clamped_to_unit_interval(self):
        actor = zero_actor(1)
        gen = np.random.default_rng(5)
        draws = [td3_select_action(actor, [0.0], 5.0, -1.0, 1.0, gen) for _ in range(500)]
        assert all(-1.0 <= a <= 1.0 for a in draws)
        assert any(abs(a) == 1.0 for a in draws)


class TestTargetAction:
    def test_noiseless(self, rng):
        actor = create_mlp((2, 3, 1), rng, output_activation="tanh")
        states = np.array([[0.5, -0.5], [3.0, 1.0]])
        expected = np.clip(forward(actor, states), -0.9, 0.8)
        got = td3_target_action(actor, states, 0.0, 0.4, -0.9, 0.8, rng)
        assert got.shape == (2, 1)
        assert np.array_equal(got, expected)

    def test_zero_clip_kills_noise(self, rng):
        actor = zero_actor(2)
        got = td3_target_action(actor, np.ones((3, 2)), 0.3, 0.0, -1.0, 1.0, np.random.default_rng(1))
        assert np.array_equal(got, np.zeros((3, 1)))

    def test_double_clip_hand_example(self):
        # policy output 0.9, raw draw +0.5 clipped to +0.3, sum clipped to 1.0
        actor = zero_actor(1)
        actor.biases[-1][:] = np.arctanh(0.9)
        got = td3_target_action(actor, np.zeros((2, 1)), 0.2, 0.3, -1.0, 1.0, StubRng(0.5))
        assert got == pytest.approx(np.ones((2, 1)), abs=1e-12)

    def test_noise_stays_within_clip(self):
        actor = zero_actor(1)
        gen = np.random.default_rng(2)
        a = td3_target_action(actor, np.zeros((2000, 1)), 1.0, 0.25, -1.0, 1.0, gen)
        assert np.all((-0.25 <= a) & (a <= 0.25))

    def test_one_draw_per_batch_only_when_noisy(self):
        actor = zero_actor(1)
        gen, twin = np.random.default_rng(3), np.random.default_rng(3)
        td3_target_action(actor, np.zeros((5, 1)), 0.0, 0.5, -1.0, 1.0, gen)
        assert gen.random() == twin.random()
        got = td3_target_action(actor, np.zeros((5, 1)), 0.2, 0.5, -1.0, 1.0, gen)
        assert np.array_equal(got, np.clip(twin.normal(0.0, 0.2, size=(5, 1)), -0.5, 0.5))


def critic_target(r, terminal, gamma, q1_next, q2_next):
    """TD3's target: the bootstrap on the smaller of the twin target critics."""
    return bootstrap_target(r, terminal, gamma, np.minimum(q1_next, q2_next))


class TestCriticTarget:
    def test_terminal_is_reward(self):
        y = critic_target(np.array([0.05]), np.array([1.0]), 0.99, np.array([3.0]), np.array([4.0]))
        assert y.tolist() == [0.05]

    def test_min_of_twin_critics(self):
        y = critic_target(np.array([0.1]), np.array([0.0]), 0.99, np.array([1.0]), np.array([0.8]))
        assert y == pytest.approx([0.892])

    def test_equal_critics_reduce(self):
        y = critic_target(np.array([0.2]), np.array([0.0]), 0.9, np.array([0.7]), np.array([0.7]))
        assert y == pytest.approx([0.2 + 0.9 * 0.7])

    def test_min_bound_property(self, rng):
        r, q1, q2 = rng.normal(size=(3, 200))
        y = critic_target(r, np.zeros(200), 0.99, q1, q2)
        assert np.all(y <= r + 0.99 * q1 + 1e-12)
        assert np.all(y <= r + 0.99 * q2 + 1e-12)


def fill_buffer(agent, rng, n=32, window=3):
    push_pairs(agent.buffer, [
        (rng.normal(size=window), float(rng.uniform(-1, 1)), float(rng.normal(scale=0.01)),
         rng.normal(size=window), False)
        for _ in range(n)
    ])


class TestUpdate:
    def test_delayed_actor_and_targets(self, rng):
        agent = Td3Agent(3, small_config(policy_delay=3), seed=1)
        fill_buffer(agent, rng)
        before_actor = agent.actor.theta.copy()
        before_targets = agent.critic1_target.theta.copy()
        gen = np.random.default_rng(0)
        d1 = agent.update(0, gen)
        d2 = agent.update(0, gen)
        assert not d1["actor_updated"] and not d2["actor_updated"]
        assert np.array_equal(before_actor, agent.actor.theta)
        assert np.array_equal(before_targets, agent.critic1_target.theta)
        d3 = agent.update(0, gen)
        assert d3["actor_updated"]
        assert not np.array_equal(before_actor, agent.actor.theta)

    def test_critics_move_every_update(self, rng):
        agent = Td3Agent(3, small_config(), seed=2)
        fill_buffer(agent, rng)
        before = agent.critic1.theta.copy()
        agent.update(0, np.random.default_rng(0))
        assert not np.array_equal(before, agent.critic1.theta)

    def test_underfilled_buffer_rejected(self, rng):
        agent = Td3Agent(3, small_config(batch_size=16), seed=0)
        fill_buffer(agent, rng, n=4)
        with pytest.raises(ValueError, match="batch size"):
            agent.update(0, np.random.default_rng(0))

    def test_overfits_single_terminal_transition(self, rng):
        agent = Td3Agent(2, small_config(batch_size=4, policy_delay=2), seed=3)
        fixed = (np.array([1.0, -1.0]), 0.5, 0.07, np.array([0.0, 0.0]), True)
        push_pairs(agent.buffer, [fixed] * agent.config.batch_size)
        gen = np.random.default_rng(1)
        loss = None
        for _ in range(3000):
            loss = agent.update(0, gen)["critic1_loss"]
        assert loss < 1e-6

    def test_actor_gradient_matches_finite_differences(self, rng):
        actor = create_mlp((2, 3, 1), rng, output_activation="tanh")
        critic = create_mlp((3, 4, 1), rng)
        states = rng.normal(size=(6, 2))
        grad, _ = actor_gradient(actor, critic, states)

        def objective():
            actions = forward(actor, states)
            q = forward(critic, np.hstack([states, actions]))
            return float(np.mean(q))

        fd = finite_difference_grads(objective, [actor.theta])[0]
        for g, w in zip(grad, fd):
            assert rel_close(g, w)


class TestTraining:
    def test_two_runs_are_bit_identical(self):
        series = alternating_series(40)
        cfg = small_config(warmup_episodes=2)
        env_cfg = EnvConfig(window=3, initial_cash=1000.0)
        params = []
        for _ in range(2):
            agent = Td3Agent(3, cfg, seed=11)
            train(agent, series, env_cfg, episodes=4, seed=11)
            params.append(agent.actor.theta.copy())
        assert np.array_equal(*params)

    def test_warmup_only_leaves_params_untouched(self):
        series = alternating_series(40)
        cfg = small_config(warmup_episodes=3)
        agent = Td3Agent(3, cfg, seed=5)
        before = agent.actor.theta.copy()
        log = train(agent, series, EnvConfig(window=3), episodes=3, seed=5)
        assert all(rec["warmup"] for rec in log)
        assert np.array_equal(before, agent.actor.theta)
        assert len(agent.buffer) > 0

    def test_learns_alternating_pattern_single_seed(self):
        series = alternating_series(160)
        env_cfg = EnvConfig(window=2, initial_cash=1000.0)
        cfg = small_config(
            warmup_episodes=3,
            batch_size=32,
            actor_hidden=(16, 8),
            critic_hidden=(16, 8),
            exploration_noise=DecaySchedule(0.5, 0.05, 5.0),
        )
        agent = Td3Agent(2, cfg, seed=0)
        train(agent, series, env_cfg, episodes=15, seed=0)
        # the learned policy should long after a down day and short after an up day
        up_state = np.array([-1.0, 1.0])   # newest move was +1%
        down_state = np.array([1.0, -1.0])
        assert agent.policy(up_state) < 0
        assert agent.policy(down_state) > 0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        agent = Td3Agent(3, small_config(), seed=7)
        fill_buffer(agent, rng)
        agent.update(0, np.random.default_rng(0))
        agent.episodes_trained = 9
        path = tmp_path / "agent.npz"
        agent.save(path)
        twin = Td3Agent(3, small_config(), seed=99)
        twin.load(path)
        assert twin.episodes_trained == 9
        assert np.array_equal(agent.actor.theta, twin.actor.theta)
        assert np.array_equal(agent.critic2_target.theta, twin.critic2_target.theta)

    def test_config_mismatch_rejected(self, tmp_path):
        agent = Td3Agent(3, small_config(), seed=7)
        path = tmp_path / "agent.npz"
        agent.save(path)
        other = Td3Agent(3, small_config(gamma=0.5), seed=7)
        with pytest.raises(ValueError, match="different configuration"):
            other.load(path)

    def test_window_mismatch_names_path_and_window(self, tmp_path):
        path = tmp_path / "agent.npz"
        Td3Agent(3, small_config(), seed=7).save(path)
        other = Td3Agent(4, small_config(), seed=7)
        with pytest.raises(ValueError) as err:
            other.load(path)
        assert str(err.value) == (f"{path}: checkpoint actor has layer dims (3, 8, 1), "
                                  "but env.window 4 builds (4, 8, 1)")
        assert other.actor.layer_dims == (4, 8, 1)  # nothing was replaced


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Td3Config(gamma=1.0)
        with pytest.raises(ValueError):
            Td3Config(action_low=0.5, action_high=0.5)
        with pytest.raises(ValueError):
            Td3Config(action_high=1.5)

    @pytest.mark.parametrize("overrides,message", [
        ({"batch_size": 64, "buffer_capacity": 32}, "batch_size 64 exceeds buffer_capacity 32"),
        ({"tau": -0.1}, r"tau must lie in \[0, 1\], got -0.1"),
        ({"tau": 1.5}, r"tau must lie in \[0, 1\], got 1.5"),
        ({"grad_clip_norm": 0.0}, "grad_clip_norm must be > 0, got 0.0"),
        ({"actor_lr": 0.0}, "actor_lr must be > 0, got 0.0"),
        ({"critic_lr": -1e-3}, "critic_lr must be > 0, got -0.001"),
    ])
    def test_rejects_values_that_fail_in_training(self, overrides, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            Td3Config(**overrides)

    def test_accepts_the_boundary_values(self):
        Td3Config(batch_size=32, buffer_capacity=32, tau=0.0)
        Td3Config(tau=1.0)

    def test_hash_is_stable_and_sensitive(self):
        assert config_hash(Td3Config()) == config_hash(Td3Config()) == "086e70cfa5a75711"
        assert config_hash(Td3Config(tau=0.01)) == "78562e7fc3d6bbd6"


class TestActionBounds:
    def bounded_agent(self):
        agent = Td3Agent(3, small_config(action_low=-0.2, action_high=0.2), seed=0)
        agent.actor.biases[-1][:] = 2.0  # raw actor output near 0.96
        return agent

    def test_policy_is_clamped(self):
        assert self.bounded_agent().policy(np.zeros(3)) == 0.2

    def test_explore_action_is_clamped(self):
        agent = self.bounded_agent()
        gen = np.random.default_rng(0)
        draws = [agent.explore_action(np.zeros(3), 0, gen) for _ in range(200)]
        assert max(draws) == 0.2
        assert min(draws) >= -0.2


class TestScalarActions:
    """The scalar clamp and uniform draw reproduce np.clip and rng.uniform exactly."""

    BOUNDS = ((-1.0, 1.0), (-0.37, 0.91), (0.1, 0.3))

    @pytest.mark.parametrize("low,high", BOUNDS)
    def test_random_action_is_rng_uniform(self, low, high):
        agent = Td3Agent(3, small_config(action_low=low, action_high=high), seed=0)
        ours, reference = np.random.default_rng(41), np.random.default_rng(41)
        drawn = agent.random_actions(ours, 20_000)
        assert len(drawn) == 20_000
        for a in drawn:
            assert type(a) is float
            assert a == float(reference.uniform(low, high))
        assert ours.random() == reference.random()  # the streams stayed in step

    @pytest.mark.parametrize("low,high", BOUNDS)
    def test_clamp_is_np_clip(self, monkeypatch, low, high):
        agent = Td3Agent(3, small_config(action_low=low, action_high=high), seed=0)
        rng = np.random.default_rng(0)
        eps = 1e-12
        raws = (low - 0.5, low - eps, low, low + eps, 0.5 * (low + high), -0.0,
                high - eps, high, high + eps, high + 0.5)
        for raw in raws:
            monkeypatch.setattr(td3_module, "forward", lambda net, state, raw=raw: np.array([raw]))
            expected = float(np.clip(raw, low, high))
            for got in (agent.policy(np.zeros(3)),
                        td3_select_action(agent.actor, np.zeros(3), 0.0, low, high, rng)):
                assert type(got) is float
                assert got == expected
                assert np.signbit(got) == np.signbit(expected)


class TestBatchedPolicies:
    """``policies`` runs the actor over (k, 1, window) stacks of ``batch_size`` rows; each
    action has the bits of a single-row forward and is clamped the same way."""

    @pytest.mark.parametrize("bounds", [
        {"action_low": -1.0, "action_high": 1.0},
        {"action_low": -0.2, "action_high": 0.2},
        json.loads('{"action_low": -1, "action_high": 1}'),
    ])
    def test_matches_row_by_row_policy(self, bounds):
        agent = Td3Agent(5, small_config(batch_size=64, **bounds), seed=3)
        low, high = bounds["action_low"], bounds["action_high"]
        for n in (1, 63, 64, 65, 200):  # around the 64-row block boundary
            rows = observation_rows(5, n)
            batched = agent.policies(rows)
            vector = [float(np.clip(forward(agent.actor, row)[0], low, high)) for row in rows]
            assert all(type(a) is float for a in batched)
            assert batched == [agent.policy(row) for row in rows] == vector
            assert all(low <= a <= high for a in batched)
        if high < 1:  # the bounds bind on some rows
            assert high in batched and low in batched
