import numpy as np
import pytest
from scipy.stats import chisquare

from tradelab.agents import (
    DecaySchedule,
    DqnAgent,
    DqnConfig,
    bootstrap_target,
    q_learning,
    q_learning_update,
    train,
)
from tradelab.env import EnvConfig
from tradelab.neuralnet import clone, forward

from helpers import alternating_series, observation_rows, push_pairs
from oracles import value_iteration


def small_config(**overrides):
    defaults = dict(batch_size=8, warmup_episodes=1, buffer_capacity=500, hidden=(8,),
                    epsilon=DecaySchedule(1.0, 0.1, 5.0), target_sync=10)
    defaults.update(overrides)
    return DqnConfig(**defaults)


def onehot(s, n=3):
    v = np.zeros(n)
    v[s] = 1.0
    return v


def random_connected_mdp(seed, n_states=5, n_actions=2):
    """Deterministic MDP whose action-0 cycle keeps every state reachable."""
    gen = np.random.default_rng(seed)
    ns = np.zeros((n_states, n_actions), dtype=np.int64)
    ns[:, 0] = (np.arange(n_states) + 1) % n_states
    for a in range(1, n_actions):
        ns[:, a] = gen.integers(0, n_states, size=n_states)
    rw = np.round(gen.uniform(-1.0, 1.0, size=(n_states, n_actions)), 3)
    return ns, rw


def dqn_target(r, terminal, gamma, target_q_next):
    """DQN's target: the bootstrap on the best next action value of each row."""
    return bootstrap_target(r, terminal, gamma, np.asarray(target_q_next).max(axis=-1))


class TestTarget:
    def test_terminal_is_reward(self):
        assert dqn_target(np.array([-0.02]), np.array([1.0]), 0.99, [[5.0, 9.0]]).tolist() == [-0.02]

    def test_max_bootstrap(self):
        y = dqn_target(np.array([1.0, 1.0]), np.array([0.0, 1.0]), 0.9, [[0.5, 2.0], [0.5, 2.0]])
        assert y == pytest.approx([2.8, 1.0])

    def test_myopic_limit(self):
        assert dqn_target(np.array([0.3]), np.array([0.0]), 0.0, [[50.0, -2.0]]).tolist() == [0.3]

    def test_empty_q_vector(self):
        # an empty action row has no max to bootstrap on, and no config builds one
        with pytest.raises(ValueError, match="zero-size array"):
            dqn_target(np.array([0.0]), np.array([0.0]), 0.9, np.empty((1, 0)))
        with pytest.raises(ValueError, match="at least two discrete actions"):
            DqnConfig(actions=())

    @pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.5])
    def test_gamma_outside_unit_interval(self, gamma):
        with pytest.raises(ValueError, match=f"gamma must lie in \\[0, 1\\), got {gamma}"):
            bootstrap_target(np.array([0.0]), np.array([0.0]), gamma, np.array([1.0]))


class TestExploration:
    def test_full_exploration_is_uniform(self):
        agent = DqnAgent(2, small_config(epsilon=DecaySchedule(1.0, 1.0, 1.0)), seed=0)
        gen = np.random.default_rng(4)
        draws = [agent.explore_action([0.0, 0.0], 0, gen) for _ in range(10_000)]
        counts = [draws.count(a) for a in agent.config.actions]
        assert chisquare(counts).pvalue > 0.01

    def test_greedy_is_deterministic_argmax(self):
        agent = DqnAgent(2, small_config(epsilon=DecaySchedule(0.0, 0.0, 1.0)), seed=0)
        state = np.array([0.3, -0.7])
        expected = agent.config.actions[int(np.argmax(forward(agent.net, state)))]
        gen = np.random.default_rng(0)
        assert all(agent.explore_action(state, 0, gen) == expected for _ in range(50))

    def test_tie_breaks_to_lowest_index(self):
        agent = DqnAgent(2, small_config(), seed=0)
        agent.net.theta[...] = 0.0
        assert agent.policy([1.0, 1.0]) == agent.config.actions[0] == -1.0

    def test_discrete_action_set(self):
        agent = DqnAgent(2, small_config(actions=(-1.0, 0.0, 1.0)), seed=0)
        gen, reference = np.random.default_rng(1), np.random.default_rng(1)
        drawn = agent.random_actions(gen, 200)
        assert set(drawn) == {-1.0, 0.0, 1.0}
        assert all(type(a) is float for a in drawn)
        assert drawn == [agent.config.actions[reference.integers(3)] for _ in range(200)]
        assert gen.random() == reference.random()  # the streams stayed in step


class TestUpdate:
    def fill(self, agent, gen, n=32):
        push_pairs(agent.buffer, [
            (gen.normal(size=agent.window), float(gen.choice(agent.config.actions)),
             float(gen.normal(scale=0.01)), gen.normal(size=agent.window), False)
            for _ in range(n)
        ])

    def test_target_lag(self, rng):
        agent = DqnAgent(3, small_config(target_sync=5), seed=1)
        self.fill(agent, rng)
        gen = np.random.default_rng(0)
        frozen = agent.target_net.theta.copy()
        for k in range(4):
            agent.update(0, gen)
            assert np.array_equal(frozen, agent.target_net.theta)
        agent.update(0, gen)  # fifth update syncs
        assert not np.array_equal(frozen, agent.target_net.theta)
        assert np.array_equal(agent.net.theta, agent.target_net.theta)

    def test_underfilled_buffer_rejected(self, rng):
        agent = DqnAgent(3, small_config(batch_size=64), seed=1)
        self.fill(agent, rng, n=3)
        with pytest.raises(ValueError, match="batch size"):
            agent.update(0, np.random.default_rng(0))

    def test_foreign_action_rejected(self, rng):
        agent = DqnAgent(2, small_config(batch_size=1), seed=1)
        push_pairs(agent.buffer, [(np.zeros(2), 0.37, 0.0, np.zeros(2), False)])
        with pytest.raises(ValueError, match="not in the discrete action set"):
            agent.update(0, np.random.default_rng(0))

    def test_repeated_action_trains_its_first_index(self, rng):
        agent = DqnAgent(2, small_config(batch_size=4, hidden=(), actions=(-1.0, 1.0, -1.0)), seed=1)
        push_pairs(agent.buffer, [(rng.normal(size=2), -1.0, 1.0, rng.normal(size=2), False)] * 4)
        before = agent.net.weights[0].copy()
        agent.update(0, np.random.default_rng(0))
        moved = (agent.net.weights[0] != before).any(axis=0)
        assert moved.tolist() == [True, False, False]

    def test_chain_mdp_matches_value_iteration(self):
        # 3-state deterministic chain, reward only for moving right from the end
        next_state = np.array([[0, 1], [0, 2], [1, 2]])
        reward = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        gamma = 0.9
        q_star = value_iteration(next_state, reward, gamma)

        cfg = DqnConfig(gamma=gamma, hidden=(), learning_rate=0.05, batch_size=16,
                        target_sync=25, buffer_capacity=5000,
                        epsilon=DecaySchedule(1.0, 1.0, 1.0))
        agent = DqnAgent(3, cfg, seed=0)
        agent.net.theta[...] = 0.0
        agent.target_net = clone(agent.net)

        # one (state, next state) row pair per (s, a): step (s, a) is row 2 * (2s + a)
        agent.buffer.bind(np.array([v for s in range(3) for a in range(2)
                                    for v in (onehot(s), onehot(next_state[s, a]))]))
        gen = np.random.default_rng(0)
        s = 0
        for _ in range(6000):
            a_idx = int(gen.integers(2))
            s2 = int(next_state[s, a_idx])
            agent.buffer.push(2 * (2 * s + a_idx), cfg.actions[a_idx], float(reward[s, a_idx]), False)
            if len(agent.buffer) >= cfg.batch_size:
                agent.update(0, gen)
            s = s2
        learned = np.stack([forward(agent.net, onehot(i)) for i in range(3)])
        assert np.abs(learned - q_star).max() < 1e-3

    def test_dropout_update_runs(self, rng):
        agent = DqnAgent(3, small_config(dropout=0.25), seed=2)
        self.fill(agent, rng)
        diag = agent.update(0, np.random.default_rng(0))
        assert np.isfinite(diag["loss"])


class TestTabular:
    def test_single_update_rule(self):
        q = np.zeros((2, 2))
        q_learning_update(q, 0, 1, 1.0, 1, False, alpha=0.5, gamma=0.9)
        assert q[0, 1] == 0.5
        q_learning_update(q, 0, 1, 1.0, 1, True, alpha=0.5, gamma=0.9)
        assert q[0, 1] == 0.75  # terminal target ignores the bootstrap

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_to_bellman_optimum(self, seed):
        ns, rw = random_connected_mdp(seed)
        q_star = value_iteration(ns, rw, 0.9)
        q = q_learning(ns, rw, gamma=0.9, alpha=0.5, steps=10_000,
                       rng=np.random.default_rng(seed + 100))
        assert np.abs(q - q_star).max() < 1e-3


class TestTraining:
    def test_two_runs_are_bit_identical(self):
        series = alternating_series(40)
        cfg = small_config(warmup_episodes=2)
        params = []
        for _ in range(2):
            agent = DqnAgent(3, cfg, seed=21)
            train(agent, series, EnvConfig(window=3, initial_cash=1000.0), episodes=4, seed=21)
            params.append(agent.net.theta.copy())
        assert np.array_equal(*params)

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        agent = DqnAgent(3, small_config(), seed=3)
        push_pairs(agent.buffer, [(rng.normal(size=3), -1.0, 0.0, rng.normal(size=3), False)
                                  for _ in range(16)])
        agent.update(0, np.random.default_rng(0))
        path = tmp_path / "dqn.npz"
        agent.save(path)
        twin = DqnAgent(3, small_config(), seed=77)
        twin.load(path)
        assert np.array_equal(agent.net.theta, twin.net.theta)

    def test_checkpoint_window_mismatch_names_path_and_window(self, tmp_path):
        path = tmp_path / "dqn.npz"
        DqnAgent(3, small_config(), seed=3).save(path)
        other = DqnAgent(5, small_config(), seed=3)
        dims = other.net.layer_dims
        with pytest.raises(ValueError) as err:
            other.load(path)
        assert str(err.value) == (f"{path}: checkpoint net has layer dims {(3, *dims[1:])}, "
                                  f"but env.window 5 builds {dims}")
        assert other.net.layer_dims == other.target_net.layer_dims == dims


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DqnConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            DqnConfig(actions=(0.5,))
        with pytest.raises(ValueError):
            DqnConfig(actions=(-2.0, 1.0))
        with pytest.raises(ValueError):
            DqnConfig(dropout=1.0)

    @pytest.mark.parametrize("overrides,message", [
        ({"batch_size": 64, "buffer_capacity": 32}, "batch_size 64 exceeds buffer_capacity 32"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"learning_rate": 0.0}, "learning_rate must be > 0, got 0.0"),
        ({"learning_rate": -0.5}, "learning_rate must be > 0, got -0.5"),
    ])
    def test_rejects_values_that_fail_in_training(self, overrides, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            DqnConfig(**overrides)

    def test_batch_may_fill_the_buffer(self):
        assert DqnConfig(batch_size=32, buffer_capacity=32).batch_size == 32


class TestBatchedPolicies:
    """``policies`` runs the network over (k, 1, window) stacks of ``batch_size`` rows;
    each greedy action comes from the bits of a single-row forward."""

    def test_matches_row_by_row_policy(self):
        for actions in ((-1.0, 1.0), (-1.0, 0.0, 1.0)):
            agent = DqnAgent(5, small_config(batch_size=64, actions=actions), seed=3)
            for n in (1, 63, 64, 65, 200):  # around the 64-row block boundary
                rows = observation_rows(5, n, scale=2.0)
                batched = agent.policies(rows)
                vector = [actions[int(np.argmax(forward(agent.net, row)))] for row in rows]
                assert batched == [agent.policy(row) for row in rows] == vector
            assert set(batched) == set(actions)
