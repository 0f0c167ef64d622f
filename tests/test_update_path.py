"""The flat-parameter TD3 and DQN updates: bit-identical to the list-based
oracles on the reference kernel, and making the same kernel calls per update."""

import sys
from collections import Counter

import numpy as np
import pytest

from tradelab import neuralnet
from tradelab.agents import DqnAgent, DqnConfig, Td3Agent, Td3Config

from helpers import push_pairs
from oracles import ListDqnUpdate, ListTd3Update

TD3_NETS = ("actor", "critic1", "critic2", "actor_target", "critic1_target", "critic2_target")


def transitions(window, n, seed, actions=None):
    """(state, action, reward, next_state, terminal) steps."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        action = float(gen.choice(actions)) if actions else float(gen.uniform(-1.0, 1.0))
        out.append((gen.normal(size=window), action, float(gen.normal(scale=0.01)),
                    gen.normal(size=window), bool(gen.random() < 0.1)))
    return out


def twin_agents(cls, window, cfg, actions=None):
    agents = (cls(window, cfg, seed=4), cls(window, cfg, seed=4))
    steps = transitions(window, 200, seed=8, actions=actions)
    for agent in agents:
        push_pairs(agent.buffer, steps)
    return agents


def assert_same_params(flat_net, list_net):
    assert np.array_equal(flat_net.theta, list_net.theta)


@pytest.mark.parametrize("window,hidden", [(5, (8, 6)), (30, (64, 32))])
@pytest.mark.parametrize("clip_norm,clipped", [(1e-6, True), (1e6, False)])
def test_td3_update_matches_list_oracle(window, hidden, clip_norm, clipped):
    cfg = Td3Config(batch_size=16, grad_clip_norm=clip_norm, actor_hidden=hidden, critic_hidden=hidden)
    agent, twin = twin_agents(Td3Agent, window, cfg)
    oracle = ListTd3Update(twin)
    gen_flat, gen_list = np.random.default_rng(21), np.random.default_rng(21)
    delayed = 0
    for step in range(8):
        delayed += agent.update(step, gen_flat)["actor_updated"]
        oracle(step, gen_list)
        for name in TD3_NETS:
            assert_same_params(getattr(agent, name), getattr(twin, name))
    assert delayed == 4
    assert len(oracle.actor_grad_norms) == 4
    assert all((norm > clip_norm) == clipped for norm in oracle.actor_grad_norms)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_dqn_update_matches_list_oracle(dropout):
    cfg = DqnConfig(batch_size=16, target_sync=3, hidden=(8, 6), dropout=dropout,
                    actions=(-1.0, 0.0, 1.0))
    agent, twin = twin_agents(DqnAgent, 5, cfg, actions=cfg.actions)
    oracle = ListDqnUpdate(twin)
    gen_flat, gen_list = np.random.default_rng(5), np.random.default_rng(5)
    for step in range(10):  # three target syncs
        agent.update(step, gen_flat)
        oracle(step, gen_list)
        assert_same_params(agent.net, twin.net)
        assert_same_params(agent.target_net, twin.target_net)
    assert not np.array_equal(agent.target_net.theta, agent.net.theta)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of the kernel functions wherever a tradelab module binds them."""
    counts = Counter()
    modules = [m for n, m in sys.modules.items() if n == "tradelab" or n.startswith("tradelab.")]
    for name in ("forward", "backward", "adam_step", "clip_gradients", "soft_update"):
        original = getattr(neuralnet, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_td3_kernel_calls_per_update(kernel_calls):
    agent, _ = twin_agents(Td3Agent, 5, Td3Config(batch_size=16, actor_hidden=(8,), critic_hidden=(8,)))
    gen = np.random.default_rng(0)
    assert not agent.update(0, gen)["actor_updated"]
    assert kernel_calls == Counter(forward=5, backward=2, adam_step=2)
    kernel_calls.clear()
    assert agent.update(0, gen)["actor_updated"]
    assert kernel_calls == Counter(forward=7, backward=4, adam_step=3, clip_gradients=1, soft_update=3)


def test_dqn_kernel_calls_per_update(kernel_calls):
    agent, _ = twin_agents(DqnAgent, 5, DqnConfig(batch_size=16, hidden=(8,)), actions=(-1.0, 1.0))
    agent.update(0, np.random.default_rng(0))
    assert kernel_calls == Counter(forward=2, backward=1, adam_step=1)
