"""Call counts of one tiny experiment, derived the way
``perfbench/workloads.expected_counts`` derives a workload's counts from its
config and segment lengths, so that a count break shows here before a traced
benchmark run.

The prices are ``spiked_series``, whose spike wipes a short held into it, so
some warmup episodes end early: the training counts follow the steps taken,
which the replay buffers record, rather than the bars.
"""

from collections import Counter

import numpy as np
import pytest

import tradelab.harness as harness
from tradelab.agents import DqnAgent, DqnConfig, ReplayBuffer, Td3Agent, Td3Config
from tradelab.baselines import KINDS
from tradelab.data import SplitSpec
from tradelab.env import EnvConfig, TradingEnv

from helpers import held_rows, spiked_series

WINDOW, EPISODES, WARMUP, BATCH = 3, 8, 6, 8


def updates_of(lengths, batch=BATCH):
    """Gradient updates of one agent: one per post-warmup step once a batch fits."""
    pushed = updates = 0
    for episode, steps in enumerate(lengths):
        if episode >= WARMUP:
            updates += sum(pushed + j >= batch for j in range(1, steps + 1))
        pushed += steps
    return updates


@pytest.fixture
def counted(monkeypatch):
    """Calls of each wrapped function, by name, and of ``TradingEnv.step`` by the
    pass it ran in: training, a validation pass or a test pass."""
    calls = Counter()
    passes = ["train"]

    def wrap(owner, attr, name):
        fn = getattr(owner, attr)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    for owner, attr in ((TradingEnv, "reset"), (ReplayBuffer, "push"), (ReplayBuffer, "sample"),
                        (Td3Agent, "update"), (DqnAgent, "update"), (harness, "act")):
        wrap(owner, attr, attr if owner is harness else f"{owner.__name__}.{attr}")
    step, evaluate = TradingEnv.step, harness.evaluate_policy

    def counting_step(env, *args, **kwargs):
        calls[f"step.{passes[-1]}"] += 1
        return step(env, *args, **kwargs)

    def counting_evaluate(policy, segment, env_config, strategy, *args, **kwargs):
        passes.append("validation" if strategy == "validation" else "test")
        calls[f"evaluate_policy.{passes[-1]}"] += 1
        try:
            return evaluate(policy, segment, env_config, strategy, *args, **kwargs)
        finally:
            passes.pop()

    monkeypatch.setattr(TradingEnv, "step", counting_step)
    monkeypatch.setattr(harness, "evaluate_policy", counting_evaluate)
    return calls


def test_counts_follow_the_config_and_the_steps_taken(tmp_path, counted, train_buffers):
    series = spiked_series()
    lines = ["Date,Open,High,Low,Close,Volume"]
    lines += [f"{d},{c},{c},{c},{c},100" for d, c in zip(series.dates(), series.closes().tolist())]
    (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")
    cfg = harness.ExperimentConfig(
        dataset_path=str(tmp_path / "prices.csv"), split=SplitSpec(0.6, 0.2, 0.2),
        env=EnvConfig(window=WINDOW, transaction_cost=0.1), episodes=EPISODES, ma_window=WINDOW,
        td3=Td3Config(batch_size=BATCH, warmup_episodes=WARMUP, actor_hidden=(4,), critic_hidden=(4,)),
        dqn=DqnConfig(batch_size=BATCH, warmup_episodes=WARMUP, hidden=(4,)),
        output_dir=str(tmp_path / "out"))
    harness.run_experiment(cfg)

    n_tr, n_va, n_te = (len(s) - WINDOW - 1 for s in harness.load_segments(cfg))
    assert n_tr > 20 - WINDOW  # the spike is in the training segment
    lengths = []  # each agent's episode lengths, read from the terminal flags of its buffer
    for buffer in train_buffers:
        ends = np.flatnonzero(held_rows(buffer)["terminal"])
        assert buffer._pushed == len(buffer) and len(ends) == EPISODES
        lengths.append(np.diff(ends, prepend=-1).tolist())
    assert all(0 < sum(n < n_tr for n in agent[:WARMUP]) < WARMUP for agent in lengths)  # wipes
    taken = sum(map(sum, lengths))
    updates = [updates_of(agent) for agent in lengths]
    agents, strategies = len(lengths), len(cfg.strategies)
    assert agents == 2 and strategies == len(harness.ALL_STRATEGIES)
    assert dict(counted) == {
        "TradingEnv.reset": 2 * agents * EPISODES + strategies,
        "step.train": taken,  # once per step taken, wiped warmup episodes included
        "ReplayBuffer.push": taken,
        "Td3Agent.update": updates[0],
        "DqnAgent.update": updates[1],
        "ReplayBuffer.sample": sum(updates),
        "evaluate_policy.validation": agents * EPISODES,
        "step.validation": agents * EPISODES * n_va,  # once per bar
        "evaluate_policy.test": strategies,
        "step.test": strategies * n_te,
        "act": len(KINDS) * n_te,  # once per baseline bar
    }
