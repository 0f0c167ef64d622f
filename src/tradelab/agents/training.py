"""What both network agents share: the episodic loop, the temporal-difference
target and the decay schedules.

Each ``train`` call fills its own replay buffer, built on the segment's
observation table and dropped on return. Warmup episodes act uniformly at random
and only fill the buffer. Every later episode is one chronological pass over the
training segment with one gradient update per environment step (once the buffer
can serve a batch). The schedules run on the post-warmup episode index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data import PriceSeries
from ..env import EnvConfig, TradingEnv
from .replay import ReplayBuffer


@dataclass(frozen=True)
class DecaySchedule:
    initial: float
    final: float
    decay: float

    def __post_init__(self):
        if self.initial < 0 or self.final < 0:
            raise ValueError("schedule endpoints must be non-negative")
        if self.final > self.initial:
            raise ValueError(f"final {self.final} exceeds initial {self.initial}")
        if not self.decay > 0:
            raise ValueError(f"decay must be positive, got {self.decay}")


def schedule_value(sched: DecaySchedule, episode: int) -> float:
    """final + (initial - final) * exp(-episode / decay); non-increasing in episode."""
    if episode < 0:
        raise ValueError(f"episode must be >= 0, got {episode}")
    return sched.final + (sched.initial - sched.final) * math.exp(-episode / sched.decay)


def bootstrap_target(r, terminal, gamma: float, next_value) -> np.ndarray:
    """y = r + gamma * (1 - terminal) * next_value, elementwise: r alone on terminal rows.

    ``next_value`` is the caller's estimate of the next state's value: TD3's
    min(q1', q2'), DQN's max over the target net's action values, or a
    Q-table row's max.
    """
    return r + gamma * (1.0 - terminal) * next_value


def train(agent, segment: PriceSeries, env_config: EnvConfig, episodes: int, seed: int,
          on_episode_end=None) -> list[dict]:
    """Train ``agent`` in place; returns one log record per episode.

    ``on_episode_end(agent, episode)`` runs after every episode, e.g. for
    validation-based checkpoint selection. Fully reproducible from ``seed``.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    env = TradingEnv(segment, env_config)
    table = env.observation_table()
    buffer = ReplayBuffer(agent.config.buffer_capacity, table)
    rng = np.random.default_rng([seed, 0x7E4])
    warmup = agent.config.warmup_episodes
    log: list[dict] = []
    for episode in range(episodes):
        warming = episode < warmup
        learn_episode = max(0, episode - warmup)
        env.reset()
        if warming:  # no warmup action reads the state, so one draw serves the episode
            drawn_from = rng.bit_generator.state
            actions = agent.random_actions(rng, env.last_t - env.first_t + 1)
        total_reward = 0.0
        losses: list[float] = []
        while not env.terminal:
            # a step moves t by one, so the next state is always the next table row
            row = env.t - env.first_t
            action = actions[row] if warming else agent.explore_action(table[row], learn_episode, rng)
            reward, terminal = env.step(action)
            buffer.push(row, action, reward, terminal)
            if not warming and len(buffer) >= agent.config.batch_size:
                diag = agent.update(buffer, learn_episode, rng)
                losses.append(diag["loss"])
            total_reward += reward
        taken = env.t - env.first_t
        if warming and taken < len(actions):
            # a wipe ended the episode: leave rng where one draw per step taken would
            rng.bit_generator.state = drawn_from
            agent.random_actions(rng, taken)
        agent.episodes_trained += 1
        log.append({
            "episode": episode,
            "warmup": warming,
            "total_reward": total_reward,
            "final_cash": env.cash,
            "mean_loss": float(np.mean(losses)) if losses else float("nan"),
        })
        if on_episode_end is not None:
            on_episode_end(agent, episode)
    return log
