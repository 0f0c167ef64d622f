"""What both network agents share: the ``NetAgent`` base, the config rules,
the episodic loop, the temporal-difference target and the decay schedules.

Each ``train`` call fills its own replay buffer, built on the segment's
observation table, and drops it and the agent's update tapes on return. Warmup episodes act uniformly at random
and only fill the buffer. Every later episode is one chronological pass over the
training segment with one gradient update per environment step (once the buffer
can serve a batch). The schedules run on the post-warmup episode index.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..data import PriceSeries
from ..env import EnvConfig, TradingEnv, check_count
from ..neuralnet import AdamState, Tape, load_nets, save_nets
from .replay import ReplayBuffer


@dataclass(frozen=True)
class DecaySchedule:
    initial: float
    final: float
    decay: float

    def __post_init__(self):
        if not (0 <= self.initial < math.inf and 0 <= self.final < math.inf):  # NaN and inf fail too
            raise ValueError("schedule endpoints must be non-negative")
        if self.final > self.initial:
            raise ValueError(f"final {self.final} exceeds initial {self.initial}")
        if not 0 < self.decay < math.inf:
            raise ValueError(f"decay must be positive, got {self.decay}")


def check_agent_config(cfg, rates: tuple[str, ...], counts: tuple[str, ...]) -> None:
    """The rules both agent configs share; ``rates`` name the fields that must be
    finite and > 0 (step sizes, a clip norm), ``counts`` the config's own integer
    fields and hidden-size tuples, which must be >= 1."""
    if not 0.0 <= cfg.gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {cfg.gamma}")
    check_count(cfg.batch_size, 1, "batch_size")
    if not cfg.batch_size <= cfg.buffer_capacity:  # written so that NaN fails it
        raise ValueError(f"batch_size {cfg.batch_size} exceeds buffer_capacity {cfg.buffer_capacity}")
    check_count(cfg.warmup_episodes, 0, "warmup_episodes")
    for name in rates:
        if not 0 < getattr(cfg, name) < math.inf:
            raise ValueError(f"{name} must be > 0, got {getattr(cfg, name)}")
    for name in ("buffer_capacity", *counts):
        check_count(getattr(cfg, name), 1, name)


class NetAgent:
    """What TD3 and DQN share: ``window``, ``config``, the ``nets`` table of named
    networks, the ``opts`` table of their Adam states, the update and episode counts,
    the batch rule, snapshots, checkpoints, the one-row policy and an update's tapes.
    A subclass builds its networks, gives each one it trains a step size in
    ``step_sizes``, and defines ``policies``, ``explore_action``, ``random_actions``
    and ``update``."""

    def __init__(self, window: int, config, nets: dict, step_sizes: dict):
        self.window, self.config, self.nets = window, config, nets
        self.updates = self.episodes_trained = 0
        # an update's passes, one tape per network shape, which ``train`` drops on return
        self.tapes: defaultdict[str, Tape] = defaultdict(Tape)
        self.opts = {name: AdamState(np.zeros_like(nets[name].theta), np.zeros_like(nets[name].theta), lr)
                     for name, lr in step_sizes.items()}

    def policy(self, state) -> float:
        """``policies`` of a one-row stack."""
        return self.policies(np.asarray(state, dtype=np.float64)[None])[0]

    def _batch(self, buffer, rng: np.random.Generator):
        size = self.config.batch_size
        if len(buffer) < size:
            raise ValueError(f"buffer holds {len(buffer)} < batch size {size}")
        return buffer.sample(size, rng)

    def snapshot(self) -> dict:
        """A copy of each network's ``theta``, by name, for checkpoint selection."""
        return {name: net.theta.copy() for name, net in self.nets.items()}

    def restore(self, snap: dict) -> None:
        """Write a :meth:`snapshot` back into the networks, in place."""
        for name, net in self.nets.items():
            net.theta[...] = snap[name]

    def save(self, path) -> None:
        save_nets(path, self.nets, self.config, self.episodes_trained)

    def load(self, path) -> None:
        self.episodes_trained = load_nets(path, self.nets, self.config, self.window)


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
        env.reset()
        total_reward = 0.0
        losses: list[float] = []
        if warming:  # no warmup action reads the state, so one draw serves the episode
            drawn_from = rng.bit_generator.state
            actions = agent.random_actions(rng, env.last_t - env.first_t + 1)
            step, push = env.step, buffer.push
            for row, action in enumerate(actions):  # a step moves t, so its table row, by one
                reward, terminal = step(action)
                push(row, action, reward, terminal)
                total_reward += reward
                if terminal:
                    break
            if row + 1 < len(actions):
                # a wipe ended the episode: leave rng where one draw per step taken would
                rng.bit_generator.state = drawn_from
                agent.random_actions(rng, row + 1)
        else:
            learn_episode = episode - warmup
            while not env.terminal:
                row = env.t - env.first_t
                action = agent.explore_action(table[row], learn_episode, rng)
                reward, terminal = env.step(action)
                buffer.push(row, action, reward, terminal)
                if len(buffer) >= agent.config.batch_size:
                    losses.append(agent.update(buffer, learn_episode, rng)["loss"])
                total_reward += reward
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
    agent.tapes.clear()
    return log
