"""Discrete Q-network agent over the trading MDP.

The network maps the observation window to one Q-value per discrete action.
Targets come from a hard-synced copy of the network; exploration is
epsilon-greedy with an exponentially decaying epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..neuralnet import (
    AdamState,
    Tape,
    adam_step,
    backward,
    clone,
    create_mlp,
    forward,
    load_nets,
    make_dropout_masks,
    save_nets,
)
from .replay import ReplayBuffer
from .schedules import DecaySchedule, schedule_value
from .targets import bootstrap_target


@dataclass(frozen=True)
class DqnConfig:
    gamma: float = 0.99
    epsilon: DecaySchedule = field(default_factory=lambda: DecaySchedule(1.0, 0.05, 50.0))
    target_sync: int = 100  # hard-copy period, in updates
    batch_size: int = 64
    learning_rate: float = 1e-3
    actions: tuple[float, ...] = (-1.0, 1.0)
    buffer_capacity: int = 100_000
    warmup_episodes: int = 10
    hidden: tuple[int, ...] = (64, 32)
    dropout: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.target_sync < 1:
            raise ValueError(f"target_sync must be >= 1, got {self.target_sync}")
        if len(self.actions) < 2:
            raise ValueError("need at least two discrete actions")
        if any(not -1.0 <= a <= 1.0 for a in self.actions):
            raise ValueError("discrete actions must lie in [-1, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_size > self.buffer_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds buffer_capacity {self.buffer_capacity}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


class DqnAgent:
    def __init__(self, window: int, config: DqnConfig | None = None, seed: int = 0):
        self.window = window
        self.config = config or DqnConfig()
        cfg = self.config
        rng = np.random.default_rng([seed, 0xD99])
        self.net = create_mlp((window, *cfg.hidden, len(cfg.actions)), rng)
        self.target_net = clone(self.net)
        self.opt = AdamState.create(self.net.theta, lr=cfg.learning_rate)
        self._actions = np.asarray(cfg.actions, dtype=np.float64)
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.updates = 0
        self.episodes_trained = 0

    # -- acting ---------------------------------------------------------

    def policy(self, state) -> float:
        """Greedy action: ``policies`` of a one-row stack."""
        return self.policies(np.asarray(state, dtype=np.float64)[None])[0]

    def policies(self, rows) -> list[float]:
        """Greedy actions for a (n, window) array of states; np.argmax breaks ties
        toward the lowest index. The network runs over (k, 1, window) stacks of
        ``batch_size`` rows, so each row's Q-values have exactly the bits of a
        single-row forward."""
        cfg = self.config
        step = cfg.batch_size
        best = [np.argmax(forward(self.net, rows[i : i + step, None])[:, 0], axis=1)
                for i in range(0, len(rows), step)]
        return [cfg.actions[k] for k in np.concatenate(best).tolist()]

    def explore_action(self, state, episode: int, rng: np.random.Generator) -> float:
        eps = schedule_value(self.config.epsilon, episode)
        if rng.random() < eps:
            return self.random_actions(rng, 1)[0]
        return self.policy(state)

    def random_actions(self, rng: np.random.Generator, n: int) -> list[float]:
        """n uniform picks from the action set in one draw, which leaves ``rng`` where n scalar draws would."""
        return self._actions[rng.integers(len(self._actions), size=n)].tolist()

    # -- learning -------------------------------------------------------

    def update(self, episode: int, rng: np.random.Generator) -> dict:
        """One MSE step on the taken-action Q-values; periodic hard target sync."""
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            raise ValueError(f"buffer holds {len(self.buffer)} < batch size {cfg.batch_size}")
        s, actions, r, s2, term = self.buffer.sample(cfg.batch_size, rng)
        n = len(s)
        hits = actions[:, None] == self._actions
        found = hits.any(axis=1)
        if not found.all():
            raise ValueError(f"action {float(actions[~found][0])} not in the discrete action set {cfg.actions}")
        idx = hits.argmax(axis=1)  # the first match, for a set that repeats an action

        y = bootstrap_target(r, term, cfg.gamma, forward(self.target_net, s2).max(axis=-1))

        masks = make_dropout_masks(self.net, cfg.dropout, rng)
        tape = Tape()
        q = forward(self.net, s, dropout_masks=masks, tape=tape)
        rows = np.arange(n)
        resid = q[rows, idx] - y
        loss = float(np.add.reduce(resid * resid)) / n  # np.mean's sum and divide

        upstream = np.zeros_like(q)
        upstream[rows, idx] = 2.0 * resid / n
        grad, _ = backward(self.net, s, upstream, dropout_masks=masks, tape=tape, wrt="params")
        adam_step(self.net.theta, grad, self.opt)

        self.updates += 1
        if self.updates % cfg.target_sync == 0:
            self.target_net.theta[...] = self.net.theta
        return {"loss": loss, "epsilon": schedule_value(cfg.epsilon, episode)}

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> dict:
        return {"net": self.net.theta.copy(), "target": self.target_net.theta.copy()}

    def restore(self, snap: dict) -> None:
        self.net.theta[...] = snap["net"]
        self.target_net.theta[...] = snap["target"]

    def save(self, path) -> None:
        save_nets(path, {"net": self.net, "target": self.target_net}, self.config,
                  self.episodes_trained)

    def load(self, path) -> None:
        nets, self.episodes_trained = load_nets(path, ("net", "target"), self.config)
        for name, net in nets.items():
            if net.layer_dims != self.net.layer_dims:
                raise ValueError(f"{path}: checkpoint {name} has layer dims {net.layer_dims}, "
                                 f"but env.window {self.window} builds {self.net.layer_dims}")
        self.net, self.target_net = nets["net"], nets["target"]
