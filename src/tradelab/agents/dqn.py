"""Discrete Q-network agent over the trading MDP.

The network maps the observation window to one Q-value per discrete action.
Targets come from a hard-synced copy of the network; exploration is
epsilon-greedy with an exponentially decaying epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..neuralnet import adam_step, backward, clone, create_mlp, forward, forward_rows, make_dropout_masks
from .training import DecaySchedule, NetAgent, bootstrap_target, check_agent_config, schedule_value


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
        check_agent_config(self, ("learning_rate",), ("hidden", "target_sync"))
        if not self.epsilon.initial <= 1.0:  # final <= initial, so this bounds both endpoints
            raise ValueError(f"epsilon.initial must lie in [0, 1], got {self.epsilon.initial}")
        if len(self.actions) < 2:
            raise ValueError("need at least two discrete actions")
        if any(not -1.0 <= a <= 1.0 for a in self.actions):
            raise ValueError("discrete actions must lie in [-1, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


class DqnAgent(NetAgent):
    # perfbench's tracer wraps only the methods in vars(cls)
    snapshot, save, load = NetAgent.snapshot, NetAgent.save, NetAgent.load

    def __init__(self, window: int, config: DqnConfig | None = None, seed: int = 0):
        cfg = config or DqnConfig()
        rng = np.random.default_rng([seed, 0xD99])
        net = create_mlp((window, *cfg.hidden, len(cfg.actions)), rng)
        super().__init__(window, cfg, {"net": net, "target": clone(net)}, {"net": cfg.learning_rate})
        self._actions = np.asarray(cfg.actions, dtype=np.float64)

    def policies(self, rows) -> list[float]:
        """Greedy actions for a (n, window) array of states; np.argmax breaks ties
        toward the lowest index. Each row's Q-values have exactly the bits of a
        single-row forward."""
        cfg = self.config
        best = np.argmax(forward_rows(self.nets["net"], rows, cfg.batch_size), axis=1)
        return [cfg.actions[k] for k in best.tolist()]

    def explore_action(self, state, episode: int, rng: np.random.Generator) -> float:
        eps = schedule_value(self.config.epsilon, episode)
        if rng.random() < eps:
            return self.random_actions(rng, 1)[0]
        return self.policy(state)

    def random_actions(self, rng: np.random.Generator, n: int) -> list[float]:
        """n uniform picks from the action set in one draw, which leaves ``rng`` where n scalar draws would."""
        return self._actions[rng.integers(len(self._actions), size=n)].tolist()

    def update(self, buffer, episode: int, rng: np.random.Generator) -> dict:
        """One MSE step on the taken-action Q-values of a batch of ``buffer``; periodic
        hard target sync. A non-finite loss raises before the Adam step."""
        cfg = self.config
        s, actions, r, s2, term = self._batch(buffer, rng)
        n = len(s)
        hits = actions[:, None] == self._actions
        found = hits.any(axis=1)
        if not found.all():
            raise ValueError(f"action {float(actions[~found][0])} not in the discrete action set {cfg.actions}")
        idx = hits.argmax(axis=1)  # the first match, for a set that repeats an action

        net, target = self.nets["net"], self.nets["target"]
        y = bootstrap_target(r, term, cfg.gamma, forward(target, s2, tape=self.tapes["net"]).max(axis=-1))

        masks = make_dropout_masks(net, cfg.dropout, rng)
        tape = self.tapes["net"]
        q = forward(net, s, dropout_masks=masks, tape=tape)
        rows = np.arange(n)
        resid = q[rows, idx] - y
        loss = float(np.add.reduce(resid * resid)) / n  # np.mean's sum and divide
        if not math.isfinite(loss):
            raise ValueError(f"tdqn update {self.updates + 1}: non-finite loss {loss}")

        upstream = np.zeros_like(q)
        upstream[rows, idx] = 2.0 * resid / n
        grad = backward(net, upstream, tape=tape, wrt="params")
        adam_step(net.theta, grad, self.opts["net"])

        self.updates += 1
        if self.updates % cfg.target_sync == 0:
            target.theta[...] = net.theta
        return {"loss": loss, "epsilon": schedule_value(cfg.epsilon, episode)}
