"""Twin-delayed deterministic policy gradient over the trading MDP.

Actor maps the observation window to one action in (-1, 1) via a tanh head;
two critics score (window, action) pairs. Both critics regress every update
onto the shared min-critic target; the actor and the three target nets move
only every ``policy_delay`` updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..neuralnet import (Mlp, Tape, adam_step, backward, clip_gradients, clone,
                         create_mlp, forward, forward_rows, soft_update)
from .training import DecaySchedule, NetAgent, bootstrap_target, check_agent_config, schedule_value


@dataclass(frozen=True)
class Td3Config:
    gamma: float = 0.99
    tau: float = 0.005
    policy_delay: int = 2
    batch_size: int = 64
    warmup_episodes: int = 10
    exploration_noise: DecaySchedule = field(default_factory=lambda: DecaySchedule(0.5, 0.05, 50.0))
    policy_noise: DecaySchedule = field(default_factory=lambda: DecaySchedule(0.4, 0.1, 50.0))
    noise_clip: DecaySchedule = field(default_factory=lambda: DecaySchedule(0.5, 0.2, 50.0))
    action_low: float = -1.0
    action_high: float = 1.0
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    grad_clip_norm: float = 1.0
    buffer_capacity: int = 100_000
    actor_hidden: tuple[int, ...] = (64, 32)
    critic_hidden: tuple[int, ...] = (64, 32)

    def __post_init__(self):
        check_agent_config(self, ("actor_lr", "critic_lr", "grad_clip_norm"),
                           ("actor_hidden", "critic_hidden", "policy_delay"))
        if not self.action_low < self.action_high:  # written so that NaN fails each comparison
            raise ValueError("action_low must be below action_high")
        if not (-1.0 <= self.action_low and self.action_high <= 1.0):
            raise ValueError("action bounds must stay within [-1, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")


def td3_select_action(actor: Mlp, state: np.ndarray, sigma: float, a_low: float, a_high: float,
                      rng: np.random.Generator) -> float:
    """Actor output plus N(0, sigma) exploration noise, clamped to [a_low, a_high]."""
    a = float(forward(actor, state[None])[0, 0])
    if sigma > 0:
        a += float(rng.normal(0.0, sigma))
    return float(min(max(a, a_low), a_high))  # a bound read from JSON may be an int


def td3_target_action(
    actor_target: Mlp,
    next_states: np.ndarray,
    sigma_tilde: float,
    noise_clip: float,
    a_low: float,
    a_high: float,
    rng,
    tape: Tape | None = None,
) -> np.ndarray:
    """Smoothed target actions, one row per next state:
    clip(pi'(s') + clip(N(0, sigma~), -K, K), a1, a2).

    The noise is one ``(n, 1)`` normal draw, made only when sigma~ > 0.
    """
    a = forward(actor_target, next_states, tape=tape)
    n = len(a)
    eps = rng.normal(0.0, sigma_tilde, size=(n, 1)) if sigma_tilde > 0 else np.zeros((n, 1))
    return np.clip(a + np.clip(eps, -noise_clip, noise_clip), a_low, a_high)


def actor_gradient(actor: Mlp, critic: Mlp, states: np.ndarray, tapes=None):
    """Gradient of J = mean_i Q(s_i, pi(s_i)) w.r.t. the actor parameters.

    dQ/da is taken from the critic's input gradient at the action slot and
    chained through the actor; the critic's own parameter gradients are
    never computed. Returns (grad, J), the gradient laid out like ``actor.theta``,
    from the (actor, critic) pair of ``tapes`` the passes record on (fresh if None).
    """
    n = states.shape[0]
    actor_tape, critic_tape = tapes or (Tape(), Tape())
    a_pi = forward(actor, states, tape=actor_tape)
    x = np.concatenate([states, a_pi], axis=1, out=critic_tape.array("x", (n, critic.layer_dims[0])))
    q = forward(critic, x, tape=critic_tape)
    dx = backward(critic, np.full((n, 1), 1.0 / n), tape=critic_tape, wrt="input")
    da = dx[:, states.shape[1]:]
    grad = backward(actor, da, tape=actor_tape, wrt="params")
    return grad, float(np.mean(q))


class Td3Agent(NetAgent):
    # perfbench's tracer wraps only the methods in vars(cls), and its own test calls policy
    snapshot, save, load, policy = NetAgent.snapshot, NetAgent.save, NetAgent.load, NetAgent.policy

    def __init__(self, window: int, config: Td3Config | None = None, seed: int = 0):
        cfg = config or Td3Config()
        rng = np.random.default_rng([seed, 0x7D3])
        actor = create_mlp((window, *cfg.actor_hidden, 1), rng, hidden_activation="relu",
                           output_activation="tanh")
        critics = [create_mlp((window + 1, *cfg.critic_hidden, 1), rng) for _ in range(2)]
        super().__init__(window, cfg, {
            "actor": actor, "critic1": critics[0], "critic2": critics[1],
            "actor_target": clone(actor), "critic1_target": clone(critics[0]),
            "critic2_target": clone(critics[1])},
            {"actor": cfg.actor_lr, "critic1": cfg.critic_lr, "critic2": cfg.critic_lr})

    def policies(self, rows) -> list[float]:
        """Deterministic actions for a (n, window) array of states, clamped to the
        action bounds; each has exactly the bits of a single-row forward."""
        cfg = self.config
        actions = forward_rows(self.nets["actor"], rows, cfg.batch_size)[:, 0]
        return np.clip(actions, cfg.action_low, cfg.action_high).tolist()

    def explore_action(self, state, episode: int, rng: np.random.Generator) -> float:
        cfg = self.config
        sigma = schedule_value(cfg.exploration_noise, episode)
        return td3_select_action(self.nets["actor"], state, sigma, cfg.action_low, cfg.action_high, rng)

    def random_actions(self, rng: np.random.Generator, n: int) -> list[float]:
        """n uniform actions from one draw, which leaves ``rng`` where n scalar draws would."""
        low, high = self.config.action_low, self.config.action_high
        return (low + (high - low) * rng.random(n)).tolist()  # the doubles of rng.uniform(low, high)

    def update(self, buffer, episode: int, rng: np.random.Generator) -> dict:
        """One gradient step on both critics from a ``buffer`` batch, delayed actor/target step;
        a non-finite critic loss or actor objective raises before the Adam step that would use it."""
        cfg = self.config
        s, a, r, s2, term = self._batch(buffer, rng)
        n = len(s)
        nets, tapes, opts = self.nets, self.tapes, self.opts  # a shape's passes follow one another on its tape
        critics = ("critic1", "critic2")

        a2 = td3_target_action(nets["actor_target"], s2, schedule_value(cfg.policy_noise, episode),
                               schedule_value(cfg.noise_clip, episode), cfg.action_low,
                               cfg.action_high, rng, tapes["actor"])
        x2 = np.concatenate([s2, a2], axis=1, out=tapes["critic1"].array("x", (n, self.window + 1)))
        q2 = [forward(nets[f"{name}_target"], x2, tape=tapes[name])[:, 0] for name in critics]
        y = bootstrap_target(r, term, cfg.gamma, np.minimum(*q2))

        x = np.concatenate([s, a[:, None]], axis=1, out=tapes["critic1"].array("x", (n, self.window + 1)))
        number = self.updates + 1
        resids = {name: forward(nets[name], x, tape=tapes[name])[:, 0] - y for name in critics}
        losses = {name: float(np.add.reduce(e * e)) / n  # np.mean's sum and divide
                  for name, e in resids.items()}
        for name, loss in losses.items():  # both, before either critic moves
            if not math.isfinite(loss):
                raise ValueError(f"td3 update {number}: non-finite {name} loss {loss}")
        for name, resid in resids.items():
            grad = backward(nets[name], (2.0 * resid / n)[:, None], tape=tapes[name], wrt="params")
            adam_step(nets[name].theta, grad, opts[name])

        diag = {"loss": 0.5 * (losses["critic1"] + losses["critic2"]), "critic1_loss": losses["critic1"],
                "critic2_loss": losses["critic2"], "actor_updated": False}
        self.updates += 1
        if self.updates % cfg.policy_delay == 0:
            diag["actor_updated"] = True
            # Ascend J = mean(Q1(s, pi(s))): chain dQ/da through the actor.
            actor = nets["actor"]
            actor_grad, objective = actor_gradient(actor, nets["critic1"], s,
                                                   (tapes["actor"], tapes["critic1"]))
            if not math.isfinite(objective):
                raise ValueError(f"td3 update {number}: non-finite actor objective {objective}")
            actor_grad = clip_gradients(actor_grad, actor.layer_dims, cfg.grad_clip_norm)
            adam_step(actor.theta, np.negative(actor_grad, out=actor_grad), opts["actor"])

            for name in ("actor", "critic1", "critic2"):
                soft_update(nets[f"{name}_target"].theta, nets[name].theta, cfg.tau)
        return diag
