"""Twin-delayed deterministic policy gradient over the trading MDP.

Actor maps the observation window to one action in (-1, 1) via a tanh head;
two critics score (window, action) pairs. Both critics regress every update
onto the shared min-critic target; the actor and the three target nets move
only every ``policy_delay`` updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..neuralnet import (
    AdamState,
    Mlp,
    Tape,
    adam_step,
    backward,
    clip_gradients,
    clone,
    create_mlp,
    forward,
    load_nets,
    save_nets,
    soft_update,
)
from .replay import ReplayBuffer
from .schedules import DecaySchedule, schedule_value
from .targets import bootstrap_target


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
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.action_low >= self.action_high:
            raise ValueError("action_low must be below action_high")
        if self.action_low < -1.0 or self.action_high > 1.0:
            raise ValueError("action bounds must stay within [-1, 1]")
        if self.batch_size < 1 or self.policy_delay < 1:
            raise ValueError("batch_size and policy_delay must be >= 1")
        if self.batch_size > self.buffer_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds buffer_capacity {self.buffer_capacity}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        for name in ("actor_lr", "critic_lr", "grad_clip_norm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


def td3_select_action(actor: Mlp, state, sigma: float, a_low: float, a_high: float,
                      rng: np.random.Generator) -> float:
    """Actor output plus N(0, sigma) exploration noise, clamped to [a_low, a_high]."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    a = float(forward(actor, state)[0])
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
) -> np.ndarray:
    """Smoothed target actions, one row per next state:
    clip(pi'(s') + clip(N(0, sigma~), -K, K), a1, a2).

    The noise is one ``(n, 1)`` normal draw, made only when sigma~ > 0.
    """
    if sigma_tilde < 0 or noise_clip < 0:
        raise ValueError("noise scale and clip bound must be >= 0")
    if a_low >= a_high:
        raise ValueError("a_low must be below a_high")
    a = forward(actor_target, next_states)
    n = len(a)
    eps = rng.normal(0.0, sigma_tilde, size=(n, 1)) if sigma_tilde > 0 else np.zeros((n, 1))
    return np.clip(a + np.clip(eps, -noise_clip, noise_clip), a_low, a_high)


def actor_gradient(actor: Mlp, critic: Mlp, states: np.ndarray):
    """Gradient of J = mean_i Q(s_i, pi(s_i)) w.r.t. the actor parameters.

    dQ/da is taken from the critic's input gradient at the action slot and
    chained through the actor; the critic's own parameter gradients are
    never computed. Returns (grad, J), the gradient laid out like ``actor.theta``.
    """
    n = states.shape[0]
    actor_tape, critic_tape = Tape(), Tape()
    a_pi = forward(actor, states, tape=actor_tape)
    x = np.concatenate([states, a_pi], axis=1)
    q = forward(critic, x, tape=critic_tape)
    _, dx = backward(critic, x, np.full((n, 1), 1.0 / n), tape=critic_tape, wrt="input")
    da = dx[:, states.shape[1]:]
    grad, _ = backward(actor, states, da, tape=actor_tape, wrt="params")
    return grad, float(np.mean(q))


class Td3Agent:
    def __init__(self, window: int, config: Td3Config | None = None, seed: int = 0):
        self.window = window
        self.config = config or Td3Config()
        cfg = self.config
        rng = np.random.default_rng([seed, 0x7D3])
        self.actor = create_mlp(
            (window, *cfg.actor_hidden, 1), rng, hidden_activation="relu", output_activation="tanh"
        )
        self.critic1 = create_mlp((window + 1, *cfg.critic_hidden, 1), rng)
        self.critic2 = create_mlp((window + 1, *cfg.critic_hidden, 1), rng)
        self.actor_target = clone(self.actor)
        self.critic1_target = clone(self.critic1)
        self.critic2_target = clone(self.critic2)
        self.actor_opt = AdamState.create(self.actor.theta, lr=cfg.actor_lr)
        self.critic1_opt = AdamState.create(self.critic1.theta, lr=cfg.critic_lr)
        self.critic2_opt = AdamState.create(self.critic2.theta, lr=cfg.critic_lr)
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.updates = 0
        self.episodes_trained = 0

    # -- acting ---------------------------------------------------------

    def policy(self, state) -> float:
        """Deterministic (evaluation) action: ``policies`` of a one-row stack."""
        return self.policies(np.asarray(state, dtype=np.float64)[None])[0]

    def policies(self, rows) -> list[float]:
        """Deterministic actions for a (n, window) array of states, clamped to the
        action bounds. The actor runs over (k, 1, window) stacks of ``batch_size``
        rows, so each action has exactly the bits of a single-row forward."""
        cfg = self.config
        step = cfg.batch_size
        out = [forward(self.actor, rows[i : i + step, None]).ravel() for i in range(0, len(rows), step)]
        return np.clip(np.concatenate(out), cfg.action_low, cfg.action_high).tolist()

    def explore_action(self, state, episode: int, rng: np.random.Generator) -> float:
        cfg = self.config
        sigma = schedule_value(cfg.exploration_noise, episode)
        return td3_select_action(self.actor, state, sigma, cfg.action_low, cfg.action_high, rng)

    def random_actions(self, rng: np.random.Generator, n: int) -> list[float]:
        """n uniform actions from one draw, which leaves ``rng`` where n scalar draws would."""
        low, high = self.config.action_low, self.config.action_high
        return (low + (high - low) * rng.random(n)).tolist()  # the doubles of rng.uniform(low, high)

    # -- learning -------------------------------------------------------

    def update(self, episode: int, rng: np.random.Generator) -> dict:
        """One gradient step on both critics, delayed actor/target step."""
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            raise ValueError(f"buffer holds {len(self.buffer)} < batch size {cfg.batch_size}")
        s, a, r, s2, term = self.buffer.sample(cfg.batch_size, rng)
        n = len(s)

        a2 = td3_target_action(self.actor_target, s2, schedule_value(cfg.policy_noise, episode),
                               schedule_value(cfg.noise_clip, episode), cfg.action_low,
                               cfg.action_high, rng)
        x2 = np.concatenate([s2, a2], axis=1)
        y = bootstrap_target(r, term, cfg.gamma, np.minimum(forward(self.critic1_target, x2)[:, 0],
                                                            forward(self.critic2_target, x2)[:, 0]))

        x = np.concatenate([s, a[:, None]], axis=1)
        losses = []
        for critic, opt in ((self.critic1, self.critic1_opt), (self.critic2, self.critic2_opt)):
            tape = Tape()
            q = forward(critic, x, tape=tape)[:, 0]
            resid = q - y
            losses.append(float(np.add.reduce(resid * resid)) / n)  # np.mean's sum and divide
            grad, _ = backward(critic, x, (2.0 * resid / n)[:, None], tape=tape, wrt="params")
            adam_step(critic.theta, grad, opt)

        diag = {
            "loss": 0.5 * (losses[0] + losses[1]),
            "critic1_loss": losses[0],
            "critic2_loss": losses[1],
            "actor_updated": False,
        }
        self.updates += 1
        if self.updates % cfg.policy_delay == 0:
            diag["actor_updated"] = True
            # Ascend J = mean(Q1(s, pi(s))): chain dQ/da through the actor.
            actor_grad, _ = actor_gradient(self.actor, self.critic1, s)
            actor_grad = clip_gradients(actor_grad, self.actor.layer_dims, cfg.grad_clip_norm)
            adam_step(self.actor.theta, -actor_grad, self.actor_opt)

            for target, source in (
                (self.actor_target, self.actor),
                (self.critic1_target, self.critic1),
                (self.critic2_target, self.critic2),
            ):
                soft_update(target.theta, source.theta, cfg.tau)
        return diag

    # -- snapshots ------------------------------------------------------

    _NET_NAMES = ("actor", "critic1", "critic2", "actor_target", "critic1_target", "critic2_target")

    def snapshot(self) -> dict:
        """Copies of all learned parameters, for checkpoint selection."""
        return {name: getattr(self, name).theta.copy() for name in self._NET_NAMES}

    def restore(self, snap: dict) -> None:
        for name in self._NET_NAMES:
            getattr(self, name).theta[...] = snap[name]

    def save(self, path) -> None:
        save_nets(path, {name: getattr(self, name) for name in self._NET_NAMES}, self.config,
                  self.episodes_trained)

    def load(self, path) -> None:
        nets, self.episodes_trained = load_nets(path, self._NET_NAMES, self.config)
        for name, net in nets.items():
            built = getattr(self, name).layer_dims
            if net.layer_dims != built:
                raise ValueError(f"{path}: checkpoint {name} has layer dims {net.layer_dims}, "
                                 f"but env.window {self.window} builds {built}")
        for name, net in nets.items():
            setattr(self, name, net)
