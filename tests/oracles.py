"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately written as plain scalar loops with its own
branch structure so it shares no code path with the implementations it
verifies. The exceptions are the list-based agent updates at the end: they
drive the package's public kernel functions the way the agents did before
parameters became one flat vector, and gather each replay batch one stored
row at a time from the buffer's ring and table, so the flat update and
``ReplayBuffer.sample`` can be checked against them bit for bit, and the
per-step training loop, which drives the package's env, buffer and agent
updates but draws each warmup action on its own.
"""

import decimal
import math

import numpy as np

from tradelab.agents import schedule_value
from tradelab.env import TradingEnv
from tradelab.neuralnet import (
    AdamState,
    adam_step,
    backward,
    clip_gradients,
    clone,
    forward,
    get_params,
    global_norm,
    make_dropout_masks,
    set_params,
    soft_update,
)


def resimulate(initial_cash, actions, prices, tcs):
    """Literal day-by-day re-simulation of the trading cash dynamics.

    ``prices`` has one more entry than ``actions``; ``tcs`` gives the percent
    fee for each step. Returns (cash_curve, rewards, wiped) where the curve
    starts at initial_cash. Stops early when a position's settlement value
    hits zero (cash floored at one currency unit if fully committed).
    """
    cash = initial_cash
    curve = [cash]
    rewards = []
    wiped = False
    for k, a in enumerate(actions):
        p_open, p_close = prices[k], prices[k + 1]
        if a == 0:
            new_cash = cash
        else:
            held = abs(a) * cash
            shares = held / p_open
            fee = shares * tcs[k] * p_open / 100.0
            if a > 0:
                profit = shares * (p_close - p_open)
            else:
                profit = shares * (p_open - p_close)
            pot = profit + held - fee
            if pot > 0.0:
                new_cash = cash - held + pot
            else:
                new_cash = cash - held
                if new_cash < 1.0:
                    new_cash = 1.0
                wiped = True
        rewards.append(math.log(new_cash / cash))
        cash = new_cash
        curve.append(cash)
        if wiped:
            break
    return curve, rewards, wiped


def episode_return(cash_curve) -> float:
    """Whole-period log growth log(last/first); equals the summed step rewards."""
    curve = list(cash_curve)
    if not curve:
        raise ValueError("empty cash curve")
    if any(not c > 0 for c in curve):
        raise ValueError("cash curve contains non-positive entries")
    return math.log(curve[-1] / curve[0])


def validation_sharpe(agent, segment, env_config):
    """Row-by-row validation score of ``agent``: the annualized Sharpe of one
    greedy pass over ``segment``, or -inf when it is undefined.

    Each observation is rebuilt from the closes and scored with one
    ``agent.policy`` call; the pass is re-simulated day by day.
    """
    closes = [bar.close for bar in segment.bars]
    w = env_config.window
    actions = []
    for t in range(w, len(closes) - 1):
        obs = [100.0 * (closes[k + 1] - closes[k]) / closes[k] for k in range(t - w, t)]
        actions.append(agent.policy(np.array(obs)))
    tcs = [env_config.transaction_cost] * len(actions)
    curve, _, _ = resimulate(env_config.initial_cash, actions, closes[w:], tcs)
    daily = [(b - a) / a for a, b in zip(curve, curve[1:])]
    if len(daily) < 2:
        return -math.inf
    mean = sum(daily) / len(daily)
    var = sum((d - mean) ** 2 for d in daily) / (len(daily) - 1)
    if var == 0.0:
        return -math.inf
    return math.sqrt(env_config.annualization_days) * mean / math.sqrt(var)


def finite_difference_grads(f, params, h=1e-5):
    """Central-difference gradient of scalar f(params) w.r.t. each array."""
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gf[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def rel_close(a, b, rel=1e-4, abs_floor=1e-6):
    """True when a and b agree to ``rel`` relative (with an absolute floor)."""
    return abs(a - b) <= max(abs_floor, rel * max(abs(a), abs(b)))


def value_iteration(next_state, reward, gamma, tol=1e-12, max_iter=100_000):
    """Bellman-optimal Q for a deterministic continuing MDP given as arrays."""
    n_states, n_actions = next_state.shape
    q = np.zeros((n_states, n_actions))
    for _ in range(max_iter):
        v = q.max(axis=1)
        q_new = reward + gamma * v[next_state]
        if np.abs(q_new - q).max() < tol:
            return q_new
        q = q_new
    raise RuntimeError("value iteration did not converge")


def t_density(x, df):
    log_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - ((df + 1) / 2.0) * math.log1p(x * x / df))


def t_tail_by_quadrature(t0, df):
    """P(T > t0) by adaptive numerical integration of the t density."""
    from scipy.integrate import quad

    if t0 >= 0:
        value, _ = quad(t_density, t0, math.inf, args=(df,))
        return value
    value, _ = quad(t_density, -math.inf, t0, args=(df,))
    return 1.0 - value


def printed_unit(value):
    """One unit in the last digit of ``value`` as printed (0.052 -> 0.001,
    4e-05 -> 1e-05). A printed number rounded by any rule, to nearest, up or
    down, lies strictly less than this far from the exact value."""
    exponent = decimal.Decimal(repr(value)).as_tuple().exponent
    return float(decimal.Decimal(1).scaleb(exponent))


# -- list-based agent updates ------------------------------------------------


def _gather_batch(buffer, batch_size, rng):
    """The replay batch, drawn as ``ReplayBuffer.sample`` draws it and gathered
    one stored row at a time: state = table row, next state = the row after."""
    slots = rng.integers(0, len(buffer), size=batch_size)
    stored = [buffer._ring[i] for i in slots]
    table = buffer.observations
    s = np.stack([table[int(row["row"])] for row in stored])
    a = np.array([[float(row["action"])] for row in stored])
    r = np.array([float(row["reward"]) for row in stored])
    s2 = np.stack([table[int(row["row"]) + 1] for row in stored])
    term = np.array([float(row["terminal"]) for row in stored])
    return s, a, r, s2, term


class ListTd3Update:
    """TD3's update with per-layer parameter lists.

    Every backward runs its own forward pass, Adam and Polyak mixing go layer
    by layer through get_params/set_params, and the actor gradient is
    rebuilt here from forward and backward. It moves the networks of the
    agent it is given and keeps its own per-layer Adam state.
    """

    def __init__(self, agent):
        cfg = agent.config
        self.agent = agent
        self.opts = {
            "actor": AdamState.create(get_params(agent.actor), lr=cfg.actor_lr),
            "critic1": AdamState.create(get_params(agent.critic1), lr=cfg.critic_lr),
            "critic2": AdamState.create(get_params(agent.critic2), lr=cfg.critic_lr),
        }
        self.updates = 0
        self.actor_grad_norms = []  # before clipping, one per delayed step

    def __call__(self, episode, rng):
        ag, cfg = self.agent, self.agent.config
        s, a, r, s2, term = _gather_batch(ag.buffer, cfg.batch_size, rng)
        n = len(s)

        sigma_t = schedule_value(cfg.policy_noise, episode)
        clip_k = schedule_value(cfg.noise_clip, episode)
        a2 = forward(ag.actor_target, s2)
        eps = np.clip(rng.normal(0.0, sigma_t, size=(n, 1)) if sigma_t > 0 else np.zeros((n, 1)),
                      -clip_k, clip_k)
        a2 = np.clip(a2 + eps, cfg.action_low, cfg.action_high)
        x2 = np.hstack([s2, a2])
        q1_next = forward(ag.critic1_target, x2)[:, 0]
        q2_next = forward(ag.critic2_target, x2)[:, 0]
        y = r + cfg.gamma * (1.0 - term) * np.minimum(q1_next, q2_next)

        x = np.hstack([s, a])
        for name in ("critic1", "critic2"):
            critic = getattr(ag, name)
            resid = forward(critic, x)[:, 0] - y
            grads, _ = backward(critic, x, (2.0 * resid / n)[:, None])
            new_params, _ = adam_step(get_params(critic), grads, self.opts[name])
            set_params(critic, new_params)

        self.updates += 1
        if self.updates % cfg.policy_delay == 0:
            a_pi = forward(ag.actor, s)
            xa = np.hstack([s, a_pi])
            _, dx = backward(ag.critic1, xa, np.full((n, 1), 1.0 / n))
            grads, _ = backward(ag.actor, s, dx[:, s.shape[1]:])
            self.actor_grad_norms.append(global_norm(grads))
            grads = clip_gradients(grads, cfg.grad_clip_norm)
            new_params, _ = adam_step(get_params(ag.actor), [-g for g in grads], self.opts["actor"])
            set_params(ag.actor, new_params)
            for target, source in ((ag.actor_target, ag.actor), (ag.critic1_target, ag.critic1),
                                   (ag.critic2_target, ag.critic2)):
                set_params(target, soft_update(get_params(target), get_params(source), cfg.tau))


class ListDqnUpdate:
    """DQN's update with per-layer parameter lists, a linear action-index
    scan and a target sync that replaces the target net by a clone."""

    def __init__(self, agent):
        self.agent = agent
        self.opt = AdamState.create(get_params(agent.net), lr=agent.config.learning_rate)
        self.updates = 0

    def __call__(self, episode, rng):
        ag, cfg = self.agent, self.agent.config
        s, a, r, s2, term = _gather_batch(ag.buffer, cfg.batch_size, rng)
        n = len(s)
        idx = np.array([next(i for i, x in enumerate(cfg.actions) if x == act) for act in a[:, 0]])

        y = r + cfg.gamma * (1.0 - term) * forward(ag.target_net, s2).max(axis=1)
        masks = make_dropout_masks(ag.net, cfg.dropout, rng)
        q = forward(ag.net, s, dropout_masks=masks)
        resid = q[np.arange(n), idx] - y
        upstream = np.zeros_like(q)
        upstream[np.arange(n), idx] = 2.0 * resid / n
        grads, _ = backward(ag.net, s, upstream, dropout_masks=masks)
        new_params, _ = adam_step(get_params(ag.net), grads, self.opt)
        set_params(ag.net, new_params)

        self.updates += 1
        if self.updates % cfg.target_sync == 0:
            ag.target_net = clone(ag.net)


# -- training loop -----------------------------------------------------------


def scalar_random_action(agent, rng):
    """One warmup action from one scalar draw: a pick from a discrete action set,
    or a uniform double in [action_low, action_high)."""
    cfg = agent.config
    if hasattr(cfg, "actions"):
        return float(cfg.actions[rng.integers(len(cfg.actions))])
    return cfg.action_low + (cfg.action_high - cfg.action_low) * rng.random()


def per_step_train(agent, segment, env_config, episodes, seed):
    """``agents.training.train`` with one scalar random-action draw per warmup
    step; returns the same per-episode log records."""
    env = TradingEnv(segment, env_config)
    table = env.observation_table()
    agent.buffer.bind(table)
    rng = np.random.default_rng([seed, 0x7E4])
    warmup = agent.config.warmup_episodes
    log = []
    for episode in range(episodes):
        warming = episode < warmup
        learn_episode = max(0, episode - warmup)
        env.reset()
        total_reward = 0.0
        losses = []
        while not env.terminal:
            row = env.t - env.first_t
            if warming:
                action = scalar_random_action(agent, rng)
            else:
                action = agent.explore_action(table[row], learn_episode, rng)
            reward, terminal = env.step(action)
            agent.buffer.push(row, action, reward, terminal)
            if not warming and len(agent.buffer) >= agent.config.batch_size:
                losses.append(agent.update(learn_episode, rng)["loss"])
            total_reward += reward
        agent.episodes_trained += 1
        log.append({
            "episode": episode,
            "warmup": warming,
            "total_reward": total_reward,
            "final_cash": env.cash,
            "mean_loss": float(np.mean(losses)) if losses else float("nan"),
        })
    return log
