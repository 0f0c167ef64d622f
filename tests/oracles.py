"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately written as plain scalar loops with its own
branch structure so it shares no code path with the implementations it
verifies; ``reference_load_csv`` is the row-object CSV loader that the
columnar ``load_csv`` replaced, and the dense-kernel references
(``reference_forward_pass``, ``reference_backward``, ``reference_adam_step``,
``reference_clip_gradients``, ``reference_soft_update``) are the kernel as it
ran before it worked in place on one flat vector, so the lean kernel can be
held to its bits. The list-based agent
updates at the end run that reference kernel layer by layer on per-layer
parameter lists, the way the agents did before parameters became one flat
vector, and gather each replay batch one stored row at a time from the
buffer's ring and table, so the flat update and ``ReplayBuffer.sample`` can
be checked against them bit for bit. The exceptions are the per-step
training loop, which drives the package's env, buffer and agent updates but
draws each warmup action on its own, and tabular Q-learning, which calls the
package's ``bootstrap_target`` so that value iteration checks its arithmetic.
"""

import csv
import datetime as dt
import decimal
import math
from dataclasses import dataclass

import numpy as np

from tradelab.agents import ReplayBuffer, bootstrap_target, schedule_value
from tradelab.env import TradingEnv
from tradelab.neuralnet import clone, forward, make_dropout_masks


def resimulate(initial_cash, actions, prices, tcs):
    """Literal day-by-day re-simulation of the trading cash dynamics.

    ``prices`` has one more entry than ``actions``; ``tcs`` gives the percent
    fee for each step. Returns (cash_curve, rewards, wiped) where the curve
    starts at initial_cash. Stops early when a position's settlement value
    hits zero (cash floored at one currency unit if fully committed). Its
    floating-point operations and their order are those of
    ``TradingEnv.step``, so the two agree bit for bit on the same closes.
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


def greedy_action(agent, state) -> float:
    """The deterministic action of a TD3 or DQN ``agent`` on one state, from one
    single-row forward: the actor's output clamped to the action bounds, or the
    first action of the highest Q-value."""
    cfg, row = agent.config, np.asarray(state, dtype=np.float64)[None]
    if "actor" in agent.nets:
        return float(np.clip(forward(agent.nets["actor"], row)[0, 0], cfg.action_low, cfg.action_high))
    return cfg.actions[int(np.argmax(forward(agent.nets["net"], row)[0]))]


def validation_sharpe(agent, segment, env_config):
    """Row-by-row validation score of ``agent``: the annualized Sharpe of one
    greedy pass over ``segment``, or -inf when it is undefined.

    Each observation is rebuilt from the closes and scored with one
    ``greedy_action`` call; the pass is re-simulated day by day.
    """
    closes = segment.closes().tolist()
    w = env_config.window
    actions = []
    for t in range(w, len(closes) - 1):
        obs = [100.0 * (closes[k + 1] - closes[k]) / closes[k] for k in range(t - w, t)]
        actions.append(greedy_action(agent, np.array(obs)))
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


# -- tabular Q-learning --------------------------------------------------------
#
# Unlike the rest of this module, it shares one function with the package on
# purpose: the network agents' bootstrap_target, whose arithmetic the tabular
# learner checks against exact value iteration on toy MDPs.


def q_learning_update(q, s, a, r, s_next, terminal, alpha, gamma):
    """Temporal-difference update of one (state, action) cell, in place."""
    target = bootstrap_target(r, terminal, gamma, q[s_next].max())
    q[s, a] += alpha * (target - q[s, a])


def q_learning(next_state, reward, gamma, alpha, steps, rng, epsilon=1.0, start_state=0):
    """Run epsilon-greedy Q-learning on a deterministic MDP given as arrays.

    ``next_state[s, a]`` and ``reward[s, a]`` define the dynamics; the MDP is
    continuing (no terminal states). Returns the learned Q-table.
    """
    n_states, n_actions = next_state.shape
    if reward.shape != next_state.shape:
        raise ValueError("next_state and reward tables must have matching shapes")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    q = np.zeros((n_states, n_actions))
    s = start_state
    for _ in range(steps):
        if rng.random() < epsilon:
            a = int(rng.integers(n_actions))
        else:
            a = int(np.argmax(q[s]))
        s2 = int(next_state[s, a])
        q_learning_update(q, s, a, float(reward[s, a]), s2, False, alpha, gamma)
        s = s2
    return q


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


# -- the row-object CSV loader ----------------------------------------------


@dataclass(frozen=True)
class OhlcvRecord:
    """One daily OHLCV row, checked as the loader checked it before prices
    became columns."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self):
        for name in ("open", "high", "low", "close"):
            value = getattr(self, name)
            if not value > 0 or not math.isfinite(value):
                raise ValueError(f"non-positive {name} on {self.date}")
        if self.volume < 0:
            raise ValueError(f"negative volume on {self.date}")
        if self.low > min(self.open, self.close, self.high):
            raise ValueError(f"low exceeds open/close/high on {self.date}")
        if self.high < max(self.open, self.close):
            raise ValueError(f"high below open/close on {self.date}")


def reference_load_csv(path, columns=None, warnings=None):
    """``tradelab.data.load_csv`` as a ``csv.DictReader`` loop building one
    checked record per row: the reference the columnar loader must match.

    Returns the date-sorted ``(dates, closes)`` lists, appends the dropped-row
    warning to ``warnings`` and raises the loader's errors with their messages.
    """
    colmap = {"date": "Date", "open": "Open", "high": "High", "low": "Low",
              "close": "Close", "volume": "Volume"}
    if columns:
        unknown = set(columns) - set(colmap)
        if unknown:
            raise ValueError(f"unknown column keys: {sorted(unknown)}")
        colmap.update(columns)

    def parse_float(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {text!r}")
        return value

    try:
        handle = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"no such data file: {path}") from None

    records = []
    seen = {}
    dropped = 0
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [v for v in colmap.values() if v not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing column(s) {missing}")
        for row in reader:
            line = reader.line_num
            raw = {key: (row.get(name) or "").strip() for key, name in colmap.items()}
            try:
                date = dt.datetime.strptime(raw["date"], "%Y-%m-%d").date()
                fields = {k: parse_float(raw[k]) for k in ("open", "high", "low", "close", "volume")}
            except ValueError:
                dropped += 1
                continue
            if not fields["close"] > 0:
                raise ValueError(f"{path}:{line}: non-positive close {fields['close']}")
            if date in seen:
                raise ValueError(f"{path}:{line}: duplicate date {date} (first seen line {seen[date]})")
            seen[date] = line
            try:
                records.append(OhlcvRecord(date=date, **fields))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None

    if dropped and warnings is not None:
        warnings.append(f"{path}: dropped {dropped} row(s) with blank or unparseable fields")
    if not records:
        raise ValueError(f"{path}: no valid rows")
    records.sort(key=lambda r: r.date)
    return [r.date for r in records], [r.close for r in records]


# -- the reference dense kernel ----------------------------------------------
#
# The forward pass, backward pass, Adam step, clipping and Polyak mix as the
# kernel ran them before they worked in place on one flat vector: every layer
# keeps its pre-activation, backward always computes both the parameter and
# the input gradients, Adam, clipping and Polyak go layer by layer on lists
# of per-layer arrays and return new arrays. The lean kernel must give the
# same bits.


class ReferenceTape:
    """Per layer: its input, its pre-activation and its activation (before dropout)."""

    def __init__(self):
        self.inputs, self.pres, self.posts = [], [], []


def _reference_activation(net, layer):
    return net.output_activation if layer == len(net.weights) - 1 else net.hidden_activation


def reference_forward_pass(net, x, dropout_masks=None, tape=None):
    """Output of ``net`` on the (batch, in_dim) array ``x``, recording on ``tape``."""
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        name = _reference_activation(net, i)
        if name == "relu":
            h = np.maximum(z, 0.0)
        elif name == "tanh":
            h = np.tanh(z)
        else:
            h = z
        if tape is not None:
            tape.inputs.append(a)
            tape.pres.append(z)
            tape.posts.append(h)
        a = h if dropout_masks is None or i == last else h * dropout_masks[i]
    return a


def reference_backward(net, x, upstream_grad, dropout_masks=None):
    """(param_grads, input_grad) of sum(output * upstream_grad) for the
    (batch, in_dim) array ``x``: per-layer views [dW0, db0, ...] into one
    vector laid out like ``net.theta``, and the (batch, in_dim) input gradient."""
    tape = ReferenceTape()
    reference_forward_pass(net, x, dropout_masks, tape)
    flat = np.empty_like(net.theta)
    grads, start = [], 0
    for w in net.weights:
        fan_in, fan_out = w.shape
        grads.append(flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
        grads.append(flat[start + fan_in * fan_out : start + (fan_in + 1) * fan_out])
        start += (fan_in + 1) * fan_out
    last = len(net.weights) - 1
    g = upstream_grad
    for i in range(last, -1, -1):
        name = _reference_activation(net, i)
        if name == "identity":
            delta = g
        else:
            if name == "relu":
                local = (tape.pres[i] > 0.0).astype(np.float64)
            else:
                local = 1.0 - tape.posts[i] * tape.posts[i]
            if dropout_masks is not None and i < last:
                local = local * dropout_masks[i]
            delta = g * local
        np.matmul(tape.inputs[i].T, delta, out=grads[2 * i])
        np.add.reduce(delta, axis=0, out=grads[2 * i + 1])
        g = delta @ net.weights[i].T
    return grads, g


def reference_params(net):
    """Views [W0, b0, W1, b1, ...] into ``net.theta``."""
    return [p for layer in zip(net.weights, net.biases) for p in layer]


class ReferenceAdamState:
    """Adam's hyperparameters, step and per-layer moments for ``reference_adam_step``."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.step = lr, beta1, beta2, eps, 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def reference_adam_step(params, grads, opt):
    """One Adam update: new parameter arrays; ``opt``'s moments and step move in place."""
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    new_params = []
    for p, g, m, v in zip(params, grads, opt.m, opt.v):
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        denom = np.sqrt(v / bc2)
        denom += opt.eps
        step = m / bc1
        step *= opt.lr
        step /= denom
        new_params.append(p - step)
    return new_params


def reference_soft_update(target_params, source_params, tau):
    """New arrays tau * source + (1 - tau) * target."""
    return [tau * src + (1.0 - tau) * tgt for tgt, src in zip(target_params, source_params)]


def reference_clip_gradients(grads, max_norm):
    """(clipped, norm): per-layer gradients scaled by max_norm/norm when their
    global L2 norm, summed one layer at a time, exceeds max_norm."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    return (grads if norm <= max_norm else [g * (max_norm / norm) for g in grads]), norm


def _assign(params, values):
    """Copy new per-layer arrays into the views ``params``."""
    for p, value in zip(params, values):
        p[...] = value


# -- list-based agent updates ------------------------------------------------


def _gather_batch(buffer, batch_size, rng):
    """The replay batch, drawn as ``ReplayBuffer.sample`` draws it and gathered
    one stored row at a time: state = table row, next state = the row after."""
    slots = rng.integers(0, len(buffer), size=batch_size)
    stored = [(int(buffer._row[i]), float(buffer._action[i]), float(buffer._reward[i]),
               float(buffer._terminal[i])) for i in slots]
    table = buffer.observations
    s = np.stack([table[row] for row, _, _, _ in stored])
    a = np.array([[action] for _, action, _, _ in stored])
    r = np.array([reward for _, _, reward, _ in stored])
    s2 = np.stack([table[row + 1] for row, _, _, _ in stored])
    term = np.array([terminal for _, _, _, terminal in stored])
    return s, a, r, s2, term


class ListTd3Update:
    """TD3's update on per-layer parameter lists with the reference kernel.

    Every backward runs its own forward pass and computes both gradients;
    Adam, clipping and Polyak mixing go layer by layer on the
    ``reference_params`` views, and the actor gradient is rebuilt here from
    forward and backward. It moves the networks of the agent it is given and
    keeps its own per-layer Adam state.
    """

    def __init__(self, agent):
        cfg = agent.config
        self.agent = agent
        self.opts = {
            "actor": ReferenceAdamState(reference_params(agent.nets["actor"]), lr=cfg.actor_lr),
            "critic1": ReferenceAdamState(reference_params(agent.nets["critic1"]), lr=cfg.critic_lr),
            "critic2": ReferenceAdamState(reference_params(agent.nets["critic2"]), lr=cfg.critic_lr),
        }
        self.updates = 0
        self.actor_grad_norms = []  # before clipping, one per delayed step

    def __call__(self, buffer, episode, rng):
        ag, cfg = self.agent, self.agent.config
        s, a, r, s2, term = _gather_batch(buffer, cfg.batch_size, rng)
        n = len(s)

        sigma_t = schedule_value(cfg.policy_noise, episode)
        clip_k = schedule_value(cfg.noise_clip, episode)
        a2 = reference_forward_pass(ag.nets["actor_target"], s2)
        eps = np.clip(rng.normal(0.0, sigma_t, size=(n, 1)) if sigma_t > 0 else np.zeros((n, 1)),
                      -clip_k, clip_k)
        a2 = np.clip(a2 + eps, cfg.action_low, cfg.action_high)
        x2 = np.hstack([s2, a2])
        q1_next = reference_forward_pass(ag.nets["critic1_target"], x2)[:, 0]
        q2_next = reference_forward_pass(ag.nets["critic2_target"], x2)[:, 0]
        y = r + cfg.gamma * (1.0 - term) * np.minimum(q1_next, q2_next)

        x = np.hstack([s, a])
        for name in ("critic1", "critic2"):
            params = reference_params(ag.nets[name])
            resid = reference_forward_pass(ag.nets[name], x)[:, 0] - y
            grads, _ = reference_backward(ag.nets[name], x, (2.0 * resid / n)[:, None])
            _assign(params, reference_adam_step(params, grads, self.opts[name]))

        self.updates += 1
        if self.updates % cfg.policy_delay == 0:
            a_pi = reference_forward_pass(ag.nets["actor"], s)
            xa = np.hstack([s, a_pi])
            _, dx = reference_backward(ag.nets["critic1"], xa, np.full((n, 1), 1.0 / n))
            grads, _ = reference_backward(ag.nets["actor"], s, dx[:, s.shape[1]:])
            grads, norm = reference_clip_gradients(grads, cfg.grad_clip_norm)
            self.actor_grad_norms.append(norm)
            params = reference_params(ag.nets["actor"])
            _assign(params, reference_adam_step(params, [-g for g in grads], self.opts["actor"]))
            for name in ("actor", "critic1", "critic2"):
                params = reference_params(ag.nets[f"{name}_target"])
                _assign(params, reference_soft_update(params, reference_params(ag.nets[name]), cfg.tau))


class ListDqnUpdate:
    """DQN's update on per-layer parameter lists with the reference kernel, a
    linear action-index scan and a target sync that replaces the target net
    by a clone."""

    def __init__(self, agent):
        self.agent = agent
        self.opt = ReferenceAdamState(reference_params(agent.nets["net"]), lr=agent.config.learning_rate)
        self.updates = 0

    def __call__(self, buffer, episode, rng):
        ag, cfg = self.agent, self.agent.config
        s, a, r, s2, term = _gather_batch(buffer, cfg.batch_size, rng)
        n = len(s)
        idx = np.array([next(i for i, x in enumerate(cfg.actions) if x == act) for act in a[:, 0]])

        y = r + cfg.gamma * (1.0 - term) * reference_forward_pass(ag.nets["target"], s2).max(axis=1)
        masks = make_dropout_masks(ag.nets["net"], cfg.dropout, rng)
        q = reference_forward_pass(ag.nets["net"], s, dropout_masks=masks)
        resid = q[np.arange(n), idx] - y
        upstream = np.zeros_like(q)
        upstream[np.arange(n), idx] = 2.0 * resid / n
        grads, _ = reference_backward(ag.nets["net"], s, upstream, dropout_masks=masks)
        params = reference_params(ag.nets["net"])
        _assign(params, reference_adam_step(params, grads, self.opt))

        self.updates += 1
        if self.updates % cfg.target_sync == 0:
            ag.nets["target"] = clone(ag.nets["net"])


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
    step; returns the same per-episode log records and the replay buffer it filled."""
    env = TradingEnv(segment, env_config)
    table = env.observation_table()
    buffer = ReplayBuffer(agent.config.buffer_capacity, table)
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
            buffer.push(row, action, reward, terminal)
            if not warming and len(buffer) >= agent.config.batch_size:
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
    return log, buffer
