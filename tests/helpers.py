"""Price-series factories and replay fillers shared by the test modules."""

import datetime as dt

import numpy as np

from tradelab.data import PriceSeries
from tradelab.env import EnvConfig, TradingEnv


def make_series(closes, start=dt.date(2020, 1, 1)):
    closes = list(closes)
    return PriceSeries([start + dt.timedelta(days=i) for i in range(len(closes))], closes)


def constant_policy(action):
    """A rows-to-actions policy that takes ``action`` on every bar."""
    return lambda rows: [action] * len(rows)


def alternating_series(n, start_price=100.0, pct=1.0):
    """Deterministic series whose percentage changes alternate +pct, -pct."""
    closes = [start_price]
    for i in range(n - 1):
        factor = 1.0 + pct / 100.0 if i % 2 == 0 else 1.0 - pct / 100.0
        closes.append(closes[-1] * factor)
    return make_series(closes)


def random_walk(n, rng, start_price=100.0, scale=0.02):
    closes = [start_price]
    for _ in range(n - 1):
        closes.append(max(closes[-1] * (1.0 + rng.normal(0.0, scale)), 1e-3))
    return make_series(closes)


def observation_rows(window, n, seed=0, scale=0.3):
    """The first ``n`` rows of a random walk's observation table: sliding-window
    views, as the harness passes them to the agents."""
    series = random_walk(n + window + 1, np.random.default_rng(seed), scale=scale)
    rows = TradingEnv(series, EnvConfig(window=window)).observation_table()[:n]
    assert len(rows) == n
    return rows


def push_pairs(buffer, steps):
    """Store arbitrary ``(state, action, reward, next_state, terminal)`` steps.

    Replay rows index one observation table and a row's next state is the
    next row, so the table interleaves the pairs, [s0, s0', s1, s1', ...],
    and step i is row 2i.
    """
    steps = list(steps)
    buffer.bind(np.array([x for s, _, _, s2, _ in steps for x in (s, s2)], dtype=np.float64))
    for i, (_, action, reward, _, terminal) in enumerate(steps):
        buffer.push(2 * i, action, reward, terminal)
