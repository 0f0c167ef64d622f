"""Price-series factories and replay fillers shared by the test modules."""

import datetime as dt

import numpy as np

from tradelab.data import PriceBar, PriceSeries


def make_series(closes, start=dt.date(2020, 1, 1)):
    bars = tuple(
        PriceBar(date=start + dt.timedelta(days=i), open=float(c), high=float(c),
                 low=float(c), close=float(c), volume=0.0)
        for i, c in enumerate(closes)
    )
    return PriceSeries(bars=bars)


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
