"""Price-series factories, replay fillers, taped gradients and report checks shared by
the test modules."""

import datetime as dt
from dataclasses import fields

import numpy as np

from tradelab.agents import ReplayBuffer
from tradelab.data import PriceSeries
from tradelab.env import EnvConfig, TradingEnv
from tradelab.neuralnet import Tape, backward, forward


def make_series(closes, start=dt.date(2020, 1, 1)):
    closes = list(closes)
    return PriceSeries([start + dt.timedelta(days=i) for i in range(len(closes))], closes)


def constant_policy(action):
    """A rows-to-actions policy that takes ``action`` on every bar."""
    return lambda rows: [action] * len(rows)


def taped_gradients(net, x, up, dropout_masks=None):
    """(param_grad, input_grad) of one pass: a forward pass recorded on a tape,
    then one ``backward`` call per gradient on that tape."""
    tape = Tape()
    forward(net, x, dropout_masks=dropout_masks, tape=tape)
    return backward(net, up, tape=tape, wrt="params"), backward(net, up, tape=tape, wrt="input")


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


def spiked_series(n=40, spike_at=20, seed=4):
    """A random walk whose close triples once: a short held into it is wiped."""
    closes = random_walk(n, np.random.default_rng(seed)).closes().tolist()
    closes[spike_at + 1:] = [3.0 * c for c in closes[spike_at + 1:]]
    return make_series(closes)


def observation_rows(window, n, seed=0, scale=0.3):
    """The first ``n`` rows of a random walk's observation table: sliding-window
    views, as the harness passes them to the agents."""
    series = random_walk(n + window + 1, np.random.default_rng(seed), scale=scale)
    rows = TradingEnv(series, EnvConfig(window=window)).observation_table()[:n]
    assert len(rows) == n
    return rows


# one packed record per held row: the replay buffer's four columns, 21 bytes
HELD_ROW = np.dtype([("row", np.int32), ("action", np.float64), ("reward", np.float64),
                     ("terminal", np.bool_)])


def held_rows(buffer):
    """The rows a replay buffer holds (records of ``HELD_ROW``) in insertion order, oldest first."""
    held = np.empty(len(buffer), HELD_ROW)
    for name in HELD_ROW.names:
        held[name] = getattr(buffer, f"_{name}")[: len(buffer)]
    return np.roll(held, -buffer._pushed)  # the oldest row sits at pushed % capacity


def push_pairs(steps, capacity):
    """A replay buffer of ``capacity`` rows that stores arbitrary
    ``(state, action, reward, next_state, terminal)`` steps.

    Replay rows index one observation table and a row's next state is the
    next row, so the table interleaves the pairs, [s0, s0', s1, s1', ...],
    and step i is row 2i.
    """
    steps = list(steps)
    buffer = ReplayBuffer(capacity, np.array([x for s, _, _, s2, _ in steps for x in (s, s2)],
                                             dtype=np.float64))
    for i, (_, action, reward, _, terminal) in enumerate(steps):
        buffer.push(2 * i, action, reward, terminal)
    return buffer


def assert_same_reports(a, b):
    """Two records of one type (such as Scores), or two {key: record} maps, agree
    on every field."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same_reports(a[key], b[key])
        return
    assert type(a) is type(b)
    for f in fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
