"""Property checks: ``evaluate_policy`` reproduces the literal day-by-day
re-simulation over generated closes and actions, wipes and hold fees included,
and the CSVs emitted from its arrays carry the bytes a plain list-of-floats
formatter writes for that re-simulation."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradelab.env import EnvConfig
from tradelab.harness import emit_run, evaluate_policy
from tradelab.stats import sharpe

from helpers import make_series
from oracles import resimulate

WINDOW = 2

# Day-to-day close factors. A close that more than doubles wipes any short;
# a fall to 0.1% of the close wipes a long whose fee is at least 0.1%.
MOVES = st.one_of(st.floats(0.8, 1.25), st.sampled_from([0.001, 2.5]))
ACTIONS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.0, 0.0, 1.0]))


@st.composite
def passes(draw):
    """(closes, actions, transaction cost, hold_fees) of one evaluation pass."""
    steps = draw(st.integers(1, 12))
    factors = draw(st.lists(MOVES, min_size=WINDOW + steps, max_size=WINDOW + steps))
    closes = [100.0]
    for factor in factors:
        closes.append(closes[-1] * factor)
    actions = draw(st.lists(ACTIONS, min_size=steps, max_size=steps))
    return closes, actions, draw(st.sampled_from([0.0, 0.1, 1.0])), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(passes())
@example(([100.0, 100.0, 100.0, 250.0, 250.0], [-1.0, 1.0], 0.1, True))  # short wiped on a hold
@example(([100.0, 100.0, 100.0, 100.0, 0.1, 0.1], [0.5, 1.0, -1.0], 1.0, False))  # long wiped
@example(([100.0, 101.0, 99.0, 98.0, 97.5, 99.0], [1.0, 1.0, 1.0], 1.0, True))  # full hold
def test_matches_resimulation(run):
    closes, actions, tc, hold = run
    env_cfg = EnvConfig(window=WINDOW, transaction_cost=tc)
    _, equity, taken = evaluate_policy(lambda rows: actions, make_series(closes), env_cfg,
                                       "generated", 0, hold_fees=hold)
    last = len(actions) - 1
    tcs = [tc if not hold or k in (0, last) else 0.0 for k in range(len(actions))]
    curve, _, wiped = resimulate(env_cfg.initial_cash, actions, closes[WINDOW:], tcs)
    assert list(equity) == curve
    assert list(taken) == actions[: len(curve) - 1]
    assert wiped or len(taken) == len(actions)  # only a wipe ends a pass early


def reference_csv(header, dates, values):
    """The bytes of a two-column CSV, formatted from Python floats one row at a time."""
    lines = [header]
    for date, value in zip(dates, values, strict=True):
        lines.append(date.isoformat() + "," + format(value, ".17g"))
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(passes())
@example(([100.0, 100.0, 100.0, 250.0, 250.0], [-1.0, 1.0], 0.1, True))  # short wiped on a hold
@example(([100.0, 100.0, 100.0, 100.0, 0.1, 0.1], [0.5, 1.0, -1.0], 1.0, False))  # long wiped
@example(([100.0, 100.3, 99.7, 101.1, 98.9, 99.2], [-0.0, 0.0, 0.123456789012345678], 0.1, False))
@example(([100.0, 100.0, 100.0, 100.0, 100.1], [0.30000000000000004, -0.0], 0.0, False))
def test_emitted_csvs_match_a_list_formatter(run):
    closes, actions, tc, hold = run
    env_cfg = EnvConfig(window=WINDOW, transaction_cost=tc)
    series = make_series(closes)
    score, equity, taken = evaluate_policy(lambda rows: actions, series, env_cfg, "generated", 0,
                                           hold_fees=hold)
    last = len(actions) - 1
    tcs = [tc if not hold or k in (0, last) else 0.0 for k in range(len(actions))]
    curve, _, _ = resimulate(env_cfg.initial_cash, actions, closes[WINDOW:], tcs)
    daily = [(b - a) / a for a, b in zip(curve, curve[1:])]
    try:  # the reported Sharpe ratio is that of these daily returns, bit for bit
        expected = sharpe(np.array(daily, dtype=np.float64), env_cfg.annualization_days)
    except ValueError:
        expected = 0.0  # an undefined ratio scores 0.0
    assert np.float64(score.sharpe).tobytes() == np.float64(expected).tobytes()
    dates = series.dates()[WINDOW : WINDOW + len(curve)]
    with tempfile.TemporaryDirectory() as tmp:
        emit_run(score, [d.isoformat() for d in series.dates()[WINDOW:]], equity, taken, tmp)
        out = Path(tmp)
        assert (out / "equity_generated_0.csv").read_bytes() == reference_csv(
            "date,cash", dates, curve)
        # the action taken on each date but the last; a wipe ends both files early
        assert (out / "actions_generated_0.csv").read_bytes() == reference_csv(
            "date,action", dates[:-1], actions[: len(curve) - 1])
