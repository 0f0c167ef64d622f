"""Property check: ``evaluate_policy`` reproduces the literal day-by-day
re-simulation over generated closes and actions, wipes and hold fees included."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradelab.env import EnvConfig
from tradelab.harness import evaluate_policy

from helpers import make_series
from oracles import resimulate

WINDOW = 2

# Day-to-day close factors. A close that more than doubles wipes any short;
# a fall to 0.1% of the close wipes a long whose fee is at least 0.1%.
MOVES = st.one_of(st.floats(0.8, 1.25), st.sampled_from([0.001, 2.5]))
ACTIONS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0]))


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
    report = evaluate_policy(lambda rows: actions, make_series(closes), env_cfg, "generated", 0,
                             hold_fees=hold)
    last = len(actions) - 1
    tcs = [tc if not hold or k in (0, last) else 0.0 for k in range(len(actions))]
    curve, _, wiped = resimulate(env_cfg.initial_cash, actions, closes[WINDOW:], tcs)
    assert list(report.equity) == curve
    assert list(report.actions) == actions[: len(curve) - 1]
    assert len(report.dates) == len(curve)
    assert wiped or len(report.actions) == len(actions)  # only a wipe ends a pass early
