"""The daily trading MDP: continuous action in [-1, 1], log-return reward.

Each step commits |a| of current cash to a long (a > 0) or short (a < 0)
position at today's close and settles it at tomorrow's close:

    h = |a| * c                    committed cash
    n = h / p_t                    held shares
    fee = n * TC * p_t / 100       charged once, on the opening notional
    c' = c - h + max(n * d + h - fee, 0)

with d = p_next - p_t for a long and d = p_t - p_next for a short. The
reward is log(c'/c), so per-step rewards telescope to the whole-period log
growth. Positions never carry overnight; cash is the only persistent state.

The observation is the window of the last ``w`` percentage changes realized
up to and including the move into the position-opening bar; the step then
realizes the following move. A segment therefore needs w + 2 prices for one
step (w + 1 to fill the first window, one more day to trade into).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import PriceSeries, pct_change

# When the max(., 0) clause wipes the committed cash, remaining cash is
# floored here so the log reward stays finite.
CASH_FLOOR = 1.0


@dataclass(frozen=True)
class EnvConfig:
    window: int = 30
    transaction_cost: float = 0.0  # percent of opening notional, per step
    initial_cash: float = 100_000.0
    annualization_days: int = 252

    def __post_init__(self):
        check_count(self.window, 1, "window")
        if not 0 <= self.transaction_cost < math.inf:  # NaN and inf fail too
            raise ValueError(f"transaction cost must be >= 0, got {self.transaction_cost}")
        if not 0 < self.initial_cash < math.inf:
            raise ValueError(f"initial cash must be > 0, got {self.initial_cash}")
        check_count(self.annualization_days, 1, "annualization days")


def check_count(value, low: int, name: str) -> None:
    """``value``, or each item of a tuple of sizes, must be an integer >= ``low``. NaN
    fails the comparison, and a bool or a float such as 10.5 or inf fails as the JSON
    reader fails it, so a config built in Python refuses them too; numpy integers pass."""
    sizes = isinstance(value, tuple)
    label, items = (f"{name} sizes", value) if sizes else (name, (value,))
    if not all(x >= low for x in items):
        raise ValueError(f"{label} must be >= {low}, got {value}")
    if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in items):
        raise ValueError(f"{label} must be {'integers' if sizes else 'an integer'}, got {value}")


class TradingEnv:
    """One chronological pass over a price segment.

    ``t`` is the bar whose close the next position opens at, ``cash`` the
    only state that carries over, and ``terminal`` whether the pass is over.
    The observation at bar t is row ``t - first_t`` of
    :meth:`observation_table`. Instances are single-threaded; independent
    instances share nothing mutable.
    """

    def __init__(self, segment: PriceSeries, config: EnvConfig):
        w = config.window
        if len(segment) < w + 2:
            raise ValueError(
                f"segment too short: {len(segment)} prices, window {w} needs at least {w + 2}"
            )
        self.config = config
        self._cost = config.transaction_cost  # the config is frozen
        self._closes = segment.closes().tolist()  # step on Python floats
        self._returns = pct_change(segment)
        self.first_t = w
        self.last_t = len(segment) - 2  # the last bar a position can still open at
        self.t = self.first_t
        self.cash: float | None = None  # None until reset
        self.terminal = True

    def observation_table(self) -> np.ndarray:
        """Read-only view of every observation: row t - w holds the w moves known at bar t,
        the newest leading into bar t."""
        return np.lib.stride_tricks.sliding_window_view(self._returns, self.config.window)

    def reset(self) -> None:
        self.t = self.first_t
        self.cash = self.config.initial_cash
        self.terminal = False

    def step(self, action: float, tc: float | None = None) -> tuple[float, bool]:
        """Advance one day by the module docstring's update; returns (reward, terminal).

        ``tc`` overrides the configured cost. The step is terminal after the last bar,
        or when the max(., 0) clause binds: the position's settlement value hit zero,
        the committed cash is lost (limited liability) and the episode ends.
        """
        if self.terminal:
            raise ValueError("environment not reset" if self.cash is None
                             else "cannot step a terminal state")
        if not -1.0 <= action <= 1.0:
            raise ValueError(f"action {action} outside [-1, 1]")
        t, cash = self.t, self.cash
        new_cash, wiped = cash, False
        if action != 0:
            closes = self._closes
            p_t, p_next = closes[t], closes[t + 1]
            committed = abs(action) * cash
            shares = committed / p_t
            fee = shares * (self._cost if tc is None else tc) * p_t / 100.0
            delta = p_next - p_t if action > 0 else p_t - p_next
            settlement = shares * delta + committed - fee
            wiped = settlement <= 0.0
            new_cash = max(cash - committed, CASH_FLOOR) if wiped else cash - committed + settlement
        self.cash, self.t = new_cash, t + 1
        self.terminal = terminal = wiped or t >= self.last_t
        return math.log(new_cash / cash), terminal
