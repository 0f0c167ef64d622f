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
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.transaction_cost < 0:
            raise ValueError(f"transaction cost must be >= 0, got {self.transaction_cost}")
        if not self.initial_cash > 0:
            raise ValueError(f"initial cash must be > 0, got {self.initial_cash}")
        if self.annualization_days < 1:
            raise ValueError(f"annualization days must be >= 1, got {self.annualization_days}")


def settle(cash: float, action: float, p_t: float, p_next: float, tc: float):
    """One cash update. Returns (new_cash, held_shares, committed, fee, wiped).

    ``wiped`` is True when the max(., 0) clause binds: the position's
    settlement value hit zero, the committed cash is lost, and the episode
    must terminate.
    """
    if not -1.0 <= action <= 1.0:
        raise ValueError(f"action {action} outside [-1, 1]")
    if not (p_t > 0 and p_next > 0):
        raise ValueError(f"prices must be positive, got {p_t}, {p_next}")
    if cash < 0:
        raise ValueError(f"cash must be non-negative, got {cash}")

    if action == 0:
        return cash, 0.0, 0.0, 0.0, False

    committed = abs(action) * cash
    shares = committed / p_t
    fee = shares * tc * p_t / 100.0
    delta = p_next - p_t if action > 0 else p_t - p_next
    settlement = shares * delta + committed - fee
    if settlement <= 0.0:
        # Limited liability: the loss is capped at the committed amount.
        return max(cash - committed, CASH_FLOOR), shares, committed, fee, True
    return cash - committed + settlement, shares, committed, fee, False


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
        self._closes = segment.closes()
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
        """Advance one day; returns (reward, terminal). ``tc`` overrides the configured cost."""
        if self.terminal:
            raise ValueError("environment not reset" if self.cash is None
                             else "cannot step a terminal state")
        t, cash = self.t, self.cash
        cost = self.config.transaction_cost if tc is None else tc
        self.cash, _, _, _, wiped = settle(cash, action, self._closes[t], self._closes[t + 1], cost)
        self.t = t + 1
        self.terminal = wiped or self.t > self.last_t
        return math.log(self.cash / cash), self.terminal
