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
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class EnvState:
    """t is the bar index whose close the next position opens at."""

    t: int
    cash: float
    terminal: bool = False


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    reward: float
    observation: np.ndarray | None
    info: dict


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


def step(
    state: EnvState,
    action: float,
    p_t: float,
    p_next: float,
    config: EnvConfig,
    tc: float | None = None,
) -> StepOutcome:
    """Advance one day. ``tc`` overrides the configured transaction cost."""
    if state.terminal:
        raise ValueError("cannot step a terminal state")
    cost = config.transaction_cost if tc is None else tc
    new_cash, shares, committed, fee, wiped = settle(state.cash, action, p_t, p_next, cost)
    reward = math.log(new_cash / state.cash)
    next_state = EnvState(t=state.t + 1, cash=new_cash, terminal=wiped)
    info = {"held_shares": shares, "committed_cash": committed, "fee": fee}
    return StepOutcome(next_state=next_state, reward=reward, observation=None, info=info)


class TradingEnv:
    """Single-segment episode driver around :func:`step`.

    Runs one chronological pass over a price segment. Instances are
    single-threaded; independent instances share nothing mutable.
    """

    def __init__(self, segment: PriceSeries, config: EnvConfig):
        w = config.window
        if len(segment) < w + 2:
            raise ValueError(
                f"segment too short: {len(segment)} prices, window {w} needs at least {w + 2}"
            )
        self.config = config
        self.segment = segment
        self._closes = segment.closes()
        self._returns = pct_change(segment).as_array()
        self._state: EnvState | None = None

    @property
    def state(self) -> EnvState:
        if self._state is None:
            raise ValueError("environment not reset")
        return self._state

    @property
    def first_t(self) -> int:
        return self.config.window

    @property
    def last_t(self) -> int:
        """Last bar index at which a position can still open."""
        return len(self.segment) - 2

    def n_steps(self) -> int:
        return self.last_t - self.first_t + 1

    def observation_at(self, t: int) -> np.ndarray:
        """Window of the last w moves known at bar t (the newest leads into bar t)."""
        w = self.config.window
        return self._returns[t - w : t].copy()

    def observation_table(self) -> np.ndarray:
        """Read-only view of every observation: row t - w is ``observation_at(t)``."""
        return np.lib.stride_tricks.sliding_window_view(self._returns, self.config.window)

    def reset(self) -> tuple[EnvState, np.ndarray]:
        self._state = EnvState(t=self.first_t, cash=self.config.initial_cash, terminal=False)
        return self._state, self.observation_at(self.first_t)

    def step(self, action: float, tc: float | None = None) -> StepOutcome:
        state = self.state
        t = state.t
        outcome = step(state, action, self._closes[t], self._closes[t + 1], self.config, tc=tc)
        next_state = outcome.next_state
        if next_state.t > self.last_t:
            next_state = replace(next_state, terminal=True)
        obs = self.observation_at(next_state.t)
        self._state = next_state
        return StepOutcome(
            next_state=next_state,
            reward=outcome.reward,
            observation=obs,
            info=outcome.info,
        )


def episode_return(cash_curve) -> float:
    """Whole-period log growth log(last/first); equals the summed step rewards."""
    curve = list(cash_curve)
    if not curve:
        raise ValueError("empty cash curve")
    if any(not c > 0 for c in curve):
        raise ValueError("cash curve contains non-positive entries")
    return math.log(curve[-1] / curve[0])
