"""Non-learning benchmark strategies and the action discretizers.

Every strategy gives its action for bar t through act(spec, t, prices); the
harness wraps those calls in the policy(rows) surface the agents expose, so
the evaluation loop treats both alike. Buy-and-hold / sell-and-hold are
emulated inside the daily-close environment as a constant +1 / -1 with fees
charged only on the first open and the final close (the environment itself
force-closes daily, so the runner suppresses intermediate fees for them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PriceSeries

KINDS = (
    "random_c",
    "random_d",
    "buy_hold",
    "sell_hold",
    "long",
    "short",
    "mrma",
    "tfma",
)

_TECHNICAL = ("mrma", "tfma")
_RANDOM = ("random_c", "random_d")


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    ma_window: int = 20

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in _TECHNICAL and self.ma_window < 2:
            raise ValueError(f"ma_window must be >= 2 for {self.kind}, got {self.ma_window}")


def moving_average(closes: np.ndarray, t: int, window: int) -> float:
    """Simple moving average of the ``window`` closes ending at bar t."""
    if t >= len(closes):
        raise ValueError(f"index {t} out of range for {len(closes)} prices")
    if t < window:
        raise ValueError(f"insufficient history for a {window}-bar average at t={t}")
    return float(np.add.reduce(closes[t - window + 1 : t + 1])) / window  # np.mean's sum and divide


def act(spec: StrategySpec, t: int, prices: PriceSeries, rng: np.random.Generator | None = None) -> float:
    """The strategy's action for bar t."""
    kind = spec.kind
    if kind in ("buy_hold", "long"):
        return 1.0
    if kind in ("sell_hold", "short"):
        return -1.0
    if kind == "random_c":
        return float(_require_rng(rng, kind).uniform(-1.0, 1.0))
    if kind == "random_d":
        return float(_require_rng(rng, kind).choice((-1.0, 1.0)))
    # technical rules: compare today's close with its moving average
    closes = prices.closes()
    ma = moving_average(closes, t, spec.ma_window)
    p = closes[t]
    if kind == "mrma":
        return 1.0 if p < ma else -1.0
    return 1.0 if p > ma else -1.0  # tfma


def _require_rng(rng, kind):
    if rng is None:
        raise ValueError(f"strategy {kind!r} needs an rng")
    return rng


def holds_position(kind: str) -> bool:
    """True for strategies whose single open/close spans the whole period."""
    return kind in ("buy_hold", "sell_hold")


def is_random(kind: str) -> bool:
    return kind in _RANDOM


def sign_discretize(a: float) -> float:
    """Two-way discretization: -1 for a <= 0, +1 for a > 0."""
    return -1.0 if a <= 0.0 else 1.0


def d3_discretize(a: float) -> float:
    """Three-way discretization with thresholds at -1/3 and 1/3.

    -1 for a <= -1/3, 0 for -1/3 < a <= 1/3, +1 for a > 1/3.
    """
    third = 1.0 / 3.0
    if a <= -third:
        return -1.0
    if a <= third:
        return 0.0
    return 1.0
