"""Non-learning benchmark strategies and the action discretizers.

Every strategy gives its action for bar t through act(kind, t, prices); the
harness wraps those calls in the policy(rows) surface the agents expose, so
the evaluation loop treats both alike. Buy-and-hold / sell-and-hold are
emulated inside the daily-close environment as a constant +1 / -1 with fees
charged only on the first open and the final close (the environment itself
force-closes daily, so the runner suppresses intermediate fees for the
``HOLDS`` kinds). The experiment config checks the kinds and ``ma_window``.
"""

from __future__ import annotations

import numpy as np

from .data import PriceSeries

TECHNICAL = ("mrma", "tfma")  # moving-average rules
RANDOM = ("random_c", "random_d")  # the kinds that draw from an rng
HOLDS = ("buy_hold", "sell_hold")  # one open and one close span the whole period
KINDS = RANDOM + HOLDS + ("long", "short") + TECHNICAL  # this order numbers the evaluation streams


def moving_average(closes: np.ndarray, t: int, window: int) -> float:
    """Simple moving average of the ``window`` closes ending at bar t."""
    if t >= len(closes):
        raise ValueError(f"index {t} out of range for {len(closes)} prices")
    if t < window:
        raise ValueError(f"insufficient history for a {window}-bar average at t={t}")
    return float(np.add.reduce(closes[t - window + 1 : t + 1])) / window  # np.mean's sum and divide


def act(kind: str, t: int, prices: PriceSeries, rng: np.random.Generator | None = None,
        ma_window: int = 20) -> float:
    """The action of strategy ``kind`` for bar t."""
    if kind in ("buy_hold", "long"):
        return 1.0
    if kind in ("sell_hold", "short"):
        return -1.0
    if kind in RANDOM:
        if rng is None:
            raise ValueError(f"strategy {kind!r} needs an rng")
        # the doubles of rng.uniform(-1.0, 1.0) and the draw of rng.choice((-1.0, 1.0))
        return -1.0 + 2.0 * rng.random() if kind == "random_c" else (-1.0, 1.0)[rng.integers(2)]
    if kind not in TECHNICAL:
        raise ValueError(f"unknown strategy kind {kind!r}; expected one of {KINDS}")
    # technical rules: compare today's close with its moving average
    closes = prices.closes()
    ma = moving_average(closes, t, ma_window)
    p = closes[t]
    if kind == "mrma":
        return 1.0 if p < ma else -1.0
    return 1.0 if p > ma else -1.0  # tfma


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
