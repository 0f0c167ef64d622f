"""Performance metrics and the paired one-sided t-test.

The Student-t tail probability is self-contained (regularized incomplete
beta via a Lentz continued fraction), so the package carries no statistics
dependency. Accuracy is near machine precision for the degrees of freedom
used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def return_pct(initial: float, final: float) -> float:
    """Percentage gain over the period: 100 * (final - initial) / initial."""
    if not initial > 0:
        raise ValueError(f"initial cash must be positive, got {initial}")
    return 100.0 * (final - initial) / initial


def sharpe(daily_returns, annualization_days: int) -> float:
    """sqrt(days) * mean / sample-std of the daily strategy returns."""
    r = np.asarray(daily_returns, dtype=np.float64)
    if r.size < 2:
        raise ValueError(f"need at least 2 returns, got {r.size}")
    if annualization_days < 1:
        raise ValueError(f"annualization days must be >= 1, got {annualization_days}")
    std = float(r.std(ddof=1))
    if std == 0.0:
        raise ValueError("zero standard deviation")
    return math.sqrt(annualization_days) * float(r.mean()) / std


# -- Student-t tail ------------------------------------------------------

_MAX_CF_ITER = 300
_CF_EPS = 1e-15


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed to converge for a={a}, b={b}, x={x}")


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_upper_tail(t0: float, df: int) -> float:
    """P(T > t0) for a Student-t variable with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if t0 == 0.0:
        return 0.5
    if math.isinf(t0):
        return 0.0 if t0 > 0 else 1.0
    # I_{df/(df+t^2)}(df/2, 1/2) equals the two-sided tail 2 * P(T > |t0|)
    two_sided = _reg_inc_beta(df / 2.0, 0.5, df / (df + t0 * t0))
    return two_sided / 2.0 if t0 > 0 else 1.0 - two_sided / 2.0


# -- paired one-sided test ------------------------------------------------


@dataclass(frozen=True)
class TTestResult:
    """Outcome of the one-sided paired comparison.

    The null hypothesis is mean(x) >= mean(y); small p-values are evidence
    that x underperforms y; ``reject`` is p < alpha at the level the test used.
    """

    t0: float
    p_value: float
    df: int
    reject: bool


def paired_ttest_one_sided(x, y, alpha: float = 0.01) -> TTestResult:
    """Test H0: mean(x) >= mean(y) against H1: mean(x) < mean(y).

    The statistic is T0 = mean(D) / sqrt(var(D)/n) on the paired differences
    D = x - y with df = n - 1; the p-value is the lower tail P(T <= T0), so
    strongly negative statistics give small p-values and H0 is rejected when
    p < alpha.

    Degenerate-variance inputs take their limits: identical samples give
    T0 = 0 and p = 0.5; a constant nonzero difference gives T0 = +-inf and
    p in {0, 1}.
    """
    xs = np.asarray(list(x), dtype=np.float64)
    ys = np.asarray(list(y), dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError(f"sample length mismatch: {xs.size} vs {ys.size}")
    n = xs.size
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    d = xs - ys
    var = float(d.var(ddof=1))
    mean = float(d.mean())
    if var == 0.0:
        t0 = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    else:
        t0 = mean / math.sqrt(var / n)
    p = t_upper_tail(-t0, n - 1)  # == P(T <= t0)
    return TTestResult(t0=t0, p_value=p, df=n - 1, reject=p < alpha)


# -- the per-pass record ----------------------------------------------------


@dataclass(slots=True, eq=False)
class Score:
    """One pass's scores, the one record of a pass that the table and the t-tests
    read: four scalars, no ``__dict__``; its curves go to disk."""

    strategy: str
    seed: int
    return_pct: float
    sharpe: float
