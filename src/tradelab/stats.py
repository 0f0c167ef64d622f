"""Performance metrics and the paired one-sided t-test.

The Student-t tail probability is self-contained (the regularized incomplete
beta summed as its hypergeometric series), so the package carries no
statistics dependency. Its relative error is about 1e-13 near t = 0, where
forming x = df / (df + t^2) loses digits, and smaller in the tails.
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


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), summed as its hypergeometric series.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * sum_n (a+b)_n / (a+1)_n x^n
    (DLMF 8.17.8), taken on the side of I_x(a, b) = 1 - I_{1-x}(b, a) where
    x <= (a+1)/(a+b+2). There every term ratio is below 1, so the terms fall
    monotonically and the sum stops once a term no longer moves it.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x = b, a, 1.0 - x
    total = 0.0
    if x > 0.0:
        term = math.exp(
            math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            + a * math.log(x) + b * math.log1p(-x)
        ) / a
        n = 0
        while term > 1e-17 * total:
            total += term
            term *= (a + b + n) / (a + 1.0 + n) * x
            n += 1
    return 1.0 - total if swap else total


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
