import math

import numpy as np
import pytest

from tradelab.stats import paired_ttest_one_sided, return_pct, sharpe, t_upper_tail

from oracles import printed_unit, t_tail_by_quadrature


class TestReturnPct:
    def test_gain(self):
        assert return_pct(100_000, 109_300) == pytest.approx(9.3, abs=1e-9)

    def test_loss(self):
        assert return_pct(100_000, 64_700) == pytest.approx(-35.3, abs=1e-9)

    def test_unchanged(self):
        assert return_pct(123.4, 123.4) == 0.0

    def test_non_positive_initial(self):
        with pytest.raises(ValueError, match="positive"):
            return_pct(0.0, 10.0)

    def test_compounding_across_subperiods(self, rng):
        # splitting a period anywhere and compounding reproduces the whole-period value
        curve = 100.0 * np.cumprod(1.0 + rng.normal(0, 0.01, size=30))
        whole = return_pct(curve[0], curve[-1])
        for cut in (5, 14, 22):
            first = return_pct(curve[0], curve[cut])
            second = return_pct(curve[cut], curve[-1])
            composed = 100.0 * ((1 + first / 100.0) * (1 + second / 100.0) - 1.0)
            assert composed == pytest.approx(whole, rel=1e-9)


class TestSharpe:
    def test_hand_example(self):
        assert sharpe([0.01, -0.005, 0.02], 252) == pytest.approx(10.513, abs=1e-3)

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError, match="zero standard deviation"):
            sharpe([0.01, 0.01, 0.01], 252)

    def test_too_few_returns(self):
        with pytest.raises(ValueError, match="at least 2"):
            sharpe([0.01], 252)

    def test_odd_symmetry(self, rng):
        r = rng.normal(0.001, 0.01, size=40)
        assert sharpe(-r, 252) == pytest.approx(-sharpe(r, 252), rel=1e-12)

    def test_scale_invariance(self, rng):
        r = rng.normal(0.001, 0.01, size=40)
        for k in (0.1, 3.0, 250.0):
            assert sharpe(k * r, 365) == pytest.approx(sharpe(r, 365), rel=1e-9)


class TestTUpperTail:
    def test_center_is_half(self):
        for df in (1, 2, 10, 39):
            assert t_upper_tail(0.0, df) == 0.5

    def test_infinite_tail(self):
        assert t_upper_tail(math.inf, 5) == 0.0
        assert t_upper_tail(-math.inf, 5) == 1.0
        assert t_upper_tail(60.0, 39) < 1e-12
        for df in (1, 2, 39, 1000):  # t0 * t0 overflows, so x = df / (df + t0^2) is 0
            assert t_upper_tail(1e200, df) == 0.0
            assert t_upper_tail(-1e200, df) == 1.0

    def test_antisymmetry(self, rng):
        for _ in range(100):
            t = float(rng.uniform(-6, 6))
            df = int(rng.integers(1, 80))
            assert abs(t_upper_tail(-t, df) - (1.0 - t_upper_tail(t, df))) < 1e-10

    def test_published_reference_points(self):
        # classic one-sided critical values: P(T > 1.6839) = 0.05 at df=40
        assert t_upper_tail(1.6839, 40) == pytest.approx(0.05, abs=5e-5)
        assert t_upper_tail(2.4233, 40) == pytest.approx(0.01, abs=5e-5)

    def test_matches_quadrature_oracle(self):
        for t in (-4.41, -3.95, -2.84, -1.66, -0.5, 0.25, 1.0, 2.84, 5.5):
            for df in (1, 2, 5, 39, 60, 199, 1000):
                assert abs(t_upper_tail(t, df) - t_tail_by_quadrature(t, df)) < 1e-8

    def test_relative_error_against_closed_forms(self):
        """Relative error sees the deep tails, where an absolute tolerance passes any small value."""
        def df1(t):
            return math.atan2(1.0, t) / math.pi

        def df2(t):  # (s - t) / (2s) with s = sqrt(t^2 + 2), which is 1 / (s (s + t))
            s = math.sqrt(t * t + 2.0)
            return 1.0 / (s * (s + t)) if t > 0 else (s - t) / (2.0 * s)

        for magnitude in np.logspace(-3, 8, 221):
            for t in (float(magnitude), -float(magnitude)):
                for df, exact in ((1, df1), (2, df2)):
                    assert abs(t_upper_tail(t, df) - exact(t)) <= 1e-12 * exact(t), (t, df)

    def test_df_must_be_positive(self):
        with pytest.raises(ValueError):
            t_upper_tail(1.0, 0)


class TestPairedTTest:
    def test_statistic_and_df(self):
        result = paired_ttest_one_sided([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert result.t0 == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-9)
        assert result.df == 2
        # x clearly above y: no evidence for mean(x) < mean(y)
        assert result.p_value == pytest.approx(1.0 - 0.0370899, abs=1e-4)
        assert not result.reject

    def test_upper_tail_of_positive_statistic(self):
        # the same statistic through the tail function gives the textbook value
        assert t_upper_tail(2.0 * math.sqrt(3.0), 2) == pytest.approx(0.0370899, abs=1e-6)

    def test_identical_samples(self):
        result = paired_ttest_one_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t0 == 0.0
        assert result.p_value == 0.5
        assert not result.reject

    def test_constant_shift_is_infinitely_significant(self):
        x = [1.0, 2.0, 3.0]
        y = [2.0, 3.0, 4.0]  # y = x + 1 exactly
        result = paired_ttest_one_sided(x, y, alpha=0.01)
        assert result.t0 == -math.inf
        assert result.p_value == 0.0
        assert result.reject

    def test_swapping_negates_statistic(self, rng):
        x = rng.normal(size=12).tolist()
        y = rng.normal(size=12).tolist()
        a = paired_ttest_one_sided(x, y)
        b = paired_ttest_one_sided(y, x)
        assert a.t0 == pytest.approx(-b.t0, abs=1e-12)
        assert a.p_value + b.p_value == pytest.approx(1.0, abs=1e-10)

    def test_noisy_separation_rejects(self, rng):
        x = rng.normal(0.0, 0.05, size=40)
        y = x + 1.0 + rng.normal(0.0, 0.05, size=40)
        result = paired_ttest_one_sided(x.tolist(), y.tolist(), alpha=0.01)
        assert result.t0 < -10
        assert result.p_value < 1e-6
        assert result.reject
        assert abs(result.p_value - t_tail_by_quadrature(-result.t0, 39)) < 1e-8

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            paired_ttest_one_sided([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_ttest_one_sided([1.0], [0.5])


class TestPublishedProtocolValues:
    """Frozen reference tails for the 40-run comparison protocol (df = 39)."""

    @pytest.mark.parametrize("t0,expected", [
        (-2.84, 0.0035661613045523),
        (-1.66, 0.0524676929171861),
        (-3.95, 0.0001589602431469),
        (-4.41, 0.0000394524304164),
    ])
    def test_lower_tail_values(self, t0, expected):
        p = t_upper_tail(-t0, 39)  # lower tail at t0 by symmetry
        assert p == pytest.approx(expected, abs=1e-10)
        assert abs(p - t_tail_by_quadrature(-t0, 39)) < 1e-8

    def test_printed_digit_rule_rejects_wrong_readings(self):
        # criterion 6's reference check: within one unit of the last printed digit
        def accepted(p, printed):
            return abs(p - printed) < printed_unit(printed)

        published = [(-2.84, 0.003), (-1.66, 0.052), (-3.95, 0.00016), (-4.41, 0.00004)]

        def all_rows_accepted(reading):
            return all(accepted(reading(t0), p) for t0, p in published)

        assert all_rows_accepted(lambda t0: t_upper_tail(-t0, 39))
        wrong_readings = {
            "two-sided": lambda t0: 2.0 * t_upper_tail(-t0, 39),
            "upper tail": lambda t0: t_upper_tail(t0, 39),
            "normal": lambda t0: 0.5 * math.erfc(-t0 / math.sqrt(2.0)),
            "df=30": lambda t0: t_upper_tail(-t0, 30),
            "df=50": lambda t0: t_upper_tail(-t0, 50),
        }
        for name, reading in wrong_readings.items():
            assert not all_rows_accepted(reading), name
        assert accepted(0.0035, 0.003)
        assert not accepted(0.0531, 0.052)
