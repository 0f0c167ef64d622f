import datetime as dt
import pickle

import numpy as np
import pytest

from tradelab.data import (
    DATE_FORMAT,
    PriceBar,
    PriceSeries,
    SplitSpec,
    _parse_date,
    chronological_split,
    load_csv,
    pct_change,
)
from tradelab.env import EnvConfig, TradingEnv

from helpers import make_series, random_walk

CSV_HEADER = "Date,Open,High,Low,Close,Volume\n"


def write_csv(tmp_path, rows, header=CSV_HEADER, name="prices.csv"):
    path = tmp_path / name
    path.write_text(header + "".join(rows))
    return path


def row(date, close, volume="1000"):
    return f"{date},{close},{close},{close},{close},{volume}\n"


class TestLoadCsv:
    def test_three_row_parse(self, tmp_path):
        path = write_csv(tmp_path, [row("2020-01-01", 100), row("2020-01-02", 110), row("2020-01-03", 99)])
        series = load_csv(path)
        assert len(series) == 3
        assert list(series.closes()) == [100.0, 110.0, 99.0]
        assert series.bars[0].date == dt.date(2020, 1, 1)

    def test_rows_sorted_by_date(self, tmp_path):
        path = write_csv(tmp_path, [row("2020-01-03", 99), row("2020-01-01", 100), row("2020-01-02", 110)])
        series = load_csv(path)
        assert list(series.closes()) == [100.0, 110.0, 99.0]

    def test_duplicate_date_rejected(self, tmp_path):
        path = write_csv(tmp_path, [row("2020-01-01", 100), row("2020-01-01", 101)])
        with pytest.raises(ValueError, match="duplicate date"):
            load_csv(path)

    def test_non_positive_close_rejected(self, tmp_path):
        path = write_csv(tmp_path, [row("2020-01-01", 100), row("2020-01-02", -5)])
        with pytest.raises(ValueError, match="non-positive close"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["2020-01-01,100,100,100\n"], header="Date,Open,High,Low\n")
        with pytest.raises(ValueError, match="missing column"):
            load_csv(path)

    def test_unparseable_rows_are_dropped(self, tmp_path):
        path = write_csv(tmp_path, [
            row("2020-01-01", 100),
            "2020-01-02,null,null,null,null,null\n",
            ",,,,,\n",
            row("2020-01-03", 99),
        ])
        series = load_csv(path)
        assert len(series) == 2
        assert list(series.closes()) == [100.0, 99.0]

    def test_dates_are_what_strptime_reads(self, tmp_path):
        path = write_csv(tmp_path, [row(d, 100) for d in
                                    ("2016-01-04", "2016-1-5", "20160106", "2016-02-30", "2016-W01-1")])
        assert load_csv(path).dates() == (dt.date(2016, 1, 4), dt.date(2016, 1, 5))

        gen = np.random.default_rng(8)
        texts = ["2016-01- 5", "2016- 1-05", "0000-01-01", "9999-12-31", "2016-1-05", "2016-01-5",
                 "２０１６-01-05", "2016-01-05T", "2016/01/05", "+016-01-05", "2016-02-29", "2015-02-29"]
        pieces = (["2016", "0000", "0001", "9999", "201", "20160", " 2016"], ["-", "-", "/", " "],
                  ["1", "01", "9", "09", "10", "12", "13", "00", "0", " 1", "1 "], ["-", "-", ""],
                  ["1", "01", "5", "05", "29", "30", "31", "32", "00", " 5", "5 ", "W"])
        texts += ["".join(gen.choice(p) for p in pieces) for _ in range(2000)]
        texts += [f"{y:04d}-{m:02d}-{d:02d}" for y, m, d in zip(
            gen.integers(0, 10_000, 500), gen.integers(0, 14, 500), gen.integers(0, 33, 500))]
        for text in texts:
            try:
                expected = dt.datetime.strptime(text, DATE_FORMAT).date()
            except ValueError:
                expected = None
            try:
                got = _parse_date(text)
            except ValueError:
                got = None
            assert got == expected, text

    def test_custom_column_names(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["2020-01-01,100,101,99,100.5,10\n"],
            header="day,o,h,l,c,v\n",
        )
        series = load_csv(path, columns={"date": "day", "open": "o", "high": "h",
                                         "low": "l", "close": "c", "volume": "v"})
        assert series.bars[0].close == 100.5

    def test_error_carries_line_context(self, tmp_path):
        path = write_csv(tmp_path, [row("2020-01-01", 100), row("2020-01-02", -5)])
        with pytest.raises(ValueError, match=r":3"):
            load_csv(path)


class TestBarInvariants:
    def test_close_must_be_positive(self):
        with pytest.raises(ValueError, match="non-positive close"):
            PriceBar(dt.date(2020, 1, 1), 1.0, 1.0, 1.0, 0.0, 0.0)

    def test_low_bounds_other_fields(self):
        with pytest.raises(ValueError, match="low exceeds"):
            PriceBar(dt.date(2020, 1, 1), 1.0, 2.0, 1.5, 1.0, 0.0)

    def test_dates_strictly_increasing(self):
        bar = PriceBar(dt.date(2020, 1, 1), 1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries(bars=(bar, bar))


class TestPctChange:
    def test_hand_example(self):
        assert pct_change(make_series([100, 110, 99])).tolist() == [10.0, -10.0]

    def test_constant_series(self):
        assert pct_change(make_series([50, 50, 50])).tolist() == [0.0, 0.0]

    def test_halving(self):
        assert pct_change(make_series([200, 100])).tolist() == [-50.0]

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            pct_change(make_series([100]))

    def test_read_only_float64(self, rng):
        x = pct_change(random_walk(20, rng))
        assert x.dtype == np.float64 and x.shape == (19,)
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0

    def test_non_finite_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            pct_change(make_series([1e-300, 1e300]))

    def test_reconstruction_roundtrip(self, rng):
        series = random_walk(200, rng)
        closes = series.closes()
        x = pct_change(series)
        rebuilt = closes[:-1] * (1.0 + x / 100.0)
        assert np.allclose(rebuilt, closes[1:], rtol=1e-9, atol=0.0)


class TestCloses:
    def test_one_read_only_array(self, rng):
        series = random_walk(30, rng)
        closes = series.closes()
        assert closes is series.closes()
        assert closes.dtype == np.float64
        assert closes.tolist() == [b.close for b in series.bars]
        assert not closes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            closes[0] = 1.0

    def test_read_only_after_pickling(self, rng):
        series = random_walk(10, rng)
        copy = pickle.loads(pickle.dumps(series))
        assert copy == series
        assert np.array_equal(copy.closes(), series.closes())
        assert not copy.closes().flags.writeable


class TestSplit:
    def test_floor_arithmetic_small(self):
        parts = chronological_split(make_series(range(1, 11)), SplitSpec(0.8, 0.1, 0.1))
        assert [len(p) for p in parts] == [8, 1, 1]

    def test_eighty_ten_ten(self):
        parts = chronological_split(make_series(range(1, 101)), SplitSpec(0.8, 0.1, 0.1))
        assert [len(p) for p in parts] == [80, 10, 10]

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(0.5, 0.5, 0.1)

    def test_concatenation_is_identity(self, rng):
        series = random_walk(97, rng)
        parts = chronological_split(series, SplitSpec(0.6, 0.2, 0.2))
        rejoined = parts[0].bars + parts[1].bars + parts[2].bars
        assert rejoined == series.bars

    def test_window_check(self):
        series = make_series(range(1, 101))
        with pytest.raises(ValueError, match="at least"):
            chronological_split(series, SplitSpec(0.8, 0.1, 0.1), window=30)
        parts = chronological_split(series, SplitSpec(0.8, 0.1, 0.1), window=5)
        assert [len(p) for p in parts] == [80, 10, 10]


def table(closes, w):
    """The observation table of an env over ``closes`` with window ``w``."""
    return TradingEnv(make_series(closes), EnvConfig(window=w)).observation_table()


class TestWindow:
    def test_first_full_window(self):
        closes = [100, 101, 102.01, 103.0301, 104.060401]
        r4 = pct_change(make_series(closes)).tolist()
        got = table(closes, 3)[0]
        assert got.tolist() == [r4[0], r4[1], r4[2]]

    def test_literal_values(self):
        # percentage changes 100, -50, 200, -50, all exact in binary
        rows = table([100, 200, 100, 300, 150], 3)
        assert rows[0].tolist() == [100.0, -50.0, 200.0]
        assert rows[1].tolist() == [-50.0, 200.0, -50.0]

    def test_insufficient_history(self):
        # a window of 5 moves plus one tradable day needs 7 prices
        with pytest.raises(ValueError, match="too short"):
            table([100, 101, 102, 103, 104, 105], 5)

    def test_one_step_shift_shares_all_but_one(self, rng):
        series = random_walk(60, rng)
        w = 7
        rows = TradingEnv(series, EnvConfig(window=w)).observation_table()
        for i in range(len(rows) - 1):
            a, b = rows[i], rows[i + 1]
            assert a[1:].tolist() == b[:-1].tolist()
            assert not np.array_equal(a, b) or a[0] == a[-1]
