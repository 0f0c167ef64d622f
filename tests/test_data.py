import contextlib
import datetime as dt
import logging
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradelab.data import (
    DATE_FORMAT,
    PriceSeries,
    SplitSpec,
    _parse_date,
    chronological_split,
    load_csv,
    pct_change,
)
from tradelab.env import EnvConfig, TradingEnv

from helpers import make_series, random_walk
from oracles import reference_load_csv

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
        assert series.dates()[0] == dt.date(2020, 1, 1)

    def test_rows_sorted_by_date(self, tmp_path):
        path = write_csv(tmp_path, [row("2020-01-03", 99), row("2020-01-01", 100), row("2020-01-02", 110)])
        series = load_csv(path)
        assert list(series.closes()) == [100.0, 110.0, 99.0]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as a spreadsheet's "CSV UTF-8" export writes it, EF BB BF before the header
        rows = [row("2020-01-01", 100), row("2020-01-02", 110)]
        plain = load_csv(write_csv(tmp_path, rows))
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (CSV_HEADER + "".join(rows)).encode())
        series = load_csv(marked)
        assert series.dates() == plain.dates()
        assert series.closes().tolist() == plain.closes().tolist()

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
        assert series.closes()[0] == 100.5

    def test_error_carries_line_context(self, tmp_path):
        path = write_csv(tmp_path, [row("2020-01-01", 100), row("2020-01-02", -5)])
        with pytest.raises(ValueError, match=r":3"):
            load_csv(path)


FIELDS = ("date", "open", "high", "low", "close", "volume")
DEFAULT_HEADER = dict(zip(FIELDS, ("Date", "Open", "High", "Low", "Close", "Volume")))
DATE_CELLS = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04", "2020-01-05", "2020-1-6",
              "20200107", "2020/01/08", "2020-02-30", " 2020-01-09 ", "null", ""]
NUMBER_CELLS = ["1", "2", "3.5", " 4 ", '"2"', "0", "-0.0", "-1", "1e400", "null", "inf", "-inf",
                "nan", "", "x"]


@st.composite
def csv_files(draw):
    """(text, columns) of a generated price CSV and the column remap to read it with."""
    names = dict(DEFAULT_HEADER)
    columns = None
    if draw(st.booleans()):
        columns = {f: f"my_{f}" for f in draw(st.sets(st.sampled_from(FIELDS), min_size=1))}
        names.update(columns)
    # (name, field) per column; an extra column, a repeated name among them, holds 7s
    extra = draw(st.sampled_from([[], ["Adj Close"], [names["close"]], [names["low"]]]))
    header = draw(st.permutations([(name, f) for f, name in names.items()] + [(n, None) for n in extra]))
    if draw(st.sampled_from([False] * 19 + [True])):
        header.remove(draw(st.sampled_from(header)))
    lines = [",".join(name for name, _ in header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["blank", "clean", "clean", "one_bad_field", "one_bad_field", "any"]))
        if kind == "blank":
            lines.append("")
            continue
        price = draw(st.sampled_from(["1", "2", "3.5"]))
        cells = {"date": draw(st.sampled_from(DATE_CELLS)), "volume": "100",
                 **{f: price for f in ("open", "high", "low", "close")}}
        if kind == "one_bad_field":
            cells[draw(st.sampled_from(FIELDS[1:]))] = draw(st.sampled_from(NUMBER_CELLS))
        elif kind == "any":
            cells.update((f, draw(st.sampled_from(NUMBER_CELLS))) for f in FIELDS[1:])
        texts = [cells.get(f, "7") for _, f in header]
        width = draw(st.sampled_from([0, 0, 0, 0, 0, -1, -3, 1, 2]))  # short rows and extra cells
        texts = texts[:width] if width < 0 else texts + ["9"] * width
        lines.append(",".join(texts))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), columns


def columns_of(path, columns):
    series = load_csv(path, columns)
    return series.dates(), series.closes().tolist()


def outcome(load, *args):
    """``load(*args)``'s (dates, closes), or the type and message of the error it raised."""
    try:
        dates, closes = load(*args)
    except (ValueError, FileNotFoundError) as exc:
        return type(exc), str(exc)
    return tuple(dates), list(closes)


@contextlib.contextmanager
def logged_warnings():
    """The messages ``tradelab.data`` logs inside the block."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("tradelab.data")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


# one row per numeric column and non-finite cell (nan, inf, -inf): 15 rows the loader drops
NON_FINITE_ROWS = "".join(
    f"2020-02-{day:02d}," + ",".join(cell if i == column else "2" for i in range(5)) + "\n"
    for day, (column, cell) in enumerate(((c, v) for c in range(5) for v in ("nan", "inf", "-inf")), 1))


class TestLoaderMatchesReference:
    """``load_csv`` accepts, drops and rejects exactly what the row-object loader did."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=csv_files())
    @example(case=("", None))  # empty file
    @example(case=(CSV_HEADER + "\n2020-01-02,1,1,1,1,1\n\n\n2020-01-01,2,2,2,2,1\n", None))  # blanks
    @example(case=(CSV_HEADER + "2020-01-01,1,1,1\n2020-01-02,1,1,1,1,1,5,6\n", None))  # short, extra
    @example(case=(CSV_HEADER + "2020-01-01,null,1,1,1,1\n2020-01-02,1,inf,1,1,1\n"
                   "2020-01-03,1,1,nan,1,1\n2020-01-04,1,1,1,1,1\n", None))  # null, inf, nan
    @example(case=(CSV_HEADER + "2020-01-03,1,1,1,1,1\n2020-1-4,1,1,1,1,1\n2020-01-01,1,1,1,1,1\n",
                   None))  # unsorted, non-ISO
    @example(case=(CSV_HEADER + "2020-01-01,1,1,1,1,1\n2020-01-01,2,2,2,2,1\n", None))  # duplicate
    @example(case=(CSV_HEADER + "2020-01-01,0,1,1,1,1\n", None))  # non-positive open
    @example(case=(CSV_HEADER + "2020-01-01,1,-2,1,1,1\n", None))  # non-positive high
    @example(case=(CSV_HEADER + "2020-01-01,1,1,0,1,1\n", None))  # non-positive low
    @example(case=(CSV_HEADER + "2020-01-01,1,1,1,0,1\n", None))  # non-positive close
    @example(case=(CSV_HEADER + "2020-01-01,1,1,1,1,-1\n", None))  # negative volume
    @example(case=(CSV_HEADER + "2020-01-01,1,2,1.5,2,1\n", None))  # low above open
    @example(case=(CSV_HEADER + "2020-01-01,2,2,1.5,1,1\n", None))  # low above close
    @example(case=(CSV_HEADER + "2020-01-01,2,1,1.5,2,1\n", None))  # low above high
    @example(case=(CSV_HEADER + "2020-01-01,5,3,1,2,1\n", None))  # high below open
    @example(case=(CSV_HEADER + "2020-01-01,2,3,1,5,1\n", None))  # high below close
    @example(case=("v,c,d,h,l,o\n1,3,2020-01-01,3,3,3\n", {"date": "d", "open": "o", "high": "h",
                                                             "low": "l", "close": "c",
                                                             "volume": "v"}))  # remapped header
    @example(case=(CSV_HEADER + " 2020-01-02 , 1 ,\t2, 1 ,1.5 , 10 \n2020-01-01, 1,1 ,1,1,0\n",
                   None))  # whitespace-padded cells
    @example(case=(CSV_HEADER + " 2020-01-01 ,1,1,1,1,1\n 2020-01-02\t, 2 ,1 ,1, 1 ,1\n",
                   None))  # padded cells, then an error naming its line
    @example(case=(CSV_HEADER + "2020-01-01,1,1,1,1,1\n2020-01-02\n2020-01-03,1,1,1,1\n"
                   "2020-01-04,1,1,1,1,1\n2020-01-05,3\n", None))  # rows shorter than the header
    @example(case=(CSV_HEADER + "2020-01-01,2,2,2,2,2\n" + NON_FINITE_ROWS + "2020-03-01,2,2,2,2,2\n",
                   None))  # nan, inf and -inf in each numeric column
    @example(case=(CSV_HEADER + NON_FINITE_ROWS + "2020-03-01,2,2,2,0,2\n",
                   None))  # the line of an error after dropped rows
    def test_generated_csvs(self, tmp_path_factory, case):
        text, columns = case
        path = tmp_path_factory.mktemp("csv") / "prices.csv"
        path.write_bytes(text.encode("utf-8"))
        with logged_warnings() as warnings:
            got = outcome(columns_of, path, columns)
        expected_warnings = []
        expected = outcome(reference_load_csv, path, columns, expected_warnings)
        assert got == expected
        assert warnings == expected_warnings


class TestBarInvariants:
    def test_close_must_be_positive(self, tmp_path):
        for close in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="non-positive close"):
                PriceSeries((dt.date(2020, 1, 1),), (close,))
        path = write_csv(tmp_path, ["2020-01-01,1.0,1.0,1.0,0.0,0.0\n"])
        with pytest.raises(ValueError, match="non-positive close"):
            load_csv(path)

    def test_low_bounds_other_fields(self, tmp_path):
        path = write_csv(tmp_path, ["2020-01-01,1.0,2.0,1.5,1.0,0.0\n"])
        with pytest.raises(ValueError, match="low exceeds"):
            load_csv(path)

    @pytest.mark.parametrize("bar", ["2020-01-02,5,3,1,2,1\n", "2020-01-02,2,3,1,5,1\n"])
    def test_high_bounds_open_and_close(self, tmp_path, bar):
        path = write_csv(tmp_path, ["2020-01-01,1,1,1,1,1\n", bar])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: high below open/close on 2020-01-02$"):
            load_csv(path)

    def test_dates_strictly_increasing(self):
        day = dt.date(2020, 1, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries((day, day), (1.0, 1.0))

    def test_one_close_per_date(self):
        with pytest.raises(ValueError, match="empty"):
            PriceSeries((), ())
        with pytest.raises(ValueError, match="2 dates for 1 closes"):
            PriceSeries((dt.date(2020, 1, 1), dt.date(2020, 1, 2)), (1.0,))


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
        values = rng.uniform(1.0, 2.0, 30)
        series = PriceSeries([dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(30)], values)
        closes = series.closes()
        assert closes is series.closes()
        assert closes.dtype == np.float64
        assert closes.tolist() == values.tolist()
        assert not np.shares_memory(closes, values)
        assert not closes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            closes[0] = 1.0

    def test_read_only_after_pickling(self, rng):
        series = random_walk(10, rng)
        copy = pickle.loads(pickle.dumps(series))
        assert copy.dates() == series.dates()
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
        assert parts[0].dates() + parts[1].dates() + parts[2].dates() == series.dates()
        rejoined = np.concatenate([p.closes() for p in parts])
        assert rejoined.tolist() == series.closes().tolist()

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
