"""Daily OHLCV loading, percentage-change transform, and chronological splits.

The market model is one bar per calendar date for a single asset. Only the
close column drives the learning problem: a PriceSeries is the dates and
closes of its bars, and load_csv checks the open, high, low and volume of
each row but does not keep them.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fileio import reading

log = logging.getLogger(__name__)

DEFAULT_COLUMNS: Mapping[str, str] = {
    "date": "Date",
    "open": "Open",
    "high": "High",
    "low": "Low",
    "close": "Close",
    "volume": "Volume",
}

DATE_FORMAT = "%Y-%m-%d"
_ISO_DATE = re.compile(r"\d{4}-\d\d-\d\d", re.ASCII)  # DATE_FORMAT, zero-padded


class PriceSeries:
    """The chronologically ordered daily closes of one asset, with their dates."""

    def __init__(self, dates, closes):
        dates = tuple(dates)
        closes = np.array(closes, dtype=np.float64)
        if not dates:
            raise ValueError("price series is empty")
        if closes.shape != (len(dates),):
            raise ValueError(f"{len(dates)} dates for {closes.size} closes")
        bad = ~(np.isfinite(closes) & (closes > 0))
        if bad.any():
            raise ValueError(f"non-positive close on {dates[int(bad.argmax())]}")
        for prev, cur in zip(dates, dates[1:]):
            if cur <= prev:
                raise ValueError(f"dates not strictly increasing at {cur}")
        closes.flags.writeable = False
        self._dates = dates
        self._closes = closes

    def __reduce__(self):
        # rebuilt through the constructor, so a copy sent to a worker keeps a read-only array
        return (PriceSeries, (self._dates, self._closes))

    def __len__(self) -> int:
        return len(self._dates)

    def closes(self) -> np.ndarray:
        """The close of every bar; the array is read-only."""
        return self._closes

    def dates(self) -> tuple[dt.date, ...]:
        return self._dates


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation/test fractions."""

    train_frac: float = 0.8
    valid_frac: float = 0.1
    test_frac: float = 0.1

    def __post_init__(self):
        for name in ("train_frac", "valid_frac", "test_frac"):
            f = getattr(self, name)
            if not 0.0 < f < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {f}")
        total = self.train_frac + self.valid_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {total}")


def _parse_date(text: str) -> dt.date:
    """``text`` read with DATE_FORMAT; an ISO ``YYYY-MM-DD`` date takes the fast parser."""
    if _ISO_DATE.fullmatch(text):
        return dt.date.fromisoformat(text)
    return dt.datetime.strptime(text, DATE_FORMAT).date()


def load_csv(path, columns: Mapping[str, str] | None = None) -> PriceSeries:
    """Load a daily OHLCV CSV into a date-sorted PriceSeries.

    ``columns`` maps the canonical field names (date, open, high, low, close,
    volume) to the actual header names; unspecified fields use the Yahoo
    Finance defaults. Rows whose required fields are blank or unparseable are
    dropped (no imputation) and blank lines skipped; structural problems and
    invariant violations raise ValueError with file/line context. Only the
    date and close of each row are kept.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        unknown = set(columns) - set(DEFAULT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown column keys: {sorted(unknown)}")
        colmap.update(columns)

    rows: list[tuple[dt.date, float]] = []
    seen: dict[dt.date, int] = {}
    dropped = 0
    with reading(path, missing="no such data file") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [v for v in colmap.values() if v not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s) {missing}")
        index = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        # a row's date, open, high, low, close and volume cells; a short row is an IndexError
        cells = operator.itemgetter(*(index[name] for name in colmap.values()))
        isfinite = math.isfinite
        for row in reader:
            if not row:
                continue  # a blank line is no row
            line = reader.line_num
            try:
                date_text, open_, high, low, close, volume = cells(row)
                date = _parse_date(date_text.strip())
                open_, high, low, close, volume = (float(open_), float(high), float(low),
                                                   float(close), float(volume))  # each strips
                parsed = (isfinite(open_) and isfinite(high) and isfinite(low)
                          and isfinite(close) and isfinite(volume))
            except (IndexError, ValueError):
                parsed = False
            if not parsed:
                dropped += 1
                continue
            if not close > 0:
                raise ValueError(f"{path}:{line}: non-positive close {close}")
            if date in seen:
                raise ValueError(f"{path}:{line}: duplicate date {date} (first seen line {seen[date]})")
            seen[date] = line
            for name, value in (("open", open_), ("high", high), ("low", low)):
                if not value > 0:
                    raise ValueError(f"{path}:{line}: non-positive {name} on {date}")
            if volume < 0:
                raise ValueError(f"{path}:{line}: negative volume on {date}")
            if low > min(open_, close, high):
                raise ValueError(f"{path}:{line}: low exceeds open/close/high on {date}")
            if high < max(open_, close):
                raise ValueError(f"{path}:{line}: high below open/close on {date}")
            rows.append((date, close))

    if dropped:
        log.warning("%s: dropped %d row(s) with blank or unparseable fields", path, dropped)
    if not rows:
        raise ValueError(f"{path}: no valid rows")
    rows.sort()
    dates, closes = zip(*rows)
    return PriceSeries(dates, closes)


def pct_change(prices: PriceSeries) -> np.ndarray:
    """Percentage change of consecutive closes, 100 * (p[t+1] - p[t]) / p[t].

    Entry t is the move into bar t + 1, so n prices yield n - 1 changes. The
    array is read-only.
    """
    if len(prices) < 2:
        raise ValueError("series too short for percentage change (need at least 2 prices)")
    closes = prices.closes()
    values = 100.0 * (closes[1:] - closes[:-1]) / closes[:-1]
    if not np.isfinite(values).all():
        raise ValueError("return series contains non-finite values")
    values.flags.writeable = False
    return values


def chronological_split(
    prices: PriceSeries,
    spec: SplitSpec,
    window: int | None = None,
) -> tuple[PriceSeries, PriceSeries, PriceSeries]:
    """Cut the series into contiguous train/valid/test segments, in order.

    Boundaries are floor(n * train_frac) and floor(n * (train_frac +
    valid_frac)); remainder rows fall into the test segment. When ``window``
    is given, every segment must be long enough to run the environment
    (window + 2 prices: a full observation window plus one tradable day).
    """
    n = len(prices)
    i1 = math.floor(n * spec.train_frac)
    i2 = math.floor(n * (spec.train_frac + spec.valid_frac))
    bounds = ((0, i1), (i1, i2), (i2, n))
    if any(a == b for a, b in bounds):
        raise ValueError(f"split of {n} prices leaves an empty segment")
    if window is not None:
        need = window + 2
        for name, (a, b) in zip(("train", "valid", "test"), bounds):
            if b - a < need:
                raise ValueError(
                    f"{name} segment has {b - a} prices; "
                    f"window {window} needs at least {need}"
                )
    # the stored columns, not closes(): perfbench pins the number of closes() calls
    return tuple(PriceSeries(prices._dates[a:b], prices._closes[a:b]) for a, b in bounds)
