"""Daily OHLCV loading, percentage-change transform, and chronological splits.

The market model is one bar per calendar date for a single asset. Only the
close column drives the learning problem; the other OHLCV fields are parsed
and retained for report context.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

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


@dataclass(frozen=True)
class PriceBar:
    """One daily OHLCV record."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self):
        for name in ("open", "high", "low", "close"):
            value = getattr(self, name)
            if not value > 0 or not math.isfinite(value):
                raise ValueError(f"non-positive {name} on {self.date}")
        if self.volume < 0:
            raise ValueError(f"negative volume on {self.date}")
        if self.low > min(self.open, self.close, self.high):
            raise ValueError(f"low exceeds open/close/high on {self.date}")


@dataclass(frozen=True)
class PriceSeries:
    """Chronologically ordered daily bars for one asset."""

    bars: tuple[PriceBar, ...]

    def __post_init__(self):
        if not self.bars:
            raise ValueError("price series is empty")
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date <= prev.date:
                raise ValueError(f"dates not strictly increasing at {cur.date}")
        closes = np.array([b.close for b in self.bars], dtype=np.float64)
        closes.flags.writeable = False
        object.__setattr__(self, "_closes", closes)

    def __reduce__(self):
        # rebuilt from the bars, so a copy sent to a worker keeps a read-only closes array
        return (PriceSeries, (self.bars,))

    def __len__(self) -> int:
        return len(self.bars)

    def closes(self) -> np.ndarray:
        """The close of every bar, built once per series; the array is read-only."""
        return self._closes

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(b.date for b in self.bars)


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


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


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
    dropped (no imputation); structural problems and invariant violations
    raise ValueError with file/line context.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        unknown = set(columns) - set(DEFAULT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown column keys: {sorted(unknown)}")
        colmap.update(columns)

    try:
        handle = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"no such data file: {path}") from None

    bars: list[PriceBar] = []
    seen: dict[dt.date, int] = {}
    dropped = 0
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [v for v in colmap.values() if v not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing column(s) {missing}")
        for row in reader:
            line = reader.line_num
            raw = {key: (row.get(name) or "").strip() for key, name in colmap.items()}
            try:
                date = _parse_date(raw["date"])
                fields = {k: _parse_float(raw[k]) for k in ("open", "high", "low", "close", "volume")}
            except ValueError:
                dropped += 1
                continue
            if not fields["close"] > 0:
                raise ValueError(f"{path}:{line}: non-positive close {fields['close']}")
            if date in seen:
                raise ValueError(f"{path}:{line}: duplicate date {date} (first seen line {seen[date]})")
            seen[date] = line
            try:
                bars.append(PriceBar(date=date, **fields))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None

    if dropped:
        log.warning("%s: dropped %d row(s) with blank or unparseable fields", path, dropped)
    if not bars:
        raise ValueError(f"{path}: no valid rows")
    bars.sort(key=lambda b: b.date)
    return PriceSeries(bars=tuple(bars))


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
    pieces = (prices.bars[:i1], prices.bars[i1:i2], prices.bars[i2:])
    if any(len(p) == 0 for p in pieces):
        raise ValueError(f"split of {n} prices leaves an empty segment")
    if window is not None:
        need = window + 2
        for name, piece in zip(("train", "valid", "test"), pieces):
            if len(piece) < need:
                raise ValueError(
                    f"{name} segment has {len(piece)} prices; "
                    f"window {window} needs at least {need}"
                )
    return tuple(PriceSeries(bars=p) for p in pieces)
