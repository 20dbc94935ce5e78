"""Daily OHLC ingestion: CSV parsing, calendar alignment, train/test split.

Two file layouts are supported.  The plain layout is the package's own
interchange format::

    date,close,open,high,low
    2015-01-02,1186.2,1184.0,1194.5,1180.1

The vendor layout matches common price-history exports: quoted fields named
``Date, Price, Open, High, Low, Vol., Change %``, dates like ``Jan 02, 2015``,
thousands separators inside numbers, and rows listed newest first.  Volume
and percent-change columns are ignored; rows are re-sorted oldest first.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .series import Series

PLAIN_HEADER = ("date", "close", "open", "high", "low")
VENDOR_HEADER = ("Date", "Price", "Open", "High", "Low", "Vol.", "Change %")
FORMATS = ("plain", "vendor", "auto")


@dataclass(frozen=True)
class OhlcBar:
    """One trading day.  High and low must bracket both open and close."""

    date: datetime.date
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self):
        prices = (self.open, self.high, self.low, self.close)
        if not all(np.isfinite(p) and p > 0.0 for p in prices):
            raise ValueError(f"{self.date}: prices must be finite and positive")
        if not (self.low <= self.open <= self.high):
            raise ValueError(
                f"{self.date}: open {self.open} outside [{self.low}, {self.high}]"
            )
        if not (self.low <= self.close <= self.high):
            raise ValueError(
                f"{self.date}: close {self.close} outside [{self.low}, {self.high}]"
            )


@dataclass(frozen=True)
class PriceFrame:
    """A contiguous run of daily bars for one asset, oldest first."""

    asset: str
    dates: tuple[datetime.date, ...]
    opens: np.ndarray
    highs: np.ndarray
    lows: np.ndarray
    closes: np.ndarray

    def __post_init__(self):
        for field in ("opens", "highs", "lows", "closes"):
            object.__setattr__(self, field, np.asarray(getattr(self, field), float))
        n = len(self.dates)
        if n == 0:
            raise ValueError(f"price frame '{self.asset}' is empty")
        if any(arr.shape != (n,) for arr in (self.opens, self.highs, self.lows, self.closes)):
            raise ValueError(f"price frame '{self.asset}' has mismatched column lengths")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError(f"price frame '{self.asset}' dates must strictly increase")
        ok = (
            (self.lows <= self.opens) & (self.opens <= self.highs)
            & (self.lows <= self.closes) & (self.closes <= self.highs)
            & (self.lows > 0.0)
        )
        if not np.all(ok):
            bad = self.dates[int(np.argmin(ok))]
            raise ValueError(f"price frame '{self.asset}': bar invariants violated on {bad}")

    def __len__(self) -> int:
        return len(self.dates)

    @classmethod
    def from_bars(cls, asset: str, bars) -> "PriceFrame":
        bars = list(bars)
        if not bars:
            raise ValueError(f"no bars given for '{asset}'")
        return cls(
            asset=asset,
            dates=tuple(b.date for b in bars),
            opens=np.array([b.open for b in bars]),
            highs=np.array([b.high for b in bars]),
            lows=np.array([b.low for b in bars]),
            closes=np.array([b.close for b in bars]),
        )

    def bar(self, i: int) -> OhlcBar:
        return OhlcBar(self.dates[i], float(self.opens[i]), float(self.highs[i]),
                       float(self.lows[i]), float(self.closes[i]))

    def close_series(self) -> Series:
        return Series(self.closes, name=f"{self.asset}_close")

    def restrict(self, keep: set[datetime.date]) -> "PriceFrame":
        """Sub-frame containing only the given dates, order preserved."""
        idx = [i for i, d in enumerate(self.dates) if d in keep]
        if not idx:
            raise ValueError(f"restriction leaves '{self.asset}' empty")
        return PriceFrame(
            asset=self.asset,
            dates=tuple(self.dates[i] for i in idx),
            opens=self.opens[idx],
            highs=self.highs[idx],
            lows=self.lows[idx],
            closes=self.closes[idx],
        )

    def window(self, start: datetime.date, end: datetime.date) -> "PriceFrame":
        """Sub-frame with start <= date <= end."""
        keep = {d for d in self.dates if start <= d <= end}
        if not keep:
            raise ValueError(
                f"'{self.asset}' has no rows between {start} and {end}"
            )
        return self.restrict(keep)


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive train and test windows; train must end before test starts."""

    train_start: datetime.date
    train_end: datetime.date
    test_start: datetime.date
    test_end: datetime.date

    def __post_init__(self):
        if not (self.train_start <= self.train_end < self.test_start <= self.test_end):
            raise ValueError(
                "split windows must satisfy "
                "train_start <= train_end < test_start <= test_end"
            )


# Windows used throughout the worked examples: three years of training data
# followed by one year of evaluation data.
DEFAULT_SPLIT = SplitSpec(
    train_start=datetime.date(2015, 1, 1),
    train_end=datetime.date(2018, 1, 1),
    test_start=datetime.date(2018, 1, 2),
    test_end=datetime.date(2019, 1, 1),
)


def _parse_vendor_number(text: str, path: Path, line_no: int) -> float:
    cleaned = text.replace(",", "").strip()
    try:
        return float(cleaned)
    except ValueError:
        raise DataFormatError(f"{path}, line {line_no}: cannot parse number {text!r}") from None


def _detect_format(header: list[str]) -> str:
    lowered = tuple(h.strip().lower() for h in header)
    if lowered == PLAIN_HEADER:
        return "plain"
    if tuple(h.strip() for h in header) == VENDOR_HEADER:
        return "vendor"
    raise DataFormatError(f"unrecognised header: {header!r}")


def parse_csv(path, format_hint: str = "auto") -> PriceFrame:
    """Read one asset's daily bars from a CSV file.

    ``format_hint`` is ``plain``, ``vendor``, or ``auto`` to pick based on
    the header row.  Any malformed or invariant-violating row aborts the
    parse with an error naming the file and line; bad bars are never
    repaired or silently dropped, because downstream indicators would
    inherit the corruption.
    """
    if format_hint not in FORMATS:
        raise ValueError(f"format_hint must be one of {FORMATS}, got {format_hint!r}")
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc

    # blank rows are skipped, but each row keeps its physical line number
    reader = csv.reader(text.splitlines())
    rows = [(reader.line_num, r) for r in reader if any(cell.strip() for cell in r)]
    if not rows:
        raise DataFormatError(f"{path}: file has no header row")
    header = rows[0][1]
    try:
        fmt = _detect_format(header)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if format_hint != "auto" and fmt != format_hint:
        raise DataFormatError(
            f"{path}: header is {fmt!r} format but {format_hint!r} was requested"
        )

    bars = []
    seen: dict[datetime.date, int] = {}
    for line_no, row in rows[1:]:
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}, line {line_no}: expected {len(header)} fields, got {len(row)}"
            )
        if fmt == "plain":
            raw_date, raw_close, raw_open, raw_high, raw_low = row
            try:
                day = datetime.date.fromisoformat(raw_date.strip())
            except ValueError:
                raise DataFormatError(
                    f"{path}, line {line_no}: cannot parse date {raw_date!r}"
                ) from None
            try:
                o, h, lo, c = (float(raw_open), float(raw_high),
                               float(raw_low), float(raw_close))
            except ValueError:
                raise DataFormatError(
                    f"{path}, line {line_no}: cannot parse price fields"
                ) from None
        else:
            raw_date, raw_close, raw_open, raw_high, raw_low = row[:5]
            try:
                day = datetime.datetime.strptime(raw_date.strip(), "%b %d, %Y").date()
            except ValueError:
                raise DataFormatError(
                    f"{path}, line {line_no}: cannot parse date {raw_date!r}"
                ) from None
            o = _parse_vendor_number(raw_open, path, line_no)
            h = _parse_vendor_number(raw_high, path, line_no)
            lo = _parse_vendor_number(raw_low, path, line_no)
            c = _parse_vendor_number(raw_close, path, line_no)
        if day in seen:
            raise DataFormatError(
                f"{path}, line {line_no}: duplicate date {day} (first at line {seen[day]})"
            )
        seen[day] = line_no
        try:
            bars.append(OhlcBar(day, o, h, lo, c))
        except ValueError as exc:
            raise DataFormatError(f"{path}, line {line_no}: {exc}") from None

    if not bars:
        raise DataFormatError(f"{path}: no data rows")
    bars.sort(key=lambda b: b.date)
    return PriceFrame.from_bars(path.stem, bars)


def serialize(frame: PriceFrame) -> str:
    """Render a frame in the plain layout.

    Floats are written with `repr`, so parsing the output reproduces the
    frame bit for bit.
    """
    lines = [",".join(PLAIN_HEADER)]
    for i, day in enumerate(frame.dates):
        lines.append(
            f"{day.isoformat()},{float(frame.closes[i])!r},{float(frame.opens[i])!r},"
            f"{float(frame.highs[i])!r},{float(frame.lows[i])!r}"
        )
    return "\n".join(lines) + "\n"


def write_csv(frame: PriceFrame, path) -> None:
    Path(path).write_text(serialize(frame), encoding="utf-8")


def align_calendars(frames: list[PriceFrame]) -> list[PriceFrame]:
    """Restrict every frame to the dates present in all of them.

    Daily series from different markets skip different holidays; the model
    chain needs one shared calendar.
    """
    if not frames:
        raise ValueError("no frames to align")
    common = set(frames[0].dates)
    for f in frames[1:]:
        common &= set(f.dates)
    if not common:
        raise ValueError(
            "calendars share no dates: " + ", ".join(f.asset for f in frames)
        )
    return [f.restrict(common) for f in frames]


def split(frame: PriceFrame, spec: SplitSpec = DEFAULT_SPLIT) -> tuple[PriceFrame, PriceFrame]:
    """Partition a frame into inclusive train and test windows."""
    train = frame.window(spec.train_start, spec.train_end)
    test = frame.window(spec.test_start, spec.test_end)
    return train, test
