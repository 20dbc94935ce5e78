"""Daily OHLC ingestion: CSV parsing, calendar alignment, train/test split.

Two file layouts are supported, and the header row alone tells them apart
(`_detect_format`).  The plain layout is the package's own interchange
format::

    date,close,open,high,low
    2015-01-02,1186.2,1184.0,1194.5,1180.1

The vendor layout matches common price-history exports: quoted fields named
``Date, Price, Open, High, Low, Vol., Change %``, dates like ``Jan 02, 2015``,
thousands separators inside numbers, and rows listed newest first.  Volume
and percent-change columns are ignored; rows are re-sorted oldest first.

Every bar obeys one rule: all four prices finite, the low positive, and
open and close within [low, high].  `PriceFrame` enforces it over whole
columns, for parsed and generated frames alike, and takes the error text
for a broken bar from `_bar_fault`, as the parser does.

`table_text` renders every table the package writes, price files included:
one key column (a date or an integer) followed by float columns.
`json_text` renders every JSON artifact.
"""

from __future__ import annotations

import bisect
import csv
import datetime
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .series import Series

PLAIN_HEADER = ("date", "close", "open", "high", "low")
VENDOR_HEADER = ("Date", "Price", "Open", "High", "Low", "Vol.", "Change %")


def _bar_fault(date, open, high, low, close) -> str | None:
    """Why one bar breaks the bar rule, or None if it keeps it."""
    if not all(math.isfinite(p) and p > 0.0 for p in (open, high, low, close)):
        return f"{date}: prices must be finite and positive"
    if not (low <= open <= high):
        return f"{date}: open {open} outside [{low}, {high}]"
    if not (low <= close <= high):
        return f"{date}: close {close} outside [{low}, {high}]"
    return None


def _broken_bars(opens, highs, lows, closes) -> np.ndarray:
    """Indices of the rows that break the bar rule, over whole columns.

    A finite high above a positive low bounds the other three prices, and
    every comparison with a NaN is false, so testing the high alone for
    finiteness covers all four.
    """
    ok = np.isfinite(highs) & (lows > 0.0)
    ok &= (lows <= opens) & (opens <= highs) & (lows <= closes) & (closes <= highs)
    return np.flatnonzero(~ok)


@dataclass(frozen=True)
class PriceFrame:
    """A contiguous run of daily bars for one asset, oldest first.

    Construction checks the bar rule (see the module docstring) once, over
    whole columns.
    """

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
        broken = _broken_bars(self.opens, self.highs, self.lows, self.closes)
        if broken.size:
            i = int(broken[0])
            fault = _bar_fault(self.dates[i], float(self.opens[i]), float(self.highs[i]),
                               float(self.lows[i]), float(self.closes[i]))
            raise ValueError(f"price frame '{self.asset}': {fault}")

    def __len__(self) -> int:
        return len(self.dates)

    def close_series(self) -> Series:
        return Series(self.closes, name=f"{self.asset}_close")

    def _rows(self, idx) -> "PriceFrame":
        """Sub-frame of the rows at ``idx``, in that order; its columns are
        copies, so it never shares memory with this frame."""
        return PriceFrame(self.asset, tuple(self.dates[i] for i in idx), self.opens[idx],
                          self.highs[idx], self.lows[idx], self.closes[idx])

    def restrict(self, keep: set[datetime.date]) -> "PriceFrame":
        """Sub-frame containing only the given dates, order preserved."""
        idx = [i for i, d in enumerate(self.dates) if d in keep]
        if not idx:
            raise ValueError(f"restriction leaves '{self.asset}' empty")
        return self._rows(idx)

    def window(self, start: datetime.date, end: datetime.date) -> "PriceFrame":
        """Sub-frame with start <= date <= end."""
        lo = bisect.bisect_left(self.dates, start)
        hi = bisect.bisect_right(self.dates, end)
        if lo >= hi:
            raise ValueError(
                f"'{self.asset}' has no rows between {start} and {end}"
            )
        return self._rows(range(lo, hi))


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


# Three years of training data followed by one year of evaluation data: the
# default of the config keys train_start, train_end, test_start and test_end.
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


def _plain_row(row: list[str], path: Path, line_no: int) -> tuple[datetime.date, tuple]:
    raw_date, raw_close, raw_open, raw_high, raw_low = row
    try:
        day = datetime.date.fromisoformat(raw_date.strip())
    except ValueError:
        raise DataFormatError(
            f"{path}, line {line_no}: cannot parse date {raw_date!r}"
        ) from None
    try:
        return day, (float(raw_open), float(raw_high), float(raw_low), float(raw_close))
    except ValueError:
        raise DataFormatError(
            f"{path}, line {line_no}: cannot parse price fields"
        ) from None


def _vendor_row(row: list[str], path: Path, line_no: int) -> tuple[datetime.date, tuple]:
    raw_date, raw_close, raw_open, raw_high, raw_low = row[:5]
    try:
        day = datetime.datetime.strptime(raw_date.strip(), "%b %d, %Y").date()
    except ValueError:
        raise DataFormatError(
            f"{path}, line {line_no}: cannot parse date {raw_date!r}"
        ) from None
    return day, tuple(_parse_vendor_number(raw, path, line_no)
                      for raw in (raw_open, raw_high, raw_low, raw_close))


def _csv_rows(path: Path, text: str):
    """Non-blank rows of ``text`` with their physical line numbers.

    `Path.read_text` turned every ``\\r\\n`` and ``\\r`` into ``\\n``, so
    splitting at ``\\n`` ends lines exactly there (`str.splitlines` would
    also split at form feeds).  A quoted field that runs past its line
    fails, because `csv.reader` would drop the line break inside it.
    """
    reader = csv.reader(text.split("\n"))
    for line_no, row in enumerate(reader, start=1):
        if reader.line_num != line_no:
            raise DataFormatError(
                f"{path}, line {line_no}: quoted field runs past the end of the line")
        if "".join(row).strip():
            yield line_no, row


def parse_csv(path) -> PriceFrame:
    """Read one asset's daily bars from a CSV file.

    The header row decides the layout; a header of neither layout fails
    naming the file.  Any malformed or invariant-violating row aborts the
    parse with an error naming the file and line; bad bars are never
    repaired or silently dropped, because downstream indicators would
    inherit the corruption.  Lines end only at ``\\n``, ``\\r\\n`` or
    ``\\r``, and a quoted field must end on its own line.  Field counts,
    dates, numbers and duplicate dates are checked row by row as the rows
    are read, the bar rule by `PriceFrame` over whole columns; the error
    names the first faulty row in file order.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc

    rows = _csv_rows(path, text)
    _, header = next(rows, (None, None))
    if header is None:
        raise DataFormatError(f"{path}: file has no header row")
    try:
        fmt = _detect_format(header)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None

    parse_row = _plain_row if fmt == "plain" else _vendor_row
    dates, prices = [], []
    seen: dict[datetime.date, int] = {}

    def check_bars():
        """Raise for the first row so far, in file order, that breaks the bar rule."""
        broken = _broken_bars(*np.array(prices, float).reshape(-1, 4).T)
        if broken.size:
            i = int(broken[0])
            raise DataFormatError(
                f"{path}, line {seen[dates[i]]}: {_bar_fault(dates[i], *prices[i])}"
            ) from None

    try:
        for line_no, row in rows:
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}, line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            day, bar = parse_row(row, path, line_no)
            first = seen.setdefault(day, line_no)
            if first != line_no:
                raise DataFormatError(
                    f"{path}, line {line_no}: duplicate date {day} (first at line {first})"
                )
            dates.append(day)
            prices.append(bar)
    except DataFormatError:
        check_bars()  # a broken bar above the faulty row comes first
        raise

    if not dates:
        raise DataFormatError(f"{path}: no data rows")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    opens, highs, lows, closes = np.array(prices, float).T[:, order]
    try:
        return PriceFrame(path.stem, tuple(dates[i] for i in order), opens, highs, lows, closes)
    except ValueError:
        check_bars()  # the frame holds a broken bar; name the first in file order
        raise


def serialize(frame: PriceFrame) -> str:
    """Render a frame in the plain layout; parsing it reproduces the frame
    bit for bit."""
    return table_text(PLAIN_HEADER, frame.dates, frame.closes, frame.opens, frame.highs,
                      frame.lows)


def write_csv(frame: PriceFrame, path) -> None:
    Path(path).write_text(serialize(frame), encoding="utf-8")


def table_text(header, keys, *columns) -> str:
    """Render a keyed table (predictions, correlograms, indicators) as CSV.

    ``header`` names every column, the key first; each key becomes an ISO
    date or an integer.  Cells are written with `repr`, so parsing the
    output reproduces them bit for bit, and a NaN cell is left empty.
    """
    cells = [["" if math.isnan(v) else repr(v) for v in np.asarray(c, dtype=float).tolist()]
             for c in columns]
    key_cells = [k.isoformat() if isinstance(k, datetime.date) else str(int(k)) for k in keys]
    lines = [",".join(header)]
    lines += [",".join(row) for row in zip(key_cells, *cells, strict=True)]
    return "\n".join(lines) + "\n"


def write_table(path, header, keys, *columns) -> None:
    Path(path).write_text(table_text(header, keys, *columns), encoding="utf-8")


def json_text(body) -> str:
    """``body`` as strict JSON, keys sorted and indented, ending in one
    newline: a NaN or an infinity raises ValueError rather than writing a
    token JSON does not have."""
    return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
