import csv
import datetime
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincast.errors import DataFormatError
from chaincast.ingest import (
    DEFAULT_SPLIT,
    PriceFrame,
    SplitSpec,
    _detect_format,
    _parse_vendor_number,
    align_calendars,
    parse_csv,
    serialize,
    split,
    table_text,
    write_csv,
)

from conftest import doji_frame, ohlc_frame, weekdays

PLAIN_SAMPLE = (
    "date,close,open,high,low\n"
    "2015-01-02,1186.20,1184.10,1194.50,1180.00\n"
    "2015-01-05,1203.90,1186.80,1207.70,1185.10\n"
)

VENDOR_SAMPLE = (
    '"Date","Price","Open","High","Low","Vol.","Change %"\n'
    '"Jan 05, 2015","1,203.90","1,186.80","1,207.70","1,185.10","","1.49%"\n'
    '"Jan 02, 2015","1,186.20","1,184.10","1,194.50","1,180.00","","0.18%"\n'
)


def test_plain_parse_example_row(tmp_path):
    p = tmp_path / "gold.csv"
    p.write_text(PLAIN_SAMPLE)
    frame = parse_csv(p)
    assert frame.dates[0] == datetime.date(2015, 1, 2)
    assert frame.closes[0] == 1186.20
    assert frame.opens[0] == 1184.10
    assert frame.highs[0] == 1194.50
    assert frame.lows[0] == 1180.00
    assert frame.asset == "gold"


def test_vendor_parse_matches_plain(tmp_path):
    plain = tmp_path / "a.csv"
    vendor = tmp_path / "b.csv"
    plain.write_text(PLAIN_SAMPLE)
    vendor.write_text(VENDOR_SAMPLE)
    fa, fb = parse_csv(plain), parse_csv(vendor)
    assert fa.dates == fb.dates
    np.testing.assert_array_equal(fa.closes, fb.closes)
    np.testing.assert_array_equal(fa.opens, fb.opens)
    np.testing.assert_array_equal(fa.highs, fb.highs)
    np.testing.assert_array_equal(fa.lows, fb.lows)


def test_vendor_rows_resorted_oldest_first(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text(VENDOR_SAMPLE)
    frame = parse_csv(p)
    assert frame.dates[0] < frame.dates[1]


def test_layout_follows_the_header(tmp_path):
    """The header alone picks the layout: plain rows under a vendor header
    are read as vendor rows and fail at the first of them."""
    p = tmp_path / "v.csv"
    p.write_text(VENDOR_SAMPLE.splitlines()[0] + "\n" + PLAIN_SAMPLE.split("\n", 1)[1])
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}, line 2: "
                                              "expected 7 fields, got 5$"):
        parse_csv(p)


def test_unknown_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("time,price\n1,2\n")
    with pytest.raises(DataFormatError, match="header"):
        parse_csv(p)


def test_low_above_high_names_line(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text(
        "date,close,open,high,low\n"
        "2015-01-02,1186.20,1184.10,1180.00,1194.50\n"
    )
    with pytest.raises(DataFormatError, match="line 2"):
        parse_csv(p)


def test_duplicate_date_rejected(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text(
        "date,close,open,high,low\n"
        "2015-01-02,10,10,11,9\n"
        "2015-01-02,10.5,10,11,9\n"
    )
    with pytest.raises(DataFormatError, match="duplicate date"):
        parse_csv(p)


def test_unparseable_number_named(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("date,close,open,high,low\n2015-01-02,ten,10,11,9\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_csv(p)


def test_error_line_counts_blank_rows(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("date,close,open,high,low\n2015-01-02,10,10,11,9\n\n\n"
                 "2015-01-05,ten,10,11,9\n")
    with pytest.raises(DataFormatError, match=re.escape(f"{p}, line 5: cannot parse price")):
        parse_csv(p)


def test_form_feed_in_a_field_ends_no_line(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("date,close,open,high,low\n2015-01-02,10,10,11\x0c,9\n"
                 "2015-01-05,ten,10,11,9\n")
    with pytest.raises(DataFormatError,
                       match=re.escape(f"{p}, line 3: cannot parse price fields")):
        parse_csv(p)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_quoted_field_across_lines_names_its_first_line(tmp_path, newline):
    """A price split over two lines inside its quotes would be read as
    1186.20 with the line break dropped; the row fails instead."""
    p = tmp_path / "x.csv"
    lines = ['"Date","Price","Open","High","Low","Vol.","Change %"',
             '"Jan 05, 2015","1,186.25","1,184.25","1,191.25","1,180.25","","0.10%"',
             '"Jan 06, 2015","1,18', '6.20","1,184.25","1,191.25","1,180.25","","0.10%"',
             '"Jan 07, 2015","1,187.25","1,184.25","1,191.25","1,180.25","","0.10%"']
    p.write_bytes((newline.join(lines) + newline).encode())
    with pytest.raises(DataFormatError, match=re.escape(
            f"{p}, line 3: quoted field runs past the end of the line")):
        parse_csv(p)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_bad_field_error_names_file_and_physical_line(tmp_path_factory, data):
    """One bad field among valid rows, behind a random BOM, CRLF or CR
    endings, blank rows (some of form feeds and other characters that end
    no line) and (in the vendor layout) quoted thousands separators: the
    error names the file and the line the bad row sits on."""
    vendor = data.draw(st.booleans(), label="vendor")
    n_rows = data.draw(st.integers(1, 6), label="rows")
    bad_row = data.draw(st.integers(0, n_rows - 1), label="bad_row")
    bad_field = data.draw(st.sampled_from(["date", "close", "high"]), label="bad_field")
    blanks = data.draw(st.lists(st.lists(st.sampled_from(["", "   ", ",,,,", "\x0c", "\x0b\x85"]),
                                         max_size=2),
                                min_size=n_rows + 2, max_size=n_rows + 2), label="blanks")
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="newline")
    bom = data.draw(st.booleans(), label="bom")

    if vendor:
        lines = ['"Date","Price","Open","High","Low","Vol.","Change %"']
    else:
        lines = ["date,close,open,high,low"]
    lines = blanks[0] + lines
    bad_line = None
    for i in range(n_rows):
        lines += blanks[i + 1]
        day = datetime.date(2015, 1, 5) + datetime.timedelta(days=i)
        close = 1186.25 + 17.5 * i
        fields = {"date": day.strftime("%b %d, %Y") if vendor else day.isoformat(),
                  "close": f"{close:,.2f}" if vendor else f"{close:.2f}",
                  "open": f"{close - 2:,.2f}" if vendor else f"{close - 2:.2f}",
                  "high": f"{close + 5:,.2f}" if vendor else f"{close + 5:.2f}",
                  "low": f"{close - 6:,.2f}" if vendor else f"{close - 6:.2f}"}
        if i == bad_row:
            fields[bad_field] = "n/a"
            bad_line = len(lines) + 1
        order = [fields[k] for k in ("date", "close", "open", "high", "low")]
        if vendor:
            lines.append(",".join(f'"{v}"' for v in order + ["", "0.10%"]))
        else:
            lines.append(",".join(order))
    lines += blanks[-1]

    path = tmp_path_factory.mktemp("csv") / "asset.csv"
    path.write_bytes((("\ufeff" if bom else "") + newline.join(lines) + newline).encode("utf-8"))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}, line {bad_line}: ")):
        parse_csv(path)


def test_missing_file():
    with pytest.raises(DataFormatError):
        parse_csv("/nonexistent/nowhere.csv")


def test_empty_file(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("")
    with pytest.raises(DataFormatError):
        parse_csv(p)


def test_header_only(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("date,close,open,high,low\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        parse_csv(p)


def test_serialize_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    closes = 1000 + np.cumsum(rng.normal(0, 3, 40))
    spread = np.abs(rng.normal(0, 2, 40))
    frame = ohlc_frame(
        opens=closes + rng.normal(0, 1, 40),
        highs=np.maximum(closes, closes + rng.normal(0, 1, 40)) + spread + 5,
        lows=np.minimum(closes, closes + rng.normal(0, 1, 40)) - spread - 5,
        closes=closes,
        asset="rt",
    )
    p = tmp_path / "rt.csv"
    write_csv(frame, p)
    back = parse_csv(p)
    assert back.dates == frame.dates
    for field in ("opens", "highs", "lows", "closes"):
        np.testing.assert_array_equal(getattr(back, field), getattr(frame, field))
    # serializing the reparse reproduces the file byte for byte
    assert serialize(back) == p.read_text()


def test_table_text_keys_empty_nan_and_repr_round_trip():
    rng = np.random.default_rng(5)
    values = rng.normal(0, 1e3, 3) / 7.0
    values[1] = np.nan
    days = [datetime.date(2020, 2, 28), datetime.date(2020, 2, 29), datetime.date(2020, 3, 2)]
    text = table_text(("date", "v", "w"), days, values, np.array([0.1, -0.0, 2.0]))
    lines = text.splitlines()
    assert text.endswith("\n") and lines[0] == "date,v,w"
    assert lines[2] == "2020-02-29,,-0.0"
    cells = [line.split(",") for line in lines[1:]]
    assert [c[0] for c in cells] == [d.isoformat() for d in days]
    assert [float(c[1]) for c in cells if c[1]] == [values[0], values[2]]
    assert table_text(("lag", "x"), np.arange(1, 3), [0.5, 1e-17]) == "lag,x\n1,0.5\n2,1e-17\n"
    with pytest.raises(ValueError):
        table_text(("lag", "x"), [1, 2], [0.5])


def test_align_calendars_intersection():
    days = weekdays(6)
    a = doji_frame([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], asset="a")
    b_days = [days[0], days[2], days[4]]
    b = PriceFrame(
        asset="b",
        dates=tuple(b_days),
        opens=np.ones(3), highs=np.ones(3), lows=np.ones(3), closes=np.ones(3),
    )
    out_a, out_b = align_calendars([a, b])
    assert out_a.dates == out_b.dates == tuple(b_days)
    np.testing.assert_array_equal(out_a.closes, [1.0, 3.0, 5.0])


def test_align_calendars_disjoint():
    a = doji_frame([1.0, 2.0], start=datetime.date(2020, 1, 6))
    b = doji_frame([1.0, 2.0], start=datetime.date(2021, 1, 4))
    with pytest.raises(ValueError, match="no dates"):
        align_calendars([a, b])


def test_default_split_windows():
    assert DEFAULT_SPLIT.train_start == datetime.date(2015, 1, 1)
    assert DEFAULT_SPLIT.train_end == datetime.date(2018, 1, 1)
    assert DEFAULT_SPLIT.test_start == datetime.date(2018, 1, 2)
    assert DEFAULT_SPLIT.test_end == datetime.date(2019, 1, 1)


def test_split_is_inclusive_partition():
    days = weekdays(40, start=datetime.date(2017, 12, 1))
    frame = doji_frame(np.linspace(10, 20, 40), start=days[0])
    spec = SplitSpec(days[0], days[19], days[20], days[39])
    train, test = split(frame, spec)
    assert train.dates[-1] == days[19]
    assert test.dates[0] == days[20]
    assert len(train) + len(test) == len(frame)


def test_split_spec_ordering_enforced():
    with pytest.raises(ValueError):
        SplitSpec(
            datetime.date(2018, 1, 1), datetime.date(2018, 6, 1),
            datetime.date(2018, 5, 1), datetime.date(2018, 12, 1),
        )


def test_window_empty_error():
    frame = doji_frame([1.0, 2.0])
    with pytest.raises(ValueError):
        frame.window(datetime.date(1999, 1, 1), datetime.date(1999, 2, 1))


@pytest.mark.parametrize("fields, day, value, message", [
    (("opens", "highs"), 1, np.inf, "prices must be finite and positive"),
    (("closes",), 2, np.nan, "prices must be finite and positive"),
    (("opens",), 0, 3.0, "open 3.0 outside [1.0, 2.0]"),
    (("closes",), 1, -2.0, "prices must be finite and positive"),
    (("closes",), 2, 0.5, "close 0.5 outside [1.0, 2.0]"),
])
def test_frame_rejects_broken_bars(fields, day, value, message):
    days = weekdays(3)
    columns = {"opens": np.ones(3), "highs": np.full(3, 2.0), "lows": np.ones(3),
               "closes": np.ones(3)}
    for field in fields:
        columns[field][day] = value
    with pytest.raises(ValueError, match=re.escape(f"price frame 'x': {days[day]}: {message}")):
        PriceFrame(asset="x", dates=tuple(days), **columns)


def test_frame_rejects_unsorted_dates():
    days = weekdays(3)
    with pytest.raises(ValueError):
        PriceFrame(
            asset="x",
            dates=(days[1], days[0], days[2]),
            opens=np.ones(3), highs=np.ones(3), lows=np.ones(3), closes=np.ones(3),
        )


def test_close_series_carries_asset_name():
    frame = doji_frame([1.0, 2.0], asset="oil")
    s = frame.close_series()
    assert s.name == "oil_close"
    np.testing.assert_array_equal(s.values, [1.0, 2.0])


# --- equivalence with the row-by-row parser ---------------------------------


@dataclass(frozen=True)
class _ReferenceBar:
    """The bar type the reference parser below was written against."""

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


def _reference_parse_csv(path) -> PriceFrame:
    """The row-by-row parser that built and checked one bar per row."""
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
            bars.append(_ReferenceBar(day, o, h, lo, c))
        except ValueError as exc:
            raise DataFormatError(f"{path}, line {line_no}: {exc}") from None

    if not bars:
        raise DataFormatError(f"{path}: no data rows")
    bars.sort(key=lambda b: b.date)
    return PriceFrame(
        asset=path.stem,
        dates=tuple(b.date for b in bars),
        opens=np.array([b.open for b in bars]),
        highs=np.array([b.high for b in bars]),
        lows=np.array([b.low for b in bars]),
        closes=np.array([b.close for b in bars]),
    )


# Faults injected into one row: (kind, price field or None, replacement).
_FAULTS = [
    ("fields", None, "extra"), ("fields", None, "missing"),
    ("date", None, "2015-02-30"), ("date", None, "n/a"),
    ("duplicate", None, None), ("number", "open", "n/a"), ("number", "low", "1.2.3"),
    ("price", "close", "nan"), ("price", "high", "inf"), ("price", "open", "-inf"),
    ("price", "low", "0"), ("price", "low", "-3.5"), ("price", "close", "0"),
    ("price", "open", "1e9"), ("price", "close", "0.001"),
]


def _parse_outcome(parse, path):
    try:
        frame = parse(path)
    except (DataFormatError, ValueError) as exc:
        return type(exc), str(exc)
    return (frame.asset, frame.dates,
            [(col.dtype, col.tobytes()) for col in (frame.opens, frame.highs,
                                                     frame.lows, frame.closes)])


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_parse_csv_matches_row_by_row_reference(tmp_path_factory, data):
    """Random plain and vendor files behind a random BOM, CRLF endings and
    blank rows, vendor rows newest first, with up to two injected faults:
    the frame is bit-identical to the row-by-row reference parser's, or
    both fail with the same error."""
    vendor = data.draw(st.booleans(), label="vendor")
    n_rows = data.draw(st.integers(1, 8), label="rows")
    offsets = sorted(data.draw(st.lists(st.integers(0, 60), min_size=n_rows,
                                        max_size=n_rows, unique=True), label="days"))
    price = st.floats(0.5, 5000.0, allow_nan=False)
    rows = []
    for offset in offsets:
        day = datetime.date(2015, 1, 2) + datetime.timedelta(days=offset)
        close, open_ = data.draw(price, label="close"), data.draw(price, label="open")
        spread = data.draw(st.floats(0.0, 0.2), label="spread") * min(close, open_)
        bar = {"date": day.strftime("%b %d, %Y") if vendor else day.isoformat(),
               "open": open_, "high": max(open_, close) + spread,
               "low": min(open_, close) - spread, "close": close}
        for key in ("open", "high", "low", "close"):
            bar[key] = f"{bar[key]:,.2f}" if vendor else repr(bar[key])
        rows.append(bar)
    faults = data.draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.sampled_from(_FAULTS)),
                                max_size=2), label="faults")
    for i, (kind, key, value) in faults:
        if kind == "fields":
            rows[i][value] = True
        elif kind == "duplicate":
            rows[i]["date"] = rows[(i + 1) % n_rows]["date"]
        elif kind == "date":
            rows[i]["date"] = value
        else:
            rows[i][key] = value

    if vendor:
        lines = ['"Date","Price","Open","High","Low","Vol.","Change %"']
        rows.reverse()
    else:
        lines = ["date,close,open,high,low"]
    for bar in rows:
        lines += data.draw(st.lists(st.sampled_from(["", "  ", ",,,,"]), max_size=2),
                           label="blanks")
        fields = [bar[k] for k in ("date", "close", "open", "high", "low")]
        fields += ["", "0.10%"] if vendor else []
        fields = fields + ["1"] if "extra" in bar else fields
        fields = fields[:-1] if "missing" in bar else fields
        lines.append(",".join(f'"{v}"' for v in fields) if vendor else ",".join(fields))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    bom = data.draw(st.booleans(), label="bom")

    path = tmp_path_factory.mktemp("csv") / "asset.csv"
    path.write_bytes((("\ufeff" if bom else "") + newline.join(lines) + newline).encode("utf-8"))
    outcome = _parse_outcome(parse_csv, path)
    assert outcome == _parse_outcome(_reference_parse_csv, path)
    if not faults:
        assert outcome[0] == "asset"
