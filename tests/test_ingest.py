import datetime
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincast.errors import DataFormatError
from chaincast.ingest import (
    DEFAULT_SPLIT,
    OhlcBar,
    PriceFrame,
    SplitSpec,
    align_calendars,
    parse_csv,
    serialize,
    split,
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
    b = frame.bar(0)
    assert b.date == datetime.date(2015, 1, 2)
    assert b.close == 1186.20
    assert b.open == 1184.10
    assert b.high == 1194.50
    assert b.low == 1180.00
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


def test_format_hint_mismatch(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text(VENDOR_SAMPLE)
    with pytest.raises(DataFormatError):
        parse_csv(p, format_hint="plain")
    assert len(parse_csv(p, format_hint="vendor")) == 2


def test_bad_format_hint(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text(PLAIN_SAMPLE)
    with pytest.raises(ValueError):
        parse_csv(p, format_hint="yaml")


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


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_bad_field_error_names_file_and_physical_line(tmp_path_factory, data):
    """One bad field among valid rows, behind a random BOM, CRLF endings,
    blank rows and (in the vendor layout) quoted thousands separators: the
    error names the file and the line the bad row sits on."""
    vendor = data.draw(st.booleans(), label="vendor")
    n_rows = data.draw(st.integers(1, 6), label="rows")
    bad_row = data.draw(st.integers(0, n_rows - 1), label="bad_row")
    bad_field = data.draw(st.sampled_from(["date", "close", "high"]), label="bad_field")
    blanks = data.draw(st.lists(st.lists(st.sampled_from(["", "   ", ",,,,"]), max_size=2),
                                min_size=n_rows + 2, max_size=n_rows + 2), label="blanks")
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
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


def test_bar_invariants():
    with pytest.raises(ValueError):
        OhlcBar(datetime.date(2020, 1, 6), open=5.0, high=4.0, low=1.0, close=2.0)
    with pytest.raises(ValueError):
        OhlcBar(datetime.date(2020, 1, 6), open=2.0, high=4.0, low=1.0, close=-2.0)
    with pytest.raises(ValueError):
        OhlcBar(datetime.date(2020, 1, 6), open=2.0, high=4.0, low=1.0, close=0.5)


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
