"""Shared fixtures: quick frame builders and the bundled demo pipeline run."""

import datetime

import numpy as np
import pytest

from chaincast import pipeline, synthetic
from chaincast.ingest import PriceFrame


def weekdays(n, start=datetime.date(2020, 1, 6)):
    """The first ``n`` weekdays from ``start``; n weekdays fit in n // 5 + 1 weeks."""
    return synthetic.business_days(start, start + datetime.timedelta(weeks=n // 5 + 1))[:n]


def doji_frame(closes, asset="test", start=datetime.date(2020, 1, 6)):
    """Frame where open = high = low = close, so range logic is transparent."""
    closes = np.asarray(closes, float)
    return PriceFrame(asset, tuple(weekdays(len(closes), start)), closes, closes, closes, closes)


def ohlc_frame(opens, highs, lows, closes, asset="test",
               start=datetime.date(2020, 1, 6)):
    return PriceFrame(asset, tuple(weekdays(len(closes), start)), opens, highs, lows, closes)


@pytest.fixture(scope="session")
def demo_bundle(tmp_path_factory):
    """Bundled three-asset fixture with the pipeline run twice on it.

    Generating the data and running the chain dominates the suite's wall
    time, so every test that needs a completed run shares this one.
    """
    root = tmp_path_factory.mktemp("demo")
    paths = synthetic.make_fixture(root)
    cfg_path = root / "pipeline.cfg"
    cfg_path.write_text(
        "gold_csv = gold.csv\n"
        "eurusd_csv = eurusd.csv\n"
        "oil_csv = oil.csv\n"
        "out_dir = out\n"
    )
    config = pipeline.load_config(cfg_path)
    report = pipeline.run(config)
    first_bytes = (root / "out" / "report.json").read_bytes()
    report_again = pipeline.run(config)
    second_bytes = (root / "out" / "report.json").read_bytes()
    return {
        "root": root,
        "paths": paths,
        "cfg_path": cfg_path,
        "config": config,
        "report": report,
        "report_again": report_again,
        "out_dir": root / "out",
        "report_bytes": (first_bytes, second_bytes),
    }
