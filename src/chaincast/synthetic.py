"""Synthetic data: ARMA simulators and a three-asset demo fixture.

The simulators exist for verification (parameter recovery, order selection)
and for generating demonstration inputs with known structure.  The fixture
builder writes three aligned daily CSV files, one per asset, in which the
target asset's next-day close is driven by the current day's open, its
moving average and a partly non-linear function of its oscillator state,
so every stage of the model chain has something real to find.  Dates come
from numpy's weekday calendar, recursions step through `indicators._Smoother`,
bars go through `_ohlc_around`, and prices go to `PriceFrame` as whole
columns, which checks the bar rule once.
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

from .indicators import _RsiState, _Smoother
from .ingest import PriceFrame, write_csv


def simulate_arma(phi, theta, mu: float, n: int, sigma: float = 1.0,
                  seed: int = 0, burn: int = 300) -> np.ndarray:
    """Draw from a stationary ARMA process with Gaussian shocks.

    ``burn`` initial values are discarded so the start-up transient does not
    leak into the sample.
    """
    phi = np.asarray(phi, float)
    theta = np.asarray(theta, float)
    if n < 1:
        raise ValueError("need at least one observation")
    rng = np.random.default_rng(seed)
    p, q = phi.size, theta.size
    total = n + burn
    eps = rng.normal(0.0, sigma, total)
    w = np.zeros(total)
    for t in range(total):
        acc = mu + eps[t]
        for i in range(1, min(p, t) + 1):
            acc += phi[i - 1] * w[t - i]
        for j in range(1, min(q, t) + 1):
            acc += theta[j - 1] * eps[t - j]
        w[t] = acc
    return w[burn:]


def simulate_arima(phi, theta, mu: float, d: int, n: int, sigma: float = 1.0,
                   seed: int = 0, start_level: float = 100.0) -> np.ndarray:
    """Integrated ARMA draw on the level scale, starting near ``start_level``."""
    if d not in (0, 1, 2):
        raise ValueError(f"d must be 0, 1 or 2, got {d}")
    w = simulate_arma(phi, theta, mu, n - d, sigma=sigma, seed=seed)
    levels = w
    for _ in range(d):
        levels = np.concatenate([[0.0], np.cumsum(levels)])
    return start_level + levels


def business_days(start: datetime.date, end: datetime.date) -> list[datetime.date]:
    """Weekdays from start to end inclusive."""
    if end < start:
        raise ValueError("end date before start date")
    days = np.arange(np.datetime64(start, "D"), np.datetime64(end, "D") + 1)
    return days[np.is_busday(days)].tolist()


def random_frame(n: int, seed: int = 0, start_price: float = 100.0,
                 start_date: datetime.date = datetime.date(2020, 1, 1)) -> PriceFrame:
    """A random but invariant-respecting OHLC frame for property tests."""
    if n < 1:
        raise ValueError("need at least one bar")
    rng = np.random.default_rng(seed)
    # n weekdays fit in n // 5 + 1 weeks
    dates = business_days(start_date, start_date + datetime.timedelta(weeks=n // 5 + 1))[:n]
    closes = start_price * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
    opens = closes * np.exp(rng.normal(0.0, 0.004, n))
    highs, lows = _ohlc_around(rng.normal(0.0, 1.0, n), opens, closes, 0.006)
    return PriceFrame(f"random{seed}", tuple(dates), opens, highs, lows, closes)


def _ohlc_around(share: np.ndarray, opens: np.ndarray, closes: np.ndarray,
                 scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Highs and lows beyond the open and close by ``|share| * scale`` of
    the close, ``share`` being one standard normal draw per bar."""
    spread = np.abs(share) * scale * closes
    highs = np.maximum(opens, closes) + spread
    lows = np.minimum(opens, closes) - spread
    return highs, lows


# Seed of the bundled demo fixture, pinned so that its documented stage
# ordering (network above backward stepwise above full least squares) is a
# reproducible fact rather than a draw.
FIXTURE_SEED = 11


def make_fixture(out_dir, seed: int = FIXTURE_SEED,
                 start: datetime.date = datetime.date(2015, 1, 1),
                 end: datetime.date = datetime.date(2018, 12, 31)) -> dict[str, Path]:
    """Write gold.csv, oil.csv and eurusd.csv over a shared weekday calendar.

    Construction, per day t (driver values scaled to gold's price level):

    * eurusd: a driftless random walk near 1.1.
    * oil: a random walk whose daily changes follow an AR(1), so its own
      one-step forecasts are meaningful and its model order is learnable.
    * gold: tomorrow's close blends today's open, the long moving average
      anchored to a fixed level, signed oscillator state, and a saturated
      absolute-value term in the stochastic oscillator that no linear
      equation can represent, plus noise.  Every driver is exactly one of
      the downstream model inputs, highs and lows included, so the
      non-linear part is learnable in principle.  The companion series
      carry no information about gold: variable selection should discard
      them, and the network should beat the best linear equation by
      picking up the kink.

    Returns the written paths keyed by asset name.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    dates = business_days(start, end)
    n = len(dates)
    if n < 120:
        raise ValueError("fixture needs at least 120 trading days")

    eurusd_close = 1.10 + np.cumsum(rng.normal(0.0, 0.004, n))
    eurusd_close = np.maximum(eurusd_close, 0.5)

    oil_walk = _Smoother(1.0, 0.55, 0.0)
    oil_close = 60.0 + np.cumsum([oil_walk.step(x) for x in rng.normal(0.0, 0.45, n).tolist()])
    if oil_close.min() <= 5.0:
        raise ValueError("oil walk went too low; choose another seed")

    gold_close = np.empty(n)
    gold_open = np.empty(n)
    gold_high = np.empty(n)
    gold_low = np.empty(n)
    warm = 40
    gold_close[:warm] = 1300.0 + np.cumsum(rng.normal(0.0, 2.0, warm))
    gold_open[0] = gold_close[0] + rng.normal(0.0, 1.0)
    gold_open[1:warm] = gold_close[:warm - 1] + rng.normal(0.0, 1.0, warm - 1)

    stoch_n = 14
    # wide overnight gaps make today's open genuinely informative: no
    # combination of trailing averages can recover it
    noise = rng.normal(0.0, 1.5, n)
    gap_noise = rng.normal(0.0, 4.0, n)
    share = rng.normal(0.0, 1.0, n)
    gold_high[:warm], gold_low[:warm] = _ohlc_around(share[:warm], gold_open[:warm],
                                                     gold_close[:warm], 0.004)
    # EMA-10 and RSI-14 of the closes so far, carried from day to day
    ema_state = _Smoother.ema(10, gold_close[0])
    rsi_state = _RsiState(np.diff(gold_close[:15]))  # from the first 14 changes
    for t in range(n - 1):
        ema10 = ema_state.step(gold_close[t])
        if t > 14:
            rsi_state.step(gold_close[t] - gold_close[t - 1])
        if t < warm - 1:
            continue
        rsi14 = rsi_state.value()
        hh = gold_high[t - stoch_n + 1:t + 1].max()
        ll = gold_low[t - stoch_n + 1:t + 1].min()
        k = 100.0 * (gold_close[t] - ll) / (hh - ll) if hh > ll else 50.0
        # the moving-average anchor keeps the level in a band, so the
        # bounded kinked term cannot feed back into a runaway trend and the
        # oscillators keep visiting both sides of their range
        gold_open[t + 1] = gold_close[t] + gap_noise[t]
        gold_close[t + 1] = (
            0.62 * gold_open[t]
            + 0.38 * ema10
            - 0.30 * (ema10 - 1300.0)
            - 0.20 * (rsi14 - 50.0)
            - 0.12 * (k - 50.0)
            + 0.35 * (min(abs(k - 50.0), 35.0) - 20.0)
            + noise[t]
        )
        # `_ohlc_around` one bar at a time: tomorrow's %K reads this bar
        spread = abs(share[t + 1]) * 0.004 * gold_close[t + 1]
        gold_high[t + 1] = max(gold_open[t + 1], gold_close[t + 1]) + spread
        gold_low[t + 1] = min(gold_open[t + 1], gold_close[t + 1]) - spread
    if gold_close.min() <= 100.0:
        raise ValueError("gold path collapsed; choose another seed")
    oil_open = oil_close + rng.normal(0.0, 0.15, n)
    oil_high, oil_low = _ohlc_around(rng.normal(0.0, 1.0, n), oil_open, oil_close, 0.004)
    eur_open = eurusd_close + rng.normal(0.0, 0.001, n)
    eur_high, eur_low = _ohlc_around(rng.normal(0.0, 1.0, n), eur_open, eurusd_close, 0.004)

    paths = {}
    for asset, o, h, lo, c in (
        ("gold", gold_open, gold_high, gold_low, gold_close),
        ("oil", oil_open, oil_high, oil_low, oil_close),
        ("eurusd", eur_open, eur_high, eur_low, eurusd_close),
    ):
        path = out_dir / f"{asset}.csv"
        write_csv(PriceFrame(asset, tuple(dates), o, h, lo, c), path)
        paths[asset] = path
    return paths
