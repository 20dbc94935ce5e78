import numpy as np
import pytest
from scipy.signal import lfilter

from chaincast.indicators import (
    IndicatorParams,
    compute,
    ema,
    rsi,
    stochastic_d,
    stochastic_k,
    williams_r,
)
from chaincast.series import Series
from chaincast.synthetic import random_frame

from conftest import doji_frame, ohlc_frame


def test_ema_hand_value():
    # n=5 -> alpha = 1/3; three 10s stay 10, then (16 + 2*10) / 3 = 12
    out = ema(Series([10.0, 10.0, 10.0, 16.0]), 5)
    np.testing.assert_allclose(out.values, [10.0, 10.0, 10.0, 12.0])


def test_ema_single_value_is_itself():
    out = ema(Series([42.0]), 5)
    np.testing.assert_array_equal(out.values, [42.0])


def test_ema_matches_recursion():
    rng = np.random.default_rng(2)
    x = rng.uniform(50, 60, 200)
    out = ema(Series(x), 10).values
    alpha = 2.0 / 11.0
    expected = np.empty_like(x)
    expected[0] = x[0]
    for t in range(1, len(x)):
        expected[t] = alpha * x[t] + (1 - alpha) * expected[t - 1]
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_ema_affine_equivariance():
    rng = np.random.default_rng(3)
    x = rng.uniform(10, 20, 100)
    base = ema(Series(x), 7).values
    shifted = ema(Series(4.0 * x + 9.0), 7).values
    np.testing.assert_allclose(shifted, 4.0 * base + 9.0, rtol=1e-10)


def test_ema_stays_inside_running_range():
    rng = np.random.default_rng(4)
    x = rng.uniform(100, 200, 300)
    out = ema(Series(x), 5).values
    run_min = np.minimum.accumulate(x)
    run_max = np.maximum.accumulate(x)
    assert np.all(out >= run_min - 1e-9)
    assert np.all(out <= run_max + 1e-9)


def test_rsi_all_gains_is_100():
    out = rsi(Series(np.arange(1.0, 16.0)), 14)
    np.testing.assert_array_equal(out.values, [100.0])


def test_rsi_all_losses_is_0():
    out = rsi(Series(np.arange(16.0, 1.0, -1.0)), 14)
    np.testing.assert_array_equal(out.values, [0.0])


def test_rsi_alternating_unit_moves_is_50():
    # deltas alternate +1, -1: equal average gain and loss -> RS = 1 -> 50
    x = 100.0 + np.cumsum(np.concatenate([[0.0], np.tile([1.0, -1.0], 7)]))
    out = rsi(Series(x), 14)
    assert out.values[0] == pytest.approx(50.0)


def test_rsi_flat_series_is_50():
    out = rsi(Series(np.full(20, 77.0)), 14)
    np.testing.assert_array_equal(out.values, np.full(6, 50.0))


def test_rsi_length_and_alignment():
    out = rsi(Series(np.linspace(1, 2, 30)), 14)
    assert len(out) == 30 - 14


def test_rsi_needs_enough_closes():
    with pytest.raises(ValueError):
        rsi(Series(np.arange(1.0, 15.0)), 14)


def test_rsi_scale_invariance():
    rng = np.random.default_rng(5)
    x = rng.uniform(100, 120, 60)
    a = rsi(Series(x), 14).values
    b = rsi(Series(x * 250.0), 14).values
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_stochastic_k_close_at_high_is_100():
    closes = np.linspace(10, 20, 14)
    frame = ohlc_frame(closes, closes, closes - 1.0, closes)
    out = stochastic_k(frame, 14)
    assert out.values[0] == pytest.approx(100.0)


def test_stochastic_k_close_at_low_is_0():
    closes = np.linspace(20, 10, 14)
    frame = ohlc_frame(closes, closes + 1.0, closes, closes)
    out = stochastic_k(frame, 14)
    assert out.values[0] == pytest.approx(0.0)


def test_stochastic_k_flat_window_is_50():
    frame = doji_frame(np.full(14, 5.0))
    out = stochastic_k(frame, 14)
    assert out.values[0] == 50.0


def test_stochastic_k_alignment():
    frame = doji_frame(np.linspace(1, 3, 20))
    out = stochastic_k(frame, 14)
    assert len(out) == 20 - 14 + 1


def test_stochastic_d_hand_value():
    d = stochastic_d(Series([0.0, 50.0, 100.0]), 3)
    np.testing.assert_array_equal(d.values, [50.0])


def test_stochastic_d_length():
    d = stochastic_d(Series([0.0, 25.0, 50.0, 75.0, 100.0]), 3)
    assert len(d) == 3
    np.testing.assert_allclose(d.values, [25.0, 50.0, 75.0])


def test_williams_r_close_at_high_is_0():
    closes = np.linspace(10, 20, 14)
    frame = ohlc_frame(closes, closes, closes - 1.0, closes)
    assert williams_r(frame, 14).values[0] == pytest.approx(0.0)


def test_williams_r_close_at_low_is_100():
    closes = np.linspace(20, 10, 14)
    frame = ohlc_frame(closes, closes + 1.0, closes, closes)
    assert williams_r(frame, 14).values[0] == pytest.approx(100.0)


def test_williams_complements_k_independent_formula():
    """%R must equal the direct high-side formula, not merely 100 - %K."""
    frame = random_frame(120, seed=9)
    r = williams_r(frame, 14).values
    hh = np.array([frame.highs[i - 13:i + 1].max() for i in range(13, len(frame))])
    ll = np.array([frame.lows[i - 13:i + 1].min() for i in range(13, len(frame))])
    closes = frame.closes[13:]
    direct = 100.0 * (hh - closes) / (hh - ll)
    np.testing.assert_allclose(r, direct, atol=1e-9)


def test_oscillators_bounded():
    for seed in range(5):
        frame = random_frame(80, seed=seed)
        k = stochastic_k(frame, 14).values
        r = williams_r(frame, 14).values
        d = stochastic_d(stochastic_k(frame, 14), 3).values
        rs = rsi(frame.close_series(), 14).values
        for vals in (k, r, d, rs):
            assert np.all(vals >= 0.0) and np.all(vals <= 100.0)


def test_compute_offsets():
    frame = random_frame(40, seed=1)
    out = compute(frame)
    assert out.first_valid("ema5") == 0
    assert out.first_valid("ema10") == 0
    assert out.first_valid("rsi14") == 14
    assert out.first_valid("stoch_k") == 13
    assert out.first_valid("stoch_d") == 13 + 2
    assert out.first_valid("williams_r") == 13


def test_compute_custom_params_offsets():
    frame = random_frame(40, seed=2)
    params = IndicatorParams(ema_periods=(3,), rsi_period=5,
                             stoch_period=6, stoch_d_period=4)
    out = compute(frame, params)
    assert set(out.columns) == {"ema3", "rsi5", "stoch_k", "stoch_d", "williams_r"}
    assert out.first_valid("rsi5") == 5
    assert out.first_valid("stoch_k") == 5
    assert out.first_valid("stoch_d") == 5 + 3


def test_compute_columns_equal_the_indicator_functions():
    frame = random_frame(60, seed=4)
    out = compute(frame, IndicatorParams(stoch_period=9))
    np.testing.assert_array_equal(out.columns["stoch_k"][8:], stochastic_k(frame, 9).values)
    np.testing.assert_array_equal(out.columns["williams_r"][8:], williams_r(frame, 9).values)


def test_compute_nan_before_first_valid():
    frame = random_frame(40, seed=3)
    out = compute(frame)
    col = out.columns["rsi14"]
    assert np.all(np.isnan(col[:14]))
    assert np.all(np.isfinite(col[14:]))


def test_compute_columns_match_standalone():
    frame = random_frame(60, seed=4)
    out = compute(frame)
    np.testing.assert_array_equal(out.columns["stoch_k"][13:],
                                  stochastic_k(frame, 14).values)
    np.testing.assert_array_equal(out.columns["ema10"],
                                  ema(frame.close_series(), 10).values)


def test_params_validation():
    with pytest.raises(ValueError):
        IndicatorParams(ema_periods=(1,))
    with pytest.raises(ValueError):
        IndicatorParams(ema_periods=(5, 5))
    with pytest.raises(ValueError):
        IndicatorParams(rsi_period=1)


# The lfilter forms that the scalar smoother replaced, kept as oracles.

def _reference_ema(closes, n):
    alpha = 2.0 / (n + 1.0)
    x = closes.values
    out, _ = lfilter([alpha], [1.0, alpha - 1.0], x, zi=[(1.0 - alpha) * x[0]])
    return out


def _reference_rsi(closes, n):
    delta = np.diff(closes.values)
    gains = np.maximum(delta, 0.0)
    losses = np.maximum(-delta, 0.0)

    def smooth(x):
        seed = x[:n].mean()
        if x.size == n:
            return np.array([seed])
        rest, _ = lfilter([1.0 / n], [1.0, -(n - 1.0) / n], x[n:],
                          zi=[(n - 1.0) / n * seed])
        return np.concatenate([[seed], rest])

    avg_gain = smooth(gains)
    avg_loss = smooth(losses)
    out = np.empty_like(avg_gain)
    flat = (avg_gain == 0.0) & (avg_loss == 0.0)
    all_gain = (avg_loss == 0.0) & ~flat
    regular = ~flat & ~all_gain
    out[flat] = 50.0
    out[all_gain] = 100.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rs = np.where(regular, avg_gain / np.where(regular, avg_loss, 1.0), 0.0)
    out[regular] = 100.0 - 100.0 / (1.0 + rs[regular])
    return out


def test_ema_and_rsi_are_bit_equal_to_lfilter():
    rng = np.random.default_rng(41)
    for seed in range(150):
        closes = random_frame(int(rng.integers(16, 400)), seed=seed).closes
        if seed % 3 == 0:
            # flat stretches and one-sided runs reach RSI's 50 and 100 cases
            closes = np.round(closes, 0)
        series = Series(closes)
        for n in (2, 5, 10, 14):
            np.testing.assert_array_equal(ema(series, n).values, _reference_ema(series, n))
            np.testing.assert_array_equal(rsi(series, n).values, _reference_rsi(series, n))
    rising = Series(np.arange(1.0, 40.0))
    np.testing.assert_array_equal(rsi(rising, 14).values, _reference_rsi(rising, 14))
