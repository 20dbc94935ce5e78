"""Technical indicators over daily bars.

Each indicator function returns only the values that are actually defined,
as a `Series`; the offset of the first defined value relative to the input
is fixed by the indicator's window and documented per function.  `compute`
assembles all of them onto the frame's full calendar, marking warm-up cells
with NaN, which is the shape the feature builder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ingest import PriceFrame
from .series import Series


@dataclass(frozen=True)
class IndicatorParams:
    """Window lengths for the indicator set computed by `compute`."""

    ema_periods: tuple[int, ...] = (5, 10)
    rsi_period: int = 14
    stoch_period: int = 14
    stoch_d_period: int = 3

    def __post_init__(self):
        object.__setattr__(self, "ema_periods", tuple(self.ema_periods))
        periods = self.ema_periods + (self.rsi_period, self.stoch_period,
                                      self.stoch_d_period)
        if not periods or any(int(n) != n or n < 2 for n in periods):
            raise ValueError(f"indicator periods must be integers >= 2: {periods}")
        if len(set(self.ema_periods)) != len(self.ema_periods):
            raise ValueError(f"duplicate smoothing periods: {self.ema_periods}")


@dataclass(frozen=True)
class IndicatorSet:
    """Indicator columns aligned to one frame's calendar.

    Columns have the frame's full length; cells before an indicator's first
    defined date hold NaN so that a missing value can never be mistaken for
    a real one.
    """

    dates: tuple
    columns: dict[str, np.ndarray]
    params: IndicatorParams

    def __post_init__(self):
        n = len(self.dates)
        if n == 0:
            raise ValueError("indicator set needs a non-empty calendar")
        for name, col in self.columns.items():
            if np.asarray(col).shape != (n,):
                raise ValueError(f"column '{name}' does not match the calendar length")


class _Smoother:
    """Running first-order smoother ``y[t] = gain * x[t] + decay * y[t-1]``.

    ``carry`` holds ``decay * y[t-1]`` and `step` adds the new input's share
    to it, the operation order of a direct-form II transposed filter, one
    scalar at a time.  `ema`, `rsi` and the fixture generator all step
    through here, so a value computed for a whole series and one carried
    day by day are the same float.
    """

    def __init__(self, gain: float, decay: float, previous: float):
        self.gain, self.decay = gain, decay
        self.carry = decay * previous

    @classmethod
    def ema(cls, n: int, first: float) -> "_Smoother":
        """Smoothing with alpha = 2 / (n + 1), seeded as if ``y[-1] = first``."""
        alpha = 2.0 / (n + 1.0)
        return cls(alpha, 1.0 - alpha, first)

    def step(self, x: float) -> float:
        y = self.carry + self.gain * x
        self.carry = self.decay * y
        return y


class _RsiState:
    """Running RSI over price changes.

    The average gain and loss start as the plain means of the first ``n``
    changes and are Wilder-smoothed after that,
    ``avg[t] = ((n - 1) * avg[t-1] + x[t]) / n``.
    """

    def __init__(self, first_changes: np.ndarray):
        n = first_changes.size
        self.avg_gain = np.maximum(first_changes, 0.0).mean()
        self.avg_loss = np.maximum(-first_changes, 0.0).mean()
        self._gains = _Smoother(1.0 / n, (n - 1.0) / n, self.avg_gain)
        self._losses = _Smoother(1.0 / n, (n - 1.0) / n, self.avg_loss)

    def step(self, change: float) -> None:
        self.avg_gain = self._gains.step(max(change, 0.0))
        self.avg_loss = self._losses.step(max(-change, 0.0))

    def value(self) -> float:
        if self.avg_loss == 0.0:
            return 50.0 if self.avg_gain == 0.0 else 100.0
        return 100.0 - 100.0 / (1.0 + self.avg_gain / self.avg_loss)


def ema(closes: Series, n: int) -> Series:
    """Exponential moving average with alpha = 2 / (n + 1).

    Seeded with the first close, so the output is defined from day one and
    has the same length as the input.  Every value lies between the running
    minimum and maximum of the closes seen so far.
    """
    if n < 2:
        raise ValueError(f"smoothing period must be >= 2, got {n}")
    x = closes.values
    smoother = _Smoother.ema(n, x[0])
    out = np.array([smoother.step(v) for v in x.tolist()])
    return Series(out, name=f"{closes.name}_ema{n}")


def rsi(closes: Series, n: int = 14) -> Series:
    """Relative strength index with smoothed averaging of gains and losses.

    The first value corresponds to input index ``n`` (it needs n changes to
    seed the averages), so the output is shorter by ``n``.  An all-gain
    window reads 100, an all-loss window reads 0, and a window with no
    movement at all reads 50 (no evidence either way).
    """
    if n < 2:
        raise ValueError(f"RSI period must be >= 2, got {n}")
    if len(closes) < n + 1:
        raise ValueError(f"RSI-{n} needs at least {n + 1} closes, got {len(closes)}")
    delta = np.diff(closes.values)
    state = _RsiState(delta[:n])
    out = [state.value()]
    for change in delta[n:].tolist():
        state.step(change)
        out.append(state.value())
    return Series(np.array(out), name=f"{closes.name}_rsi{n}")


def _stoch_window(frame: PriceFrame, n: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise ValueError(f"stochastic period must be >= 2, got {n}")
    if len(frame) < n:
        raise ValueError(f"period {n} needs at least {n} bars, got {len(frame)}")
    hh = sliding_window_view(frame.highs, n).max(axis=1)
    ll = sliding_window_view(frame.lows, n).min(axis=1)
    return hh, ll


def stochastic_k(frame: PriceFrame, n: int = 14) -> Series:
    """Raw stochastic %K: position of the close inside the n-bar range.

    First value at input index ``n - 1``; output length is
    ``len(frame) - n + 1``.  A window whose high equals its low carries no
    positional information and reads 50.
    """
    hh, ll = _stoch_window(frame, n)
    closes = frame.closes[n - 1:]
    span = hh - ll
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(span > 0.0, 100.0 * (closes - ll) / span, 50.0)
    return Series(k, name=f"{frame.asset}_stoch_k")


def stochastic_d(k: Series, m: int = 3) -> Series:
    """%D: simple m-period moving average of %K, shorter by ``m - 1``."""
    if m < 2:
        raise ValueError(f"%D period must be >= 2, got {m}")
    if len(k) < m:
        raise ValueError(f"%D over {m} periods needs at least {m} %K values, got {len(k)}")
    d = sliding_window_view(k.values, m).mean(axis=1)
    return Series(d, name=f"{k.name}_d")


def williams_r(frame: PriceFrame, n: int = 14) -> Series:
    """Williams %R in its positive form: distance of the close below the
    n-bar high, as a share of the range.

    Computed as the exact complement of %K over the same window, so
    %R + %K = 100 holds bar for bar, including the flat-window case.
    Alignment matches `stochastic_k`.
    """
    k = stochastic_k(frame, n)
    return Series(100.0 - k.values, name=f"{frame.asset}_williams_r")


def compute(frame: PriceFrame, params: IndicatorParams = IndicatorParams()) -> IndicatorSet:
    """All indicators for one frame, aligned onto its calendar.

    Column names carry the period for the moving averages (``ema5``,
    ``rsi14``) and the conventional short names for the oscillators
    (``stoch_k``, ``stoch_d``, ``williams_r``).
    """
    n = len(frame)
    closes = frame.close_series()
    columns: dict[str, np.ndarray] = {}

    def place(name: str, values: Series, offset: int) -> None:
        col = np.full(n, np.nan)
        col[offset:] = values.values
        columns[name] = col

    for period in params.ema_periods:
        place(f"ema{period}", ema(closes, period), 0)
    place(f"rsi{params.rsi_period}", rsi(closes, params.rsi_period), params.rsi_period)
    k = stochastic_k(frame, params.stoch_period)
    place("stoch_k", k, params.stoch_period - 1)
    place("stoch_d", stochastic_d(k, params.stoch_d_period),
          params.stoch_period - 1 + params.stoch_d_period - 1)
    # %R is the complement of the %K at hand, as `williams_r` computes it
    place("williams_r", Series(100.0 - k.values), params.stoch_period - 1)
    return IndicatorSet(dates=tuple(frame.dates), columns=columns, params=params)
