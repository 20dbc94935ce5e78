"""Accuracy measures and information criteria shared by the stages of the chain."""

from __future__ import annotations

import numpy as np


def mape(actual, forecast) -> float:
    """Mean absolute percentage error, in percent.

    Undefined when any actual value is zero; the error names the first
    offending index rather than returning an infinity.
    """
    a = np.asarray(actual, dtype=float)
    f = np.asarray(forecast, dtype=float)
    if a.shape != f.shape or a.ndim != 1:
        raise ValueError(f"shape mismatch: actual {a.shape}, forecast {f.shape}")
    if a.size == 0:
        raise ValueError("mape needs at least one observation")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f))):
        raise ValueError("mape inputs must be finite")
    zeros = np.flatnonzero(a == 0.0)
    if zeros.size:
        raise ValueError(f"actual value at index {zeros[0]} is zero; MAPE undefined")
    return float(np.mean(np.abs(a - f) / np.abs(a)) * 100.0)


def accuracy(actual, forecast) -> float:
    """Percent accuracy: 100 minus the MAPE."""
    return 100.0 - mape(actual, forecast)


def _criteria(mean_square: float, n: int, k: int) -> tuple[float, float]:
    """AIC and BIC of a Gaussian model with ``k`` coefficients fitted to
    ``n`` residuals of mean square ``mean_square``.  A perfect fit gets minus
    infinity, so it wins any comparison outright instead of tripping a log
    of zero."""
    if mean_square <= 0.0:
        return -np.inf, -np.inf
    base = n * np.log(mean_square)
    return float(base + 2 * k), float(base + k * np.log(n))
