"""Univariate series primitives: differencing, correlograms, whiteness checks.

Everything downstream (model fitting, forecasting, reporting) works in terms
of the small `Series` value type defined here, so the invariants it enforces
(non-empty, finite, known differencing level) hold across the whole chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Two-sided normal 95% quantile used for correlogram confidence bands.
CONFIDENCE_Z = 1.96

# Lag-1 autocorrelation below which `suggest_d` accepts a difference as
# stationary; the config key ``stationarity_threshold`` defaults to it.
STATIONARITY_THRESHOLD = 0.95


@dataclass(frozen=True)
class Series:
    """An ordered run of real-valued observations.

    ``diff_level`` records how many times the values have been differenced
    relative to their original scale; `integrate` uses it to refuse a
    mismatched reconstruction.
    """

    values: np.ndarray
    name: str = ""
    diff_level: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("series must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"series '{self.name}' contains non-finite values")
        if self.diff_level not in (0, 1, 2):
            raise ValueError(f"diff_level must be 0, 1 or 2, got {self.diff_level}")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Correlogram:
    """Sample correlations by lag with a flat two-sided confidence band."""

    lags: np.ndarray
    coefficients: np.ndarray
    band: float

    def significant(self) -> np.ndarray:
        """Boolean mask of lags whose coefficient leaves the band."""
        return np.abs(self.coefficients) > self.band


@dataclass(frozen=True)
class WhitenessReport:
    """Portmanteau test outcome on a residual series."""

    statistic: float
    dof: int
    p_value: float
    lags: int
    is_white: bool


def difference(s: Series, d: int) -> Series:
    """Apply ``d`` rounds of first differencing.

    The result is shorter by ``d`` and carries ``diff_level`` raised by the
    same amount, so at most two total rounds are representable.
    """
    if d not in (0, 1, 2):
        raise ValueError(f"differencing order must be 0, 1 or 2, got {d}")
    if s.diff_level + d > 2:
        raise ValueError("cannot difference beyond level 2")
    if len(s) <= d:
        raise ValueError(f"series too short to difference {d} times (length {len(s)})")
    if d == 0:
        return s
    return Series(np.diff(s.values, n=d), name=s.name, diff_level=s.diff_level + d)


def integrate(diffed, anchors) -> np.ndarray:
    """Invert differencing given the ``d`` original values that preceded it.

    ``anchors`` holds the last ``d`` values of the undifferenced series
    immediately before the stretch covered by ``diffed``.  Reconstruction is
    by repeated cumulative summation, so ``integrate(difference(s, d), tail)``
    returns the original continuation without drift.  Accepts a `Series`
    (whose ``diff_level`` must match the anchor count) or any sequence; an
    empty sequence reconstructs to an empty array.
    """
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 1:
        raise ValueError("anchors must be a one-dimensional sequence")
    d = anchors.size
    if d not in (1, 2):
        raise ValueError(f"anchor count must be 1 or 2, got {d}")
    if isinstance(diffed, Series):
        if diffed.diff_level != d:
            raise ValueError(
                f"series is differenced {diffed.diff_level} times "
                f"but {d} anchors were given"
            )
        cur = diffed.values
    else:
        cur = np.asarray(diffed, dtype=float)
    if cur.size == 0:
        return np.empty(0)
    if not np.all(np.isfinite(anchors)) or not np.all(np.isfinite(cur)):
        raise ValueError("integration inputs must be finite")

    # tails[j] holds the last value of the j-times differenced prefix.  The
    # anchor is summed along with the increments rather than added afterwards
    # so each restored value is built from its immediate predecessor; the
    # rounding then cancels term by term and a difference/integrate round
    # trip reproduces the original floats bit for bit.
    lead = anchors
    tails = [lead[-1]]
    for _ in range(1, d):
        lead = np.diff(lead)
        tails.append(lead[-1])
    for j in range(d - 1, -1, -1):
        cur = np.cumsum(np.concatenate(([tails[j]], cur)))[1:]
    return cur


def acf(s: Series, max_lag: int) -> Correlogram:
    """Sample autocorrelations at lags 1..max_lag.

    Uses the common-mean, full-sample-denominator estimator, which keeps the
    coefficient sequence non-negative definite (so downstream partial
    correlations stay inside [-1, 1]).
    """
    n = len(s)
    if max_lag < 1:
        raise ValueError(f"max_lag must be at least 1, got {max_lag}")
    if n <= max_lag:
        raise ValueError(f"series of length {n} supports lags only up to {n - 1}")
    x = s.values - s.values.mean()
    den = float(np.dot(x, x))
    if den <= 0.0:
        raise ValueError(f"series '{s.name}' has zero variance; correlations undefined")
    coeffs = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        coeffs[k - 1] = np.dot(x[:-k], x[k:]) / den
    return Correlogram(np.arange(1, max_lag + 1), coeffs, CONFIDENCE_Z / np.sqrt(n))


def _durbin_levinson(coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Durbin (1960) recursion from the autocorrelations at lags 1..m.

    Returns the partial autocorrelations at lags 1..m and the coefficients
    of the order-m autoregression that solves the Yule-Walker equations.
    """
    rho = np.concatenate([[1.0], coefficients])
    pacf = np.empty(rho.size - 1)
    phi = np.empty(0)
    for k in range(1, rho.size):
        num = rho[k] - np.dot(phi, rho[k - 1:0:-1])
        den = 1.0 - np.dot(phi, rho[1:k])
        if abs(den) < 1e-14:
            raise ValueError(
                "partial autocorrelation recursion degenerate "
                f"at lag {k} (perfectly predictable series)"
            )
        pacf[k - 1] = a = num / den
        phi = np.append(phi - a * phi[::-1], a)
    return pacf, phi


def pacf(s: Series, max_lag: int) -> Correlogram:
    """Sample partial autocorrelations at lags 1..max_lag.

    Computed by the Durbin-Levinson recursion on the `acf` coefficients;
    equivalent to the lag-k regression coefficient from least squares on the
    zero-padded, demeaned design.
    """
    full = acf(s, max_lag)
    return Correlogram(full.lags, _durbin_levinson(full.coefficients)[0], full.band)


def suggest_d(s: Series, threshold: float = STATIONARITY_THRESHOLD) -> int:
    """Smallest d in {0, 1, 2} whose d-th difference looks stationary.

    A difference is accepted when its lag-1 autocorrelation falls below
    ``threshold``.  A constant (zero-variance) difference is accepted too:
    there is nothing left to model, and differencing further only adds noise.
    """
    if len(s) < 30:
        raise ValueError(f"need at least 30 observations to suggest d, got {len(s)}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    for d in range(3):
        w = difference(s, d)
        if np.ptp(w.values) == 0.0:
            return d
        if acf(w, 1).coefficients[0] < threshold:
            return d
    return 2


def ljung_box(residuals: Series, lags: int, fitted_params: int = 0) -> WhitenessReport:
    """Portmanteau whiteness test on model residuals.

    Degrees of freedom are ``lags - fitted_params``; pass the number of
    estimated ARMA coefficients when testing model residuals so the test is
    not biased toward acceptance.  ``is_white`` is the p > 0.05 verdict.
    """
    if fitted_params < 0:
        raise ValueError("fitted_params must be non-negative")
    if lags <= fitted_params:
        raise ValueError(
            f"lags ({lags}) must exceed fitted parameter count ({fitted_params})"
        )
    n = len(residuals)
    rho = acf(residuals, lags).coefficients
    k = np.arange(1, lags + 1)
    statistic = float(n * (n + 2) * np.sum(rho**2 / (n - k)))
    dof = lags - fitted_params
    p_value = _chi2_sf(statistic, dof)
    return WhitenessReport(statistic, dof, p_value, lags, p_value > 0.05)


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with integer ``dof``.

    With ``lam = x / 2`` the tail is a finite sum of terms
    ``exp(-lam) * lam**(a + i) / Gamma(a + i + 1)``, i < dof // 2: for even
    ``dof`` with a = 0 (a Poisson sum), for odd ``dof`` with a = 1/2 plus
    ``erfc(sqrt(lam))``.  Each term is the one before times ``lam / (a + i)``.
    Where ``exp(-lam)`` underflows, each term is evaluated in logs instead.
    """
    if x <= 0.0:
        return 1.0
    lam = x / 2.0
    a = 0.5 if dof % 2 else 0.0
    total = math.erfc(math.sqrt(lam)) if dof % 2 else 0.0
    if lam < 700.0:
        term = math.exp(-lam) * (2.0 * math.sqrt(lam / math.pi) if dof % 2 else 1.0)
        for i in range(dof // 2):
            total += term
            term *= lam / (a + i + 1.0)
    else:
        for i in range(dof // 2):
            total += math.exp((a + i) * math.log(lam) - lam - math.lgamma(a + i + 1.0))
    return total
