"""Next-day close regression: feature assembly, least squares, stepwise search.

The feature matrix couples three sources for each trading day ``t``: the
target asset's own bar (open, smoothed averages, oscillators), and one-step
forecasts of the two companion assets for day ``t + 1``.  The response is
the target asset's close on day ``t + 1``.  Columns keep short positional
names (``x1`` .. ``x9``) with a legend mapping them to their meaning.
"""

from __future__ import annotations

import bisect
import datetime
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError
from .indicators import IndicatorSet
from .ingest import PriceFrame
from .metrics import _criteria
from .solver import _householder

COLUMN_LEGEND = {
    "x1": "target open, day t",
    "x2": "first companion close forecast for day t+1",
    "x3": "second companion close forecast for day t+1",
    "x4": "relative strength index, day t",
    "x5": "stochastic %K, day t",
    "x6": "stochastic %D, day t",
    "x7": "Williams %R, day t",
    "x8": "short exponential moving average, day t",
    "x9": "long exponential moving average, day t",
}


@dataclass(frozen=True)
class FeatureMatrix:
    """Aligned regressors and next-day target.

    ``dates`` are the feature days (day ``t``), ascending; ``target_dates``
    are the next trading days whose closes are predicted.  Every cell is
    finite; rows with any undefined input are excluded up front.
    """

    dates: tuple[datetime.date, ...]
    target_dates: tuple[datetime.date, ...]
    columns: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # C order, so a model's numbers follow the values, not their layout
        object.__setattr__(self, "x", np.ascontiguousarray(self.x, float))
        object.__setattr__(self, "y", np.asarray(self.y, float))
        n, k = len(self.dates), len(self.columns)
        if self.x.shape != (n, k) or self.y.shape != (n,):
            raise ValueError("feature matrix shapes do not line up")
        if len(self.target_dates) != n:
            raise ValueError("one target date is needed per row")
        if n == 0:
            raise ValueError("feature matrix needs at least one row")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("feature matrix cells must be finite")
        if len(set(self.columns)) != k:
            raise ValueError("duplicate column names")

    def __len__(self) -> int:
        return len(self.dates)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise ValueError(f"no column named {name!r}") from None

    def design(self, subset: tuple[str, ...]) -> np.ndarray:
        """Columns in the given order (no intercept)."""
        idx = [self.column_index(c) for c in subset]
        return self.x[:, idx] if idx else np.empty((len(self), 0))

    def with_columns(self, names) -> "FeatureMatrix":
        """Projection onto a subset of columns, order as given."""
        names = tuple(names)
        if not names:
            raise ValueError("need at least one column")
        return FeatureMatrix(
            dates=self.dates,
            target_dates=self.target_dates,
            columns=names,
            x=self.design(names),
            y=self.y,
        )

    def window_by_target(self, start: datetime.date, end: datetime.date) -> "FeatureMatrix":
        """Rows whose predicted day falls in [start, end]."""
        lo = bisect.bisect_left(self.target_dates, start)
        hi = bisect.bisect_right(self.target_dates, end)
        if lo >= hi:
            raise ValueError(f"no rows with target dates between {start} and {end}")
        return self.rows(slice(lo, hi))

    def rows(self, part: slice) -> "FeatureMatrix":
        """The rows ``part`` picks, as views of this matrix's arrays."""
        return FeatureMatrix(self.dates[part], self.target_dates[part], self.columns,
                             self.x[part], self.y[part])


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least squares result on a column subset."""

    included: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    sse: float
    aic: float
    bic: float

    def equation(self) -> str:
        """Human-readable fitted equation."""
        terms = [f"{c:+.4f}*{name}" for c, name in zip(self.coefficients, self.included)]
        terms.append(f"{self.intercept:+.4f}")
        return "y = " + " ".join(terms).lstrip("+")

    def predict(self, m: FeatureMatrix) -> np.ndarray:
        """Predictions on any matrix carrying the included columns."""
        return m.design(self.included) @ self.coefficients + self.intercept


@dataclass(frozen=True)
class StepwiseStep:
    action: str  # "add" or "drop"
    column: str
    criterion: float


@dataclass(frozen=True)
class StepwiseTrace:
    direction: str
    steps: tuple[StepwiseStep, ...]
    fit: RegressionFit


def build_features(target: PriceFrame, indicators: IndicatorSet,
                   companion1_forecast: np.ndarray,
                   companion2_forecast: np.ndarray) -> FeatureMatrix:
    """Assemble the nine-column design from one asset and two forecast tracks.

    The forecast arrays must be aligned to ``target.dates``: position ``i``
    holds the one-step prediction of the companion's close for date ``i``,
    conditioned only on days before it, with NaN where no prediction exists
    yet.  Row ``t`` is emitted when every indicator is defined at ``t`` and
    both forecasts are defined at ``t + 1``; warm-up rows are dropped, but a
    hole after a column has started violates alignment and is an error.
    """
    n = len(target)
    if tuple(indicators.dates) != tuple(target.dates):
        raise ValueError("indicator calendar does not match the target frame")
    c1 = np.asarray(companion1_forecast, float)
    c2 = np.asarray(companion2_forecast, float)
    if c1.shape != (n,) or c2.shape != (n,):
        raise ValueError("forecast tracks must align with the target calendar")

    p = indicators.params
    if len(p.ema_periods) != 2:
        raise ValueError("exactly two smoothing periods are required")
    short_ema, long_ema = sorted(p.ema_periods)
    source = {
        "x1": target.opens,
        "x2": c1,
        "x3": c2,
        "x4": indicators.columns[f"rsi{p.rsi_period}"],
        "x5": indicators.columns["stoch_k"],
        "x6": indicators.columns["stoch_d"],
        "x7": indicators.columns["williams_r"],
        "x8": indicators.columns[f"ema{short_ema}"],
        "x9": indicators.columns[f"ema{long_ema}"],
    }

    # Day t is usable when all day-t inputs exist and both t+1 forecasts do.
    def first_defined(col: np.ndarray, what: str) -> int:
        finite = np.isfinite(col)
        idx = np.flatnonzero(finite)
        if idx.size == 0:
            raise ValueError(f"{what} has no defined values")
        if not finite[idx[0]:].all():
            hole = int(np.flatnonzero(~finite[idx[0]:])[0]) + int(idx[0])
            raise ValueError(
                f"{what} undefined at {target.dates[hole]} after its warm-up ended"
            )
        return int(idx[0])

    start = 0
    for name, col in source.items():
        if name in ("x2", "x3"):
            continue
        start = max(start, first_defined(col, COLUMN_LEGEND[name]))
    fc_start = max(first_defined(c1, COLUMN_LEGEND["x2"]),
                   first_defined(c2, COLUMN_LEGEND["x3"]))
    start = max(start, fc_start - 1)

    rows = range(start, n - 1)
    if len(rows) == 0:
        raise ValueError("no usable rows after warm-up")
    columns = tuple(source)
    x = np.column_stack([source[c][start + 1:n] if c in ("x2", "x3")
                         else source[c][start:n - 1] for c in columns])
    y = target.closes[start + 1:n]
    return FeatureMatrix(
        dates=tuple(target.dates[start:n - 1]),
        target_dates=tuple(target.dates[start + 1:n]),
        columns=columns,
        x=x,
        y=y,
    )


def ols(m: FeatureMatrix, subset) -> RegressionFit:
    """Least squares of the target on a subset of columns plus an intercept.

    Solved through the QR of `solver._householder`; if the design is rank
    deficient the dependent columns are reported by name and no
    coefficients are returned, because they would not be identifiable.
    An empty subset fits the intercept-only model.
    """
    subset = tuple(subset)
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate columns in subset: {subset}")
    n = len(m)
    if n < len(subset) + 2:
        raise ValueError(f"{n} rows cannot support {len(subset)} regressors")
    design = np.column_stack([np.ones(n), m.design(subset)])
    names = ("intercept",) + subset

    kept, r, qty = _householder(design, m.y)
    if len(kept) < design.shape[1]:
        dropped = tuple(name for j, name in enumerate(names) if j not in kept)
        raise RankDeficiencyError(
            f"design is rank deficient ({len(kept)} of {design.shape[1]}): "
            f"column(s) {', '.join(dropped)} are linear combinations of "
            "columns before them",
            columns=dropped,
        )
    coef = np.linalg.solve(r, qty)
    resid = m.y - design @ coef
    sse = float(np.dot(resid, resid))
    aic, bic = _criteria(sse / n, n, len(subset) + 1)
    return RegressionFit(
        included=subset, intercept=float(coef[0]), coefficients=coef[1:],
        sse=sse, aic=aic, bic=bic,
    )


DIRECTIONS = ("forward", "backward")  # what `stepwise` takes
CRITERIA = ("aic", "bic")


def stepwise(m: FeatureMatrix, direction: str, criterion: str = "bic") -> StepwiseTrace:
    """Greedy column selection by information criterion.

    ``forward`` starts from the intercept-only model and adds the best
    column while doing so strictly lowers the criterion; ``backward`` starts
    from all columns and drops likewise.  Candidate moves that make the
    design rank deficient are skipped in forward mode; a backward start on a
    rank-deficient full design fails, since every coefficient of the start
    model must be identifiable.  Ties on the criterion go to the
    alphabetically first column so the trace is reproducible.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")

    current = () if direction == "forward" else m.columns
    fit = ols(m, current)
    steps: list[StepwiseStep] = []
    while True:
        best_move: tuple[float, str, RegressionFit] | None = None
        if direction == "forward":
            pool = [c for c in m.columns if c not in current]
            moves = [(c, current + (c,)) for c in pool]
        else:
            moves = [(c, tuple(k for k in current if k != c)) for c in current]
        for col, candidate in moves:
            try:
                trial = ols(m, candidate)
            except RankDeficiencyError:
                continue
            value = getattr(trial, criterion)
            if best_move is None or (value, col) < (best_move[0], best_move[1]):
                best_move = (value, col, trial)
        if best_move is None:
            break
        value, col, trial = best_move
        if not value < getattr(fit, criterion):
            break
        action = "add" if direction == "forward" else "drop"
        steps.append(StepwiseStep(action, col, value))
        current = trial.included
        fit = trial
    return StepwiseTrace(direction=direction, steps=tuple(steps), fit=fit)


def full_rank_subset(m: FeatureMatrix) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Largest left-to-right subset of columns that keeps the design
    invertible alongside the intercept.

    Returns (kept, dropped).  Used before fitting "all columns" models on
    designs that contain exact identities (for example two oscillators that
    always sum to 100): each dropped column is a linear combination of kept
    ones, so no information is lost.
    """
    design = np.column_stack([np.ones(len(m)), m.x])
    kept = _householder(design, m.y)[0]
    return (tuple(c for j, c in enumerate(m.columns, start=1) if j in kept),
            tuple(c for j, c in enumerate(m.columns, start=1) if j not in kept))
