"""Next-day close regression: feature assembly, least squares, stepwise search.

The feature matrix keys each row by its target day, the trading day
``t + 1`` whose close is the response.  Each column reads its source at a
lead from day ``t``: 0 for the target asset's own bar (open, smoothed
averages, oscillators) and 1 for the one-step forecasts of the two
companion assets, which predict the target day itself.  Columns keep short
positional names (``x1`` .. ``x9``) with a legend mapping them to their
meaning.
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

    Row ``t`` is keyed by ``target_dates[t]``, ascending: the trading day
    whose close is ``y[t]``.  Its cells hold each column's source at that
    column's lead from the trading day before (see `build_features`).
    Every cell is finite; rows with any undefined input are excluded up
    front.
    """

    target_dates: tuple[datetime.date, ...]
    columns: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # C order, so a model's numbers follow the values, not their layout
        object.__setattr__(self, "x", np.ascontiguousarray(self.x, float))
        object.__setattr__(self, "y", np.asarray(self.y, float))
        n, k = len(self.target_dates), len(self.columns)
        if self.x.shape != (n, k) or self.y.shape != (n,):
            raise ValueError("feature matrix shapes do not line up")
        if n == 0:
            raise ValueError("feature matrix needs at least one row")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("feature matrix cells must be finite")
        if len(set(self.columns)) != k:
            raise ValueError("duplicate column names")

    def __len__(self) -> int:
        return len(self.target_dates)

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
        return FeatureMatrix(self.target_dates, names, self.design(names), self.y)

    def window_by_target(self, start: datetime.date, end: datetime.date) -> "FeatureMatrix":
        """Rows whose predicted day falls in [start, end]."""
        lo = bisect.bisect_left(self.target_dates, start)
        hi = bisect.bisect_right(self.target_dates, end)
        if lo >= hi:
            raise ValueError(f"no rows with target dates between {start} and {end}")
        return self.rows(slice(lo, hi))

    def rows(self, part: slice) -> "FeatureMatrix":
        """The rows ``part`` picks, as views of this matrix's arrays."""
        return FeatureMatrix(self.target_dates[part], self.columns, self.x[part], self.y[part])


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
    yet.  Row ``t`` reads each column at day ``t + lead``: lead 0 for the
    target's bar and indicators, lead 1 for both forecasts, whose day is the
    row's target day.  It is emitted when every such cell is defined;
    warm-up rows are dropped, but a hole after a column has started violates
    alignment and is an error.
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
    source = {  # name: (values on the target calendar, lead)
        "x1": (target.opens, 0),
        "x2": (c1, 1),
        "x3": (c2, 1),
        "x4": (indicators.columns[f"rsi{p.rsi_period}"], 0),
        "x5": (indicators.columns["stoch_k"], 0),
        "x6": (indicators.columns["stoch_d"], 0),
        "x7": (indicators.columns["williams_r"], 0),
        "x8": (indicators.columns[f"ema{short_ema}"], 0),
        "x9": (indicators.columns[f"ema{long_ema}"], 0),
    }

    # the first row is the first day t at which every column is defined at
    # t + lead; day-t columns are checked first, so errors name them first
    start = 0
    for name, (col, lead) in sorted(source.items(), key=lambda item: item[1][1]):
        undefined = ~np.isfinite(col)
        first = int(np.argmin(undefined))
        if undefined[first]:
            raise ValueError(f"{COLUMN_LEGEND[name]} has no defined values")
        if undefined[first:].any():
            hole = first + int(np.argmax(undefined[first:]))
            raise ValueError(f"{COLUMN_LEGEND[name]} undefined at {target.dates[hole]} "
                             "after its warm-up ended")
        start = max(start, first - lead)

    if start >= n - 1:
        raise ValueError("no usable rows after warm-up")
    x = np.column_stack([col[start + lead:n - 1 + lead] for col, lead in source.values()])
    return FeatureMatrix(tuple(target.dates[start + 1:]), tuple(source), x,
                         target.closes[start + 1:])


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
