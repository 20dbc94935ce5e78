import datetime
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from chaincast import pipeline
from chaincast.errors import RankDeficiencyError
from chaincast.indicators import IndicatorParams, IndicatorSet, compute
from chaincast.metrics import accuracy, mape
from chaincast.regression import (
    COLUMN_LEGEND,
    FeatureMatrix,
    RegressionFit,
    build_features,
    full_rank_subset,
    ols,
    stepwise,
)
from chaincast.solver import RANK_TOL, _householder
from chaincast.synthetic import random_frame

from conftest import weekdays


def matrix(cols, y):
    """FeatureMatrix from named column arrays, calendar synthesized."""
    names = tuple(cols)
    n = len(y)
    days = weekdays(n + 1)
    return FeatureMatrix(
        target_dates=tuple(days[1:]),
        columns=names,
        x=np.column_stack([np.asarray(cols[c], float) for c in names]),
        y=np.asarray(y, float),
    )


def noise_matrix(n_rows, n_cols, seed, y=None):
    rng = np.random.default_rng(seed)
    cols = {f"x{i + 1}": rng.normal(0, 1, n_rows) for i in range(n_cols)}
    if y is None:
        y = rng.normal(0, 1, n_rows)
    return matrix(cols, y)


# --- feature assembly ---------------------------------------------------


def test_legend_covers_all_nine_columns():
    assert set(COLUMN_LEGEND) == {f"x{i}" for i in range(1, 10)}


def test_build_features_default_warmup_four_rows():
    frame = random_frame(20, seed=0)
    ind = compute(frame)
    c1 = np.linspace(50, 60, 20)
    c2 = np.linspace(1.0, 1.2, 20)
    m = build_features(frame, ind, c1, c2)
    # %D is the last indicator to come alive, at index 15
    assert len(m) == 4
    assert m.target_dates == tuple(frame.dates[16:20])
    assert m.columns == tuple(f"x{i}" for i in range(1, 10))


def test_build_features_shorter_stochastic_five_rows():
    frame = random_frame(20, seed=1)
    ind = compute(frame, IndicatorParams(stoch_period=12))
    c1 = np.linspace(50, 60, 20)
    c2 = np.linspace(1.0, 1.2, 20)
    m = build_features(frame, ind, c1, c2)
    # RSI now binds the warm-up, at index 14
    assert len(m) == 5


def test_build_features_x1_is_same_day_open():
    frame = random_frame(25, seed=2)
    m = build_features(frame, compute(frame),
                       np.ones(25), np.ones(25))
    np.testing.assert_array_equal(m.x[:, m.column_index("x1")],
                                  frame.opens[15:24])


def test_build_features_forecasts_are_for_target_day():
    frame = random_frame(25, seed=3)
    c1 = np.arange(25, dtype=float)
    m = build_features(frame, compute(frame), c1, np.ones(25))
    # row for day t carries the companion prediction for day t+1
    np.testing.assert_array_equal(m.x[:, m.column_index("x2")],
                                  np.arange(16.0, 25.0))


def test_build_features_y_is_next_close():
    frame = random_frame(25, seed=4)
    m = build_features(frame, compute(frame), np.ones(25), np.ones(25))
    np.testing.assert_array_equal(m.y, frame.closes[16:25])


def test_build_features_forecast_warmup_shifts_start():
    frame = random_frame(25, seed=5)
    c1 = np.full(25, np.nan)
    c1[18:] = 1.0
    m = build_features(frame, compute(frame), c1, np.ones(25))
    # forecasts exist from index 18, so the first target day is 18 (feature day 17)
    assert m.target_dates[0] == frame.dates[18]
    assert len(m) == 25 - 17 - 1


def test_build_features_hole_after_warmup_rejected():
    frame = random_frame(25, seed=6)
    c1 = np.ones(25)
    c1[20] = np.nan
    with pytest.raises(ValueError, match="after its warm-up"):
        build_features(frame, compute(frame), c1, np.ones(25))


def test_build_features_calendar_mismatch():
    frame = random_frame(25, seed=7)
    other = random_frame(25, seed=7, start_date=datetime.date(2021, 1, 4))
    with pytest.raises(ValueError, match="calendar"):
        build_features(frame, compute(other), np.ones(25), np.ones(25))


def _reference_build_features(target, indicators, companion1_forecast,
                              companion2_forecast):
    """`build_features` as it was before its columns carried a lead: the
    forecasts' one-day shift written out beside the day-t columns.
    Returns (target_dates, x, y)."""
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

    def first_defined(col, what):
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

    if len(range(start, n - 1)) == 0:
        raise ValueError("no usable rows after warm-up")
    x = np.column_stack([source[c][start + 1:n] if c in ("x2", "x3")
                         else source[c][start:n - 1] for c in source])
    return tuple(target.dates[start + 1:n]), x, target.closes[start + 1:n]


def _inputs_with_gaps(n, seed, prefixes, holes):
    """A frame, its indicator set and two forecast tracks whose nine inputs
    (x1 .. x9 in order) start undefined for ``prefixes[i]`` days, with an
    undefined day at each (input, day) of ``holes`` that the calendar has."""
    frame = random_frame(n, seed=seed)
    rng = np.random.default_rng(seed)
    cols = [frame.opens.copy()] + [rng.normal(50.0, 10.0, n) for _ in range(8)]
    for col, prefix in zip(cols, prefixes):
        col[:prefix] = np.nan
    for i, day in holes:
        if day < n:
            cols[i][day] = np.nan
    # the bar rule keeps NaN out of a frame's opens, so it is set past it
    object.__setattr__(frame, "opens", cols[0])
    names = ("rsi14", "stoch_k", "stoch_d", "williams_r", "ema5", "ema10")
    ind = IndicatorSet(frame.dates, dict(zip(names, cols[3:])), IndicatorParams())
    return frame, ind, cols[1], cols[2]


@settings(max_examples=400, deadline=None, database=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       prefixes=st.lists(st.integers(0, 4) | st.integers(0, 16), min_size=9, max_size=9),
       holes=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 15)), max_size=3))
def test_build_features_matches_the_reference(n, seed, prefixes, holes):
    args = _inputs_with_gaps(n, seed, prefixes, holes)
    try:
        expected = _reference_build_features(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            build_features(*args)
        assert str(caught.value) == str(exc)
        return
    m = build_features(*args)
    assert m.target_dates == expected[0]
    assert m.x.shape == expected[1].shape and m.x.tobytes() == expected[1].tobytes()
    assert m.y.shape == expected[2].shape and m.y.tobytes() == expected[2].tobytes()


def test_feature_matrix_validation():
    with pytest.raises(ValueError, match="finite"):
        matrix({"x1": [1.0, np.nan, 3.0, 4.0]}, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="shapes"):
        matrix({"x1": [1.0, 2.0, 3.0]}, [1.0, 2.0])


def _built(n=25, params=IndicatorParams(), c2=None):
    """`build_features` on a random frame with flat forecast tracks."""
    frame = random_frame(n, seed=10)
    return build_features(frame, compute(frame, params), np.ones(n),
                          np.ones(n) if c2 is None else c2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _built(c2=np.ones(24)),
                 "forecast tracks must align with the target calendar", id="short-track"),
    pytest.param(lambda: _built(params=IndicatorParams(ema_periods=(3, 5, 8))),
                 "exactly two smoothing periods are required", id="three-periods"),
    pytest.param(lambda: _built(c2=np.full(25, np.nan)),
                 "second companion close forecast for day t+1 has no defined values",
                 id="empty-track"),
    # %D starts at index 15, the last day, so no day has a next one
    pytest.param(lambda: _built(n=16), "no usable rows after warm-up", id="warm-up-only"),
    pytest.param(lambda: matrix({"x1": []}, []), "feature matrix needs at least one row",
                 id="no-rows"),
    pytest.param(lambda: noise_matrix(5, 2, seed=0).with_columns(("x1", "x1")),
                 "duplicate column names", id="duplicate-columns"),
    pytest.param(lambda: noise_matrix(5, 2, seed=0).with_columns(()),
                 "need at least one column", id="no-columns"),
    pytest.param(lambda: noise_matrix(5, 2, seed=0).window_by_target(
        datetime.date(2000, 1, 3), datetime.date(2000, 1, 7)),
                 "no rows with target dates between 2000-01-03 and 2000-01-07",
                 id="empty-window"),
    pytest.param(lambda: ols(noise_matrix(3, 2, seed=0), ("x1", "x2")),
                 "3 rows cannot support 2 regressors", id="too-few-rows"),
])
def test_feature_layer_refusals_are_worded(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_with_columns_projects_in_given_order():
    m = noise_matrix(10, 3, seed=8)
    sub = m.with_columns(("x3", "x1"))
    assert sub.columns == ("x3", "x1")
    np.testing.assert_array_equal(sub.x[:, 0], m.x[:, 2])
    np.testing.assert_array_equal(sub.y, m.y)


def test_window_by_target():
    m = noise_matrix(10, 2, seed=9)
    sub = m.window_by_target(m.target_dates[4], m.target_dates[7])
    assert sub.target_dates == m.target_dates[4:8]
    np.testing.assert_array_equal(sub.y, m.y[4:8])


# --- least squares ------------------------------------------------------


def test_ols_exact_line():
    m = matrix({"x1": [0.0, 1.0, 2.0]}, [1.0, 3.0, 5.0])
    fit = ols(m, ("x1",))
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    assert fit.sse == pytest.approx(0.0, abs=1e-18)
    assert fit.equation() == "y = 2.0000*x1 +1.0000"


def test_ols_empty_subset_is_mean_model():
    m = noise_matrix(30, 2, seed=10)
    fit = ols(m, ())
    assert fit.intercept == pytest.approx(m.y.mean())
    assert fit.coefficients.size == 0


def test_ols_duplicate_subset_rejected():
    m = noise_matrix(10, 2, seed=11)
    with pytest.raises(ValueError, match="duplicate"):
        ols(m, ("x1", "x1"))


def test_ols_residuals_orthogonal_to_design():
    m = noise_matrix(200, 5, seed=12)
    fit = ols(m, m.columns)
    resid = m.y - fit.predict(m)
    design = np.column_stack([np.ones(len(m)), m.x])
    dots = design.T @ resid
    scale = np.linalg.norm(resid) * np.linalg.norm(design, axis=0)
    assert np.all(np.abs(dots) / np.maximum(scale, 1e-30) < 1e-10)


def test_ols_nested_sse_never_increases():
    m = noise_matrix(100, 4, seed=13)
    prev = ols(m, ()).sse
    for k in range(1, 5):
        cur = ols(m, m.columns[:k]).sse
        assert cur <= prev + 1e-9
        prev = cur


def test_ols_rank_deficiency_names_dependent_column():
    rng = np.random.default_rng(14)
    a = rng.normal(0, 1, 40)
    b = rng.normal(0, 1, 40)
    m = matrix({"x5": a, "x6": b, "x7": 100.0 - a}, rng.normal(0, 1, 40))
    with pytest.raises(RankDeficiencyError) as exc:
        ols(m, ("x5", "x6", "x7"))
    assert exc.value.columns == ("x7",)


def test_ols_constant_column_clashes_with_intercept():
    rng = np.random.default_rng(15)
    m = matrix({"x1": rng.normal(0, 1, 30), "x2": np.full(30, 7.0)},
               rng.normal(0, 1, 30))
    with pytest.raises(RankDeficiencyError) as exc:
        ols(m, ("x1", "x2"))
    assert exc.value.columns == ("x2",)


def test_ols_criteria_formulas():
    m = noise_matrix(60, 2, seed=16)
    fit = ols(m, m.columns)
    n, k = 60, 3
    base = n * np.log(fit.sse / n)
    assert fit.aic == pytest.approx(base + 2 * k)
    assert fit.bic == pytest.approx(base + k * np.log(n))


# --- stepwise search ----------------------------------------------------


def test_stepwise_validation():
    m = noise_matrix(20, 2, seed=17)
    with pytest.raises(ValueError):
        stepwise(m, "sideways")
    with pytest.raises(ValueError):
        stepwise(m, "forward", criterion="sic")


def test_stepwise_forward_on_noise_keeps_intercept_only():
    m = noise_matrix(120, 5, seed=18)
    trace = stepwise(m, "forward")
    assert trace.fit.included == ()
    assert trace.steps == ()


def test_stepwise_both_directions_recover_true_subset():
    rng = np.random.default_rng(19)
    cols = {f"x{i + 1}": rng.normal(0, 1, 200) for i in range(5)}
    y = 2.0 * cols["x1"] + 0.5 * cols["x3"] + rng.normal(0, 0.1, 200)
    m = matrix(cols, y)
    fwd = stepwise(m, "forward")
    bwd = stepwise(m, "backward")
    assert sorted(fwd.fit.included) == ["x1", "x3"]
    assert sorted(bwd.fit.included) == ["x1", "x3"]


def test_stepwise_trace_criterion_strictly_decreases():
    rng = np.random.default_rng(20)
    cols = {f"x{i + 1}": rng.normal(0, 1, 150) for i in range(4)}
    y = 1.5 * cols["x2"] - 0.8 * cols["x4"] + rng.normal(0, 0.2, 150)
    m = matrix(cols, y)
    for direction, start_subset in (("forward", ()), ("backward", m.columns)):
        trace = stepwise(m, direction)
        values = [ols(m, start_subset).bic] + [s.criterion for s in trace.steps]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert trace.direction == direction
        actions = {s.action for s in trace.steps}
        assert actions <= ({"add"} if direction == "forward" else {"drop"})


def test_stepwise_forward_skips_a_column_that_repeats_another():
    """Forward mode skips a candidate that makes the design rank deficient,
    here x2 = 2 x1 beside x1 or x1 beside x2, and goes on adding."""
    rng = np.random.default_rng(24)
    x1, x3 = rng.normal(0, 1, 80), rng.normal(0, 1, 80)
    m = matrix({"x1": x1, "x2": 2.0 * x1, "x3": x3}, x1 + 0.5 * x3 + rng.normal(0, 0.1, 80))
    trace = stepwise(m, "forward")
    assert sorted(trace.fit.included) in (["x1", "x3"], ["x2", "x3"])
    assert len(trace.steps) == 2


def test_stepwise_backward_step_count_bounded():
    m = noise_matrix(100, 6, seed=21)
    trace = stepwise(m, "backward")
    assert len(trace.steps) <= 6


def test_stepwise_backward_needs_full_rank_start():
    rng = np.random.default_rng(22)
    a = rng.normal(0, 1, 50)
    m = matrix({"x5": a, "x7": 100.0 - a}, rng.normal(0, 1, 50))
    with pytest.raises(RankDeficiencyError):
        stepwise(m, "backward")


def test_full_rank_subset_drops_exact_identity():
    rng = np.random.default_rng(23)
    a = rng.normal(0, 1, 60)
    b = rng.normal(0, 1, 60)
    m = matrix({"x5": a, "x6": b, "x7": 100.0 - a}, rng.normal(0, 1, 60))
    kept, dropped = full_rank_subset(m)
    assert kept == ("x5", "x6")
    assert dropped == ("x7",)
    ols(m, kept)  # must not raise


# --- evaluation ---------------------------------------------------------


def test_evaluate_worked_example_rates():
    fit = RegressionFit(included=("x1",), intercept=0.0,
                        coefficients=np.array([1.0]), sse=0.0,
                        aic=-np.inf, bic=-np.inf)
    test = matrix({"x1": [110.0, 180.0, 330.0]}, [100.0, 200.0, 300.0])
    preds = fit.predict(test)
    np.testing.assert_array_equal(preds, [110.0, 180.0, 330.0])
    assert mape(test.y, preds) == pytest.approx(10.0)
    assert accuracy(test.y, preds) == pytest.approx(90.0)


def test_evaluate_missing_column_rejected():
    m = noise_matrix(30, 2, seed=24)
    fit = ols(m, ("x1", "x2"))
    test = matrix({"x1": np.arange(10.0)}, np.arange(1.0, 11.0))
    with pytest.raises(ValueError, match="x2"):
        fit.predict(test)


# The rank check the Householder pass replaced: pivoted QR of the whole
# design, then one pivoted QR per column from left to right to name the
# dependent ones.  Kept as the oracle for the error text and the names, on
# the design with each non-zero column scaled to unit norm, so no column's
# unit decides its rank.

def _reference_rank_error(m, subset):
    """The RankDeficiencyError text and columns, or None."""
    design = np.column_stack([np.ones(len(m)), m.design(subset)])
    norms = np.linalg.norm(design, axis=0)
    design = design / np.where(norms > 0.0, norms, 1.0)
    names = ("intercept",) + tuple(subset)
    _, r, _ = linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > 1e-10 * diag[0])) if diag[0] > 0.0 else 0
    if rank == design.shape[1]:
        return None
    dependent, kept = [], []
    for j in range(design.shape[1]):
        _, r_t, _ = linalg.qr(design[:, kept + [j]], mode="economic", pivoting=True)
        d_t = np.abs(np.diag(r_t))
        rank_t = int(np.sum(d_t > 1e-10 * d_t[0])) if d_t[0] > 0.0 else 0
        if rank_t == len(kept) + 1:
            kept.append(j)
        else:
            dependent.append(names[j])
    return (f"design is rank deficient ({rank} of {design.shape[1]}): "
            f"column(s) {', '.join(dependent)} are linear combinations of "
            "columns before them", tuple(dependent))


def _reference_full_rank_subset(m):
    kept, dropped = [], []
    for col in m.columns:
        if _reference_rank_error(m, tuple(kept) + (col,)) is None:
            kept.append(col)
        else:
            dropped.append(col)
    return tuple(kept), tuple(dropped)


def test_rank_deficiency_text_and_columns_match_pivoted_qr():
    rng = np.random.default_rng(24)
    n = 300
    a, b, c = (rng.normal(0, 1, n) for _ in range(3))
    designs = {
        # c08's near-collinear pair is full rank; so is its six-column case
        "near": ({"x1": a, "x2": a + 1e-3 * b}, ("x1", "x2")),
        "six": ({f"x{j}": rng.normal(0, 2, n) for j in range(1, 7)},
                tuple(f"x{j}" for j in range(1, 7))),
        # Williams %R is 100 minus %K
        "williams": ({"x5": 60 + 20 * a, "x6": b, "x7": 100.0 - (60 + 20 * a)},
                     ("x5", "x6", "x7")),
        "constant": ({"x1": a, "x2": np.full(n, 7.0)}, ("x1", "x2")),
        "two": ({"x1": a, "x2": b, "x3": a + 2.0 * b, "x4": c, "x5": 3.0 - c},
                ("x1", "x2", "x3", "x4", "x5")),
        "scaled": ({"x1": 1300 + 40 * a, "x2": 1e-3 * b, "x3": 2.0 * (1300 + 40 * a)},
                   ("x1", "x2", "x3")),
        # small next to the largest column, yet full rank: each column
        # is measured against its own norm
        "tiny": ({"x1": 1e8 * a, "x2": 1e-3 * b}, ("x1", "x2")),
    }
    for name, (cols, subset) in designs.items():
        m = matrix(cols, rng.normal(0, 1, n))
        expected = _reference_rank_error(m, subset)
        if expected is None:
            ols(m, subset)
            continue
        with pytest.raises(RankDeficiencyError) as exc:
            ols(m, subset)
        assert (str(exc.value), exc.value.columns) == expected, name


def test_full_rank_subset_matches_pivoted_qr_on_bundled_fixture(demo_bundle):
    train_m, _ = pipeline.feature_windows(demo_bundle["config"])
    kept, dropped = full_rank_subset(train_m)
    assert (kept, dropped) == _reference_full_rank_subset(train_m)
    assert dropped == ("x7",)


# The rank pass before it ran on LAPACK: one left-to-right Householder pass
# in Python, kept as the oracle for the kept columns and the solve.  It tests
# each column against its own norm, as the LAPACK pass does.

def _reference_householder(design: np.ndarray,
                           y: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    k = design.shape[1]
    work = np.column_stack([design, y])
    norms = np.linalg.norm(design, axis=0)
    kept: list[int] = []
    for j in range(k):
        r = len(kept)
        col = work[r:, j]
        alpha = float(np.linalg.norm(col))
        if not alpha > RANK_TOL * norms[j]:
            continue
        v = col.copy()
        v[0] += math.copysign(alpha, col[0])
        v /= np.linalg.norm(v)
        work[r:, j:] -= np.outer(2.0 * v, v @ work[r:, j:])
        kept.append(j)
    rank = len(kept)
    return kept, np.triu(work[:rank, kept]), work[:rank, k]


def _random_design(rng, n_rows: int, kinds: list[str]) -> np.ndarray:
    """An intercept, then one column per kind: ``noise`` (scale up to 1e3),
    ``big`` and ``tiny`` (noise times 1e6 and 1e-6, so a tiny column after a
    big one must still be kept on its own norm), ``combo`` (an integer combination of
    earlier columns), ``complement`` (100 minus an earlier column, as
    Williams %R is to %K), ``constant``, ``copy`` or ``zero``."""
    cols = [np.ones(n_rows)]
    for kind in kinds:
        pick = cols[int(rng.integers(len(cols)))]
        if kind == "noise":
            col = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), n_rows)
        elif kind in ("big", "tiny"):
            col = (1e6 if kind == "big" else 1e-6) * rng.normal(0.0, 1.0, n_rows)
        elif kind == "combo":
            weights = rng.integers(-3, 4, len(cols)).astype(float)
            col = np.column_stack(cols) @ weights
        elif kind == "complement":
            col = 100.0 - pick
        elif kind == "constant":
            col = np.full(n_rows, float(rng.integers(1, 9)))
        elif kind == "copy":
            col = pick.copy()
        else:
            col = np.zeros(n_rows)
        cols.append(col)
    return np.column_stack(cols)


# The coefficients differ by rounding alone.  In units of their column's
# norm the gap is bounded by a multiple of the condition number of the
# column-scaled design times the larger of the scaled coefficients and y; over
# 120,000 designs drawn like the test's the multiple was at most 1.7e-15.
_COEF_TOL = 1e-13


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_rows=st.integers(2, 40),
       kinds=st.lists(st.sampled_from(["noise", "noise", "big", "tiny", "combo",
                                       "complement", "constant", "copy", "zero"]),
                      min_size=1, max_size=10))
def test_rank_pass_keeps_the_reference_columns(seed, n_rows, kinds):
    """The LAPACK rank pass keeps the columns the Householder loop kept,
    including designs with fewer rows than columns, and solves to the same
    coefficients."""
    rng = np.random.default_rng(seed)
    design = _random_design(rng, n_rows, kinds)
    y = rng.normal(0.0, 1.0, n_rows) + design @ rng.normal(0.0, 1.0, design.shape[1])
    kept, r, qty = _householder(design, y)
    ref_kept, ref_r, ref_qty = _reference_householder(design, y)
    assert kept == ref_kept
    assert r.shape == (len(kept), len(kept)) and qty.shape == (len(kept),)
    assert np.array_equal(r, np.triu(r))
    if kept:
        norms = np.linalg.norm(design[:, kept], axis=0)
        ref = np.linalg.solve(ref_r, ref_qty)
        gap = np.abs(np.linalg.solve(r, qty) - ref) * norms
        kappa = np.linalg.cond(design[:, kept] / norms)
        size = max(np.linalg.norm(ref * norms), np.linalg.norm(y))
        assert gap.max() <= _COEF_TOL * kappa * size


def test_full_rank_subset_with_fewer_rows_than_columns():
    """Five rows hold at most five independent columns, the intercept and
    x1..x4; every later column is dropped, as the Householder loop did."""
    m = noise_matrix(5, 9, seed=31)
    kept, dropped = full_rank_subset(m)
    assert kept == ("x1", "x2", "x3", "x4")
    assert dropped == ("x5", "x6", "x7", "x8", "x9")
    design = np.column_stack([np.ones(len(m)), m.x])
    assert _reference_householder(design, m.y)[0] == [0, 1, 2, 3, 4]
