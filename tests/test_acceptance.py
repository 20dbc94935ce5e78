"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line with the measured
numbers so a ``pytest -s`` run doubles as the sign-off record.  Tolerances
and seed counts are pinned here on purpose; loosening them is a release
decision, not a test fix.
"""

import itertools
import json
import time
from datetime import date, timedelta

import numpy as np

from chaincast import indicators
from chaincast.arima import ArimaSpec, fit, rolling_one_step, select_order
from chaincast.neuralnet import TrainConfig, gradient_check, sweep, train
from chaincast.regression import FeatureMatrix, ols, stepwise
from chaincast.series import Series, difference, integrate, ljung_box, pacf
from chaincast.synthetic import random_frame, simulate_arima, simulate_arma


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _weekdays(n, start=date(2020, 1, 6)):
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _matrix(cols, y):
    names = tuple(cols)
    n = len(y)
    days = _weekdays(n + 1)
    return FeatureMatrix(
        dates=tuple(days[:n]),
        target_dates=tuple(days[1:]),
        columns=names,
        x=np.column_stack([np.asarray(cols[c], float) for c in names]),
        y=np.asarray(y, float),
    )


def test_c01_difference_integrate_round_trip_is_bitwise_exact():
    t0 = time.perf_counter()
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        levels = rng.normal(0, 5, 120).cumsum() + rng.uniform(50, 150)
        s = Series(levels)
        for d in (1, 2):
            rebuilt = integrate(difference(s, d), levels[:d])
            if not np.array_equal(rebuilt, levels[d:]):
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        failures == 0 and elapsed < 1.0,
        f"100 seeded walks, d in (1, 2): {failures} inexact round trips, "
        f"{elapsed:.2f}s",
    )


def test_c02_levinson_pacf_matches_least_squares_oracle():
    # Oracle: with the demeaned series zero-padded k steps on both ends, the
    # normal equations of the lagged regression are exactly the biased
    # autocovariance system, so the last least-squares coefficient is the
    # partial autocorrelation at lag k.
    t0 = time.perf_counter()
    x = simulate_arma([0.6, -0.2], [], 0.0, 500, sigma=1.0, seed=5)
    coefficients = pacf(Series(x), 8).coefficients
    worst = 0.0
    z = x - x.mean()
    for k in range(1, 9):
        zfull = np.concatenate([np.zeros(k), z, np.zeros(k)])
        y = zfull[k:]
        design = np.column_stack(
            [zfull[k - j: k - j + y.size] for j in range(1, k + 1)]
        )
        beta = np.linalg.lstsq(design, y, rcond=None)[0]
        worst = max(worst, abs(beta[-1] - coefficients[k - 1]))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst <= 1e-6 and elapsed < 1.0,
        f"lags 1..8 on n=500: max |levinson - lstsq| = {worst:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_c03_arima_estimation_recovers_coefficients_and_order():
    t0 = time.perf_counter()
    truth = np.array([0.5, -0.3, 0.4, 0.2])
    x = simulate_arima([0.5, -0.3], [0.4, 0.2], 0.0, 1, 3000, sigma=1.0, seed=7)
    fitted = fit(Series(x), ArimaSpec(2, 1, 2), seed=0)
    estimates = np.concatenate([fitted.phi, fitted.theta])
    coef_err = np.max(np.abs(estimates - truth))

    hits = 0
    for seed in range(20):
        xs = simulate_arima(
            [0.5, -0.3], [0.4, 0.2], 0.0, 1, 3000, sigma=1.0, seed=seed
        )
        best = select_order(
            Series(xs), 1, max_p=3, max_q=3, criterion="sic", seed=0,
        )
        if (best.spec.p, best.spec.d, best.spec.q) == (2, 1, 2):
            hits += 1
    elapsed = time.perf_counter() - t0
    _report(
        3,
        coef_err <= 0.15 and hits >= 14 and elapsed < 60.0,
        f"coefficient error {coef_err:.3f} (limit 0.15), order (2,1,2) "
        f"chosen {hits}/20 seeds (need 14), {elapsed:.1f}s",
    )


def test_c04_random_walk_rolling_forecast_is_previous_close_plus_drift():
    rng = np.random.default_rng(15)
    levels = 50.0 + np.cumsum(rng.normal(0.3, 1.0, 160))
    train_s, test_s = Series(levels[:120]), Series(levels[120:])
    fitted = fit(train_s, ArimaSpec(0, 1, 0))
    preds = rolling_one_step(fitted, test_s, anchors=levels[:120])
    prev = np.concatenate([[levels[119]], test_s.values[:-1]])
    gap = np.max(np.abs(preds.values - (prev + fitted.mu)))
    _report(
        4,
        gap <= 1e-12,
        f"40 rolling steps: max |forecast - (previous + drift)| = {gap:.2e}",
    )


def test_c05_ljung_box_separates_white_from_structured_residuals():
    white = 0
    for seed in range(20):
        x = simulate_arma([0.5], [], 0.0, 500, sigma=1.0, seed=seed)
        f = fit(Series(x), ArimaSpec(1, 0, 0), seed=0)
        white += ljung_box(Series(f.residuals), 10, fitted_params=1).is_white
    flagged = 0
    for seed in range(20):
        x = simulate_arma([0.8], [], 0.0, 500, sigma=1.0, seed=100 + seed)
        f = fit(Series(x), ArimaSpec(0, 0, 0), seed=0)  # mean-only misfit
        flagged += not ljung_box(Series(f.residuals), 10, fitted_params=0).is_white
    _report(
        5,
        white >= 17 and flagged >= 17,
        f"correct model passes {white}/20, misfit flagged {flagged}/20 "
        f"(need 17 each)",
    )


def test_c06_indicator_identities_hold_on_random_frames():
    t0 = time.perf_counter()
    worst_complement = 0.0
    worst_scale = 0.0
    worst_affine = 0.0
    out_of_bounds = 0
    for seed in range(1000):
        frame = random_frame(60, seed=seed)
        closes = frame.close_series()
        k = indicators.stochastic_k(frame).values
        d = indicators.stochastic_d(indicators.stochastic_k(frame)).values
        r = indicators.williams_r(frame).values
        rs = indicators.rsi(closes).values
        worst_complement = max(worst_complement, np.max(np.abs(k + r - 100.0)))
        for arr in (k, d, r, rs):
            out_of_bounds += int(np.any(arr < 0.0) or np.any(arr > 100.0))
        if seed < 100:  # invariance sweeps on a slice keep the budget honest
            scaled = indicators.rsi(Series(7.3 * closes.values)).values
            worst_scale = max(worst_scale, np.max(np.abs(scaled - rs)))
            base = indicators.ema(closes, 10).values
            moved = indicators.ema(Series(2.5 * closes.values + 30.0), 10).values
            worst_affine = max(
                worst_affine, np.max(np.abs(moved - (2.5 * base + 30.0)))
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_complement <= 1e-9
        and worst_scale <= 1e-8
        and worst_affine <= 1e-8
        and out_of_bounds == 0
        and elapsed < 5.0
    )
    _report(
        6,
        ok,
        f"1000 frames: |K+R-100| <= {worst_complement:.1e}, RSI scale gap "
        f"{worst_scale:.1e}, EMA affine gap {worst_affine:.1e}, "
        f"{out_of_bounds} bound breaches, {elapsed:.2f}s",
    )


def test_c07_stepwise_recovers_true_subset_and_matches_exhaustive_search():
    t0 = time.perf_counter()
    forward_hits = backward_hits = 0
    exhaustive_matches = backward_successes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cols = {f"x{j}": rng.normal(0, 1, 500) for j in range(1, 6)}
        y = 2.0 * cols["x1"] + 0.5 * cols["x3"] + rng.normal(0, 0.1, 500)
        m = _matrix(cols, y)
        f_fit = stepwise(m, "forward", criterion="bic").fit
        b_fit = stepwise(m, "backward", criterion="bic").fit
        if tuple(sorted(f_fit.included)) == ("x1", "x3"):
            forward_hits += 1
        if tuple(sorted(b_fit.included)) == ("x1", "x3"):
            backward_hits += 1
            backward_successes += 1
            best = min(
                ols(m, sub).bic
                for r in range(len(m.columns) + 1)
                for sub in itertools.combinations(m.columns, r)
            )
            if abs(b_fit.bic - best) <= 1e-9:
                exhaustive_matches += 1
    elapsed = time.perf_counter() - t0
    ok = (
        forward_hits >= 18
        and backward_hits >= 18
        and exhaustive_matches == backward_successes
        and elapsed < 10.0
    )
    _report(
        7,
        ok,
        f"subset recovered forward {forward_hits}/20, backward "
        f"{backward_hits}/20 (need 18); backward BIC equals exhaustive "
        f"minimum on {exhaustive_matches}/{backward_successes} successes; "
        f"{elapsed:.1f}s",
    )


def test_c08_ols_is_exact_on_noiseless_data_and_residuals_are_orthogonal():
    rng = np.random.default_rng(8)
    a = rng.normal(0, 1, 300)
    b = a + 1e-3 * rng.normal(0, 1, 300)  # nearly collinear but full rank
    m = _matrix({"x1": a, "x2": b}, 3.0 + 2.0 * a - 5.0 * b)
    f = ols(m, ("x1", "x2"))
    coef_err = max(
        abs(f.intercept - 3.0),
        abs(f.coefficients[0] - 2.0),
        abs(f.coefficients[1] + 5.0),
    )

    cols = {f"x{j}": rng.normal(0, 2, 300) for j in range(1, 7)}
    m2 = _matrix(cols, rng.normal(0, 1, 300))
    f2 = ols(m2, m2.columns)
    residual = m2.y - f2.predict(m2)
    design = np.column_stack([np.ones(len(m2.y)), m2.x])
    unit_design = design / np.linalg.norm(design, axis=0)
    unit_residual = residual / np.linalg.norm(residual)
    ortho = np.max(np.abs(unit_design.T @ unit_residual))
    _report(
        8,
        coef_err <= 1e-9 and ortho <= 1e-6,
        f"noiseless near-collinear fit off by {coef_err:.1e} (limit 1e-9), "
        f"unit-scaled residual orthogonality {ortho:.1e} (limit 1e-6)",
    )


def test_c09_training_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 10, 80)
    b = rng.uniform(0, 5, 80)
    y = 100.0 + 3.0 * a + 2.0 * b + rng.normal(0, 0.3, 80)
    m = _matrix({"x1": a, "x2": b}, y)
    worst = max(gradient_check(m, hidden=3, seed=s) for s in (0, 1, 2))
    elapsed = time.perf_counter() - t0
    _report(
        9,
        worst <= 1e-4 and elapsed < 5.0,
        f"3 seeded weight points: worst relative gradient gap {worst:.1e} "
        f"(limit 1e-4), {elapsed:.2f}s",
    )


def test_c10_network_fits_linear_targets_and_sweep_avoids_underfitting():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 10, 200)
    b = rng.uniform(0, 5, 200)
    lin = _matrix({"x1": a, "x2": b}, 100.0 + 3.0 * a + 2.0 * b)
    _, report = train(lin, 6, TrainConfig(epochs=1500, learning_rate=0.1), seed=0)

    chosen = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        v = rng.uniform(-1, 1, 200)
        fold = _matrix({"x1": v}, 50.0 + 10.0 * np.abs(v) + rng.normal(0, 0.05, 200))
        res = sweep(
            fold, TrainConfig(epochs=300, learning_rate=0.1),
            max_hidden=5, seed=seed,
        )
        chosen.append(res.chosen)
    _report(
        10,
        report.train_mape < 0.5 and all(h != 1 for h in chosen),
        f"linear target train MAPE {report.train_mape:.4f}% at 6 hidden "
        f"units (limit 0.5%); fold fixture sweep chose sizes {chosen}, "
        f"never 1",
    )


def test_c11_pipeline_accuracy_improves_along_the_chain(demo_bundle):
    accs = demo_bundle["report"].stage_accuracies
    with open(demo_bundle["out_dir"] / "timings.json", encoding="utf-8") as fh:
        total = sum(json.load(fh).values())
    ok = (
        accs["hybrid_nn"] >= accs["stepwise_backward"] >= accs["full_ols"]
        and total < 300.0
    )
    _report(
        11,
        ok,
        f"test accuracy full OLS {accs['full_ols']:.4f}% <= backward "
        f"stepwise {accs['stepwise_backward']:.4f}% <= hybrid "
        f"{accs['hybrid_nn']:.4f}%, pipeline {total:.1f}s",
    )


def test_c12_pipeline_reruns_are_byte_identical(demo_bundle):
    first, second = demo_bundle["report_bytes"]
    _report(
        12,
        first == second,
        f"two pipeline runs produced identical report.json "
        f"({len(first)} bytes)",
    )
