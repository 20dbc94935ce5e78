import datetime
import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz
from scipy.optimize import minimize as scipy_minimize
from scipy.signal import lfilter

from chaincast import arima, pipeline, synthetic
from chaincast.arima import (
    ArimaSpec,
    ar_from_pacf,
    fit,
    one_step_history,
    select_order,
)
from chaincast.errors import FitError
from chaincast.series import Series, _durbin_levinson, difference, suggest_d
from chaincast.synthetic import simulate_arima, simulate_arma


# Reference implementations: the Nelder-Mead estimator and the per-day
# one-step loop that the Levenberg-Marquardt solver and the one-filter
# predictor replaced, kept verbatim as oracles.

def _reference_coeffs_from_raw(raw, p, q):
    r = np.clip(np.tanh(raw), -0.9999, 0.9999)
    phi = ar_from_pacf(r[:p]) if p else np.empty(0)
    theta = -ar_from_pacf(r[p:]) if q else np.empty(0)
    return phi, theta


def _reference_css_residuals(w, p, q, phi, theta):
    n = w.size
    u = w[p:].copy()
    for i in range(1, p + 1):
        u -= phi[i - 1] * w[p - i:n - i]
    ma_poly = np.concatenate([[1.0], theta])
    e_base = lfilter([1.0], ma_poly, u)
    e_mean = lfilter([1.0], ma_poly, np.ones_like(u))
    mu = float(np.dot(e_base, e_mean) / np.dot(e_mean, e_mean))
    return mu, e_base - mu * e_mean


def _reference_fit(train, spec, seed=0):
    p, d, q = spec.p, spec.d, spec.q
    if len(train) < 10 * spec.n_params():
        raise ValueError(
            f"series too short to fit ({spec.p},{spec.d},{spec.q}): "
            f"{len(train)} observations, need {10 * spec.n_params()}"
        )
    w = difference(train, d).values
    if np.ptp(w) == 0.0 and (p or q):
        raise FitError(f"differenced series is constant; ({p},{d},{q}) unidentifiable")

    if p + q == 0:
        mu = float(w.mean())
        resid = w - mu
        return arima._finish(spec, mu, np.empty(0), np.empty(0), resid)

    def objective(raw):
        phi, theta = _reference_coeffs_from_raw(raw, p, q)
        _, eps = _reference_css_residuals(w, p, q, phi, theta)
        return float(np.mean(eps**2))

    rng = np.random.default_rng(seed)
    failures = []
    for attempt in range(arima.RESTARTS + 1):
        x0 = np.zeros(p + q) if attempt == 0 else rng.normal(0.0, 0.5, p + q)
        result = scipy_minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": arima.MAX_ITERATIONS,
                     "xatol": arima.XATOL, "fatol": arima.FATOL},
        )
        if not result.success:
            failures.append(f"attempt {attempt}: {result.message}")
            continue
        phi, theta = _reference_coeffs_from_raw(result.x, p, q)
        if not (arima._roots_outside(phi) and arima._roots_outside(-theta)):
            failures.append(f"attempt {attempt}: roots on or inside the unit circle")
            continue
        mu, resid = _reference_css_residuals(w, p, q, phi, theta)
        return arima._finish(spec, mu, phi, theta, resid)
    raise FitError(
        f"({p},{d},{q}) estimation failed after {arima.RESTARTS + 1} attempts: "
        + "; ".join(failures)
    )


def _reference_one_step_history(fitted, full):
    p, d, q = fitted.spec.p, fitted.spec.d, fitted.spec.q
    w = difference(full, d).values
    out = np.full(len(full), np.nan)
    eps_hist = []
    levels = full.values
    for idx in range(p, w.size):
        step = fitted.mu
        for i in range(1, p + 1):
            step += fitted.phi[i - 1] * w[idx - i]
        for j in range(1, q + 1):
            step += fitted.theta[j - 1] * (eps_hist[-j] if j <= len(eps_hist) else 0.0)
        pos = idx + d
        prev = levels[pos - 1]
        if d == 0:
            out[pos] = step
        elif d == 1:
            out[pos] = prev + step
        else:
            out[pos] = prev + (prev - levels[pos - 2]) + step
        eps_hist.append(w[idx] - step)
    return out


def test_spec_validation():
    with pytest.raises(ValueError):
        ArimaSpec(-1, 0, 0)
    with pytest.raises(ValueError):
        ArimaSpec(0, 3, 0)
    with pytest.raises(ValueError):
        ArimaSpec(3, 1, 3)
    assert ArimaSpec(2, 1, 1).n_params() == 4


def test_ar_from_pacf_stays_stationary():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pac = rng.uniform(-0.999, 0.999, rng.integers(1, 6))
        phi = ar_from_pacf(pac)
        roots = np.roots(np.concatenate([-phi[::-1], [1.0]]))
        assert np.all(np.abs(roots) > 1.0)


def test_pacf_from_ar_inverts_ar_from_pacf():
    rng = np.random.default_rng(1)
    for _ in range(200):
        pac = rng.uniform(-0.999, 0.999, rng.integers(1, 6))
        np.testing.assert_allclose(arima._pacf_from_ar(ar_from_pacf(pac)), pac,
                                   rtol=0.0, atol=1e-9)
    assert arima._pacf_from_ar(np.array([1.2])) is None
    assert arima._pacf_from_ar(np.array([0.5, 0.6])) is None  # a root at |z| = 0.94


def test_fit_drift_only_closed_form():
    levels = Series(np.array([10.0, 12.5, 14.0, 17.5, 18.0] * 4))
    fitted = fit(levels, ArimaSpec(0, 1, 0))
    w = np.diff(levels.values)
    assert fitted.mu == w.mean()
    np.testing.assert_array_equal(fitted.residuals, w - w.mean())
    assert fitted.residuals.size == w.size
    assert fitted.sigma2 == pytest.approx(np.mean((w - w.mean()) ** 2))
    assert fitted.sigma2 * fitted.residuals.size == pytest.approx(np.sum((w - w.mean()) ** 2))


def test_information_criteria_formulas():
    levels = Series(simulate_arma([0.5], [], 1.0, 300, seed=1))
    fitted = fit(levels, ArimaSpec(1, 0, 0))
    k = fitted.spec.n_params()
    n = fitted.residuals.size
    assert fitted.aic == pytest.approx(n * np.log(fitted.sigma2) + 2 * k)
    assert fitted.sic == pytest.approx(n * np.log(fitted.sigma2) + k * np.log(n))
    assert fitted.sic > fitted.aic  # ln(297) > 2


def test_fit_recovers_ar1():
    s = Series(simulate_arma([0.6], [], 0.0, 2000, seed=3))
    fitted = fit(s, ArimaSpec(1, 0, 0))
    assert fitted.phi[0] == pytest.approx(0.6, abs=0.05)
    assert fitted.sigma2 == pytest.approx(1.0, abs=0.1)


def test_fit_recovers_ma1():
    s = Series(simulate_arma([], [0.5], 0.0, 2000, seed=4))
    fitted = fit(s, ArimaSpec(0, 0, 1))
    assert fitted.theta[0] == pytest.approx(0.5, abs=0.07)


def test_fit_mean_is_recursion_constant():
    # for an AR model the constant is mean * (1 - sum(phi)), not the mean
    s = Series(simulate_arma([0.5], [], 5.0, 3000, seed=5))
    fitted = fit(s, ArimaSpec(1, 0, 0))
    implied_mean = fitted.mu / (1.0 - fitted.phi.sum())
    assert implied_mean == pytest.approx(s.values.mean(), rel=0.05)


def test_fit_polynomial_roots_outside_unit_circle():
    s = Series(simulate_arma([0.5, 0.3], [0.4], 0.0, 1500, seed=6))
    fitted = fit(s, ArimaSpec(2, 0, 1))
    ar_roots = np.roots(np.concatenate([-fitted.phi[::-1], [1.0]]))
    ma_roots = np.roots(np.concatenate([fitted.theta[::-1], [1.0]]))
    assert np.all(np.abs(ar_roots) > 1.0)
    assert np.all(np.abs(ma_roots) > 1.0)


def test_fit_is_deterministic():
    s = Series(simulate_arma([0.4], [0.3], 0.0, 600, seed=7))
    a = fit(s, ArimaSpec(1, 0, 1))
    b = fit(s, ArimaSpec(1, 0, 1))
    np.testing.assert_array_equal(a.phi, b.phi)
    np.testing.assert_array_equal(a.theta, b.theta)
    assert a.mu == b.mu
    np.testing.assert_array_equal(a.residuals, b.residuals)


def test_fit_constant_difference_unidentifiable():
    ramp = Series(np.arange(100.0))
    with pytest.raises(FitError):
        fit(ramp, ArimaSpec(1, 1, 0))


def test_fit_constant_difference_drift_only_is_fine():
    ramp = Series(np.arange(30.0))
    fitted = fit(ramp, ArimaSpec(0, 1, 0))
    assert fitted.mu == 1.0
    assert fitted.sigma2 == 0.0
    assert fitted.aic == -np.inf


def test_fit_short_series_rejected():
    with pytest.raises(ValueError, match="too short"):
        fit(Series(np.arange(25.0)), ArimaSpec(1, 0, 1))


def test_select_order_white_noise_prefers_empty_model():
    s = Series(np.random.default_rng(8).normal(0.0, 1.0, 400))
    best = select_order(s, d=0, max_p=2, max_q=2)
    assert (best.spec.p, best.spec.q) == (0, 0)


def test_select_order_recovers_ar1():
    s = Series(simulate_arma([0.7], [], 0.0, 1200, seed=9))
    best = select_order(s, d=0, max_p=2, max_q=1)
    assert (best.spec.p, best.spec.d, best.spec.q) == (1, 0, 0)


def test_select_order_criterion_validation():
    s = Series(np.random.default_rng(10).normal(0.0, 1.0, 200))
    with pytest.raises(ValueError):
        select_order(s, d=0, criterion="bic")


def test_one_step_history_random_walk_is_previous_plus_drift():
    rng = np.random.default_rng(15)
    levels = 50.0 + np.cumsum(rng.normal(0.3, 1.0, 120))
    fitted = fit(Series(levels[:100]), ArimaSpec(0, 1, 0))
    preds = one_step_history(fitted, Series(levels))[100:]
    np.testing.assert_allclose(preds, levels[99:-1] + fitted.mu, atol=1e-12)


def test_one_step_history_ar1_conditions_on_actuals():
    s = simulate_arma([0.7], [], 1.0, 600, seed=16)
    fitted = fit(Series(s[:500]), ArimaSpec(1, 0, 0))
    preds = one_step_history(fitted, Series(s))[500:]
    np.testing.assert_allclose(preds, fitted.mu + fitted.phi[0] * s[499:-1], atol=1e-12)


def test_one_step_history_nan_prefix_then_finite():
    levels = simulate_arima([0.5], [], 0.2, 1, 400, seed=17, start_level=80.0)
    fitted = fit(Series(levels[:340]), ArimaSpec(1, 1, 0))
    hist = one_step_history(fitted, Series(levels))
    assert np.all(np.isnan(hist[:2]))  # p + d = 2
    assert np.all(np.isfinite(hist[2:]))


def test_one_step_predictors_match_reference_loops():
    cases = {(1, 1, 0): ([0.5], []), (0, 1, 2): ([], [0.4, 0.2]),
             (2, 0, 1): ([0.5, -0.3], [0.4]), (1, 2, 1): ([0.3], [0.3])}
    for (p, d, q), (phi, theta) in cases.items():
        levels = simulate_arima(phi, theta, 0.1, d, 500, seed=19 + p + 2 * q,
                                start_level=300.0)
        fitted = fit(Series(levels[:420]), ArimaSpec(p, d, q))
        hist = one_step_history(fitted, Series(levels))
        np.testing.assert_allclose(
            hist, _reference_one_step_history(fitted, Series(levels)),
            rtol=1e-12, atol=0.0, err_msg=f"({p},{d},{q})")


@pytest.mark.parametrize("order", [(0, 0, 1), (2, 0, 1), (1, 1, 2), (1, 2, 1)])
def test_one_step_prediction_ignores_its_own_day(order):
    """Bit for bit, a one-step prediction is unchanged when the value it
    predicts is replaced, also with MA terms (the actual value minus its
    shock would move in the last bits)."""
    p, d, q = order
    levels = simulate_arima([0.4] * p, [0.3] * q, 0.1, d, 420, seed=41 + p + q,
                            start_level=1800.0)
    fitted = fit(Series(levels[:340]), ArimaSpec(p, d, q))
    hist = one_step_history(fitted, Series(levels))
    for pos in (350, 377, 419):
        dummied = np.append(levels[:pos], levels[pos] + 999.0)
        assert one_step_history(fitted, Series(dummied))[pos] == hist[pos]


# Simulated series with known orders, about 800 observations each.
KNOWN_ORDERS = {
    "arma11": (ArimaSpec(1, 0, 1),
               simulate_arima([0.6], [0.3], 0.5, 0, 800, seed=21)),
    "arima212": (ArimaSpec(2, 1, 2),
                 simulate_arima([0.5, -0.3], [0.4, 0.2], 0.0, 1, 800, seed=22)),
    "ma2": (ArimaSpec(0, 0, 2),
            simulate_arima([], [0.5, 0.3], 1.0, 0, 800, seed=23)),
}


@pytest.mark.parametrize("name", sorted(KNOWN_ORDERS))
def test_fit_matches_reference_on_true_cell(name):
    spec, levels = KNOWN_ORDERS[name]
    new = fit(Series(levels), spec)
    ref = _reference_fit(Series(levels), spec)
    np.testing.assert_allclose(np.concatenate([new.phi, new.theta]),
                               np.concatenate([ref.phi, ref.theta]), rtol=0.0, atol=1e-4)
    assert np.sum(new.residuals**2) <= np.sum(ref.residuals**2) * (1.0 + 1e-9)


def _training_series(config):
    train, _ = pipeline._split(pipeline._align(pipeline._read_frames(config)),
                               config.split)
    return {name: train[name].close_series() for name in pipeline.ASSETS}


LONG_SPAN = {"start": datetime.date(2007, 1, 1), "end": datetime.date(2018, 12, 31)}
LONG_SPLIT = ("train_start = 2007-01-01\ntrain_end = 2017-01-01\n"
              "test_start = 2017-01-02\ntest_end = 2019-01-01\n")


@functools.lru_cache(maxsize=None)
def _fixture_training(seed, long=False):
    """Each asset's training closes and differencing order on a fixture of
    the bundled length, or of 12 years (2007-2018) with ten for training."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        synthetic.make_fixture(root, seed=seed, **(LONG_SPAN if long else {}))
        (root / "pipeline.cfg").write_text(
            "gold_csv = gold.csv\neurusd_csv = eurusd.csv\noil_csv = oil.csv\n"
            + (LONG_SPLIT if long else ""))
        config = pipeline.load_config(root / "pipeline.cfg")
        return {name: (train, suggest_d(train, config.stationarity_threshold))
                for name, train in _training_series(config).items()}


def _on_common_sample(fitted, train, max_p=3):
    """``fitted`` with its criteria taken on the sample every cell of a
    search up to ``max_p`` shares, its last n - d - max_p residuals."""
    common = len(train) - fitted.spec.d - min(max_p, arima.MAX_ORDER)
    return arima._finish(fitted.spec, fitted.mu, fitted.phi, fitted.theta,
                         fitted.residuals[-common:])


def _reference_select_order(train, d, max_p=3, max_q=3, criterion="sic",
                            seed=0, fit=fit):
    """`select_order` as it stood before the screening pass, kept as the
    oracle: every cell fitted once at ``seed`` (by ``fit``) and ranked on
    the common sample."""
    candidates = []
    failures = []
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            if p + q > arima.MAX_ORDER:
                continue
            try:
                candidates.append(fit(train, ArimaSpec(p, d, q), seed))
            except (FitError, ValueError) as exc:
                failures.append(str(exc))
    if not candidates:
        raise FitError(
            f"no candidate order at d={d} could be fitted: " + "; ".join(failures)
        )
    return min(candidates, key=lambda f: (getattr(_on_common_sample(f, train, max_p), criterion),
                                          f.spec.p + f.spec.q, f.spec.p))


def _sic_gap(train, d):
    """Common-sample SIC of the search's choice minus the Nelder-Mead
    one-pass search's."""
    ref = _reference_select_order(train, d, fit=_reference_fit)
    return (_on_common_sample(select_order(train, d), train).sic
            - _on_common_sample(ref, train).sic)


@pytest.mark.parametrize("name", sorted(KNOWN_ORDERS))
def test_select_order_no_worse_than_reference(name):
    spec, levels = KNOWN_ORDERS[name]
    assert _sic_gap(Series(levels), spec.d) <= 1e-5


# 84: started from zero, the solver settled gold's (3,0,2) cell in a local
# minimum 11.8 above the reference search's winner
@pytest.mark.parametrize("seed", [synthetic.FIXTURE_SEED, 84])
def test_select_order_no_worse_than_reference_on_fixture(seed):
    for name, (train, d) in _fixture_training(seed).items():
        assert _sic_gap(train, d) <= 1e-5, name


def assert_same_fit(got, want):
    assert got.spec == want.spec
    assert (got.mu, got.aic, got.sic) == (want.mu, want.aic, want.sic)
    for field in ("phi", "theta", "residuals"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


@pytest.mark.parametrize("seed, long", [(synthetic.FIXTURE_SEED, False), (84, False),
                                        (5, True), (11, True)])
def test_screened_search_equals_the_one_pass_search(seed, long):
    for train, d in _fixture_training(seed, long).values():
        assert_same_fit(select_order(train, d), _reference_select_order(train, d))


def test_screened_search_equals_the_one_pass_search_on_known_orders():
    for spec, levels in KNOWN_ORDERS.values():
        for criterion in ("aic", "sic"):
            assert_same_fit(select_order(Series(levels), spec.d, criterion=criterion),
                            _reference_select_order(Series(levels), spec.d,
                                                    criterion=criterion))


@pytest.mark.parametrize("n", [8, 15, 25])
def test_screened_search_skips_and_reports_failed_cells_as_before(n):
    """Cells too short to fit fail the loose pass and again in full: the
    search skips them, or, when every cell fails, names them all in grid
    order."""
    levels = Series(simulate_arima([0.5], [], 0.0, 0, n, seed=n))
    try:
        want = _reference_select_order(levels, 0, max_p=2, max_q=2)
    except FitError as exc:
        with pytest.raises(FitError) as info:
            select_order(levels, 0, max_p=2, max_q=2)
        assert str(info.value) == str(exc)
    else:
        assert_same_fit(select_order(levels, 0, max_p=2, max_q=2), want)


def _evaluations(monkeypatch):
    """A list that collects the evaluation count of every `minimize` call."""
    counts = []
    minimize = arima.minimize

    def counted(*args):
        result = minimize(*args)
        counts.append(result.nfev)
        return result

    monkeypatch.setattr(arima, "minimize", counted)
    return counts


def test_screen_tolerances_keep_the_winning_cell_within_the_margin(monkeypatch):
    """Gold's (3,0,2) cell wins the search on the 12-year fixture at seed 5.
    Screened too loosely, its fit stops short of the minimum by more than
    the margin, and the search would drop the winner."""
    train, d = _fixture_training(5, long=True)["gold"]
    spec = ArimaSpec(3, d, 2)
    assert select_order(train, d).spec == spec
    full = fit(train, spec).sic
    assert full == pytest.approx(7792.92, abs=0.005)
    counts = _evaluations(monkeypatch)

    def loose(xatol, fatol):
        counts.clear()
        fitted = arima._fit(train, spec, xatol, fatol, 0, 0)
        return sum(counts), fitted

    evaluations, fitted = loose(1e-3, 1e-6)
    assert evaluations == 4 and fitted.sic == pytest.approx(7838.99, abs=0.005)
    # the first step is already below xatol: the fit is the starting point
    evaluations, fitted = loose(1e-2, 1e-5)
    start = arima._coeffs_from_raw(arima._hannan_rissanen(train.values, 3, 2), 3, 2)
    assert evaluations == 1
    np.testing.assert_array_equal(np.concatenate([fitted.phi, fitted.theta]),
                                  np.concatenate(start[:2]))
    _, fitted = loose(arima.SCREEN_XATOL, arima.SCREEN_FATOL)
    assert 0.0 <= fitted.sic - full < arima.SCREEN_DELTA


def test_screened_search_evaluation_budget(monkeypatch):
    """Residual evaluations of the three searches on the bundled fixture:
    649 when every cell is fitted in full, 463 screened."""
    counts = _evaluations(monkeypatch)
    for train, d in _fixture_training(synthetic.FIXTURE_SEED).values():
        select_order(train, d)
    assert sum(counts) <= 500


def test_css_gradient_matches_central_differences():
    p, d, q = 2, 1, 2
    w = np.diff(simulate_arima([0.5, -0.3], [0.4, 0.2], 0.0, d, 600, seed=24))
    raw = np.array([0.3, -0.2, 0.25, -0.4])

    def mse(x):
        phi, theta, _ = arima._coeffs_from_raw(x, p, q)
        return float(np.mean(arima._css_residuals(w, p, phi, arima._InverseMA(theta))[1] ** 2))

    phi, theta, dcoef = arima._coeffs_from_raw(raw, p, q)
    ma = arima._InverseMA(theta)
    _, e, m = arima._css_residuals(w, p, phi, ma)
    jac = arima._css_jacobian(w, p, ma, e, m) @ dcoef
    gradient = 2.0 / e.size * (jac.T @ e)
    h = 1e-5
    numeric = np.array([(mse(raw + h * unit) - mse(raw - h * unit)) / (2 * h)
                        for unit in np.eye(p + q)])
    np.testing.assert_allclose(gradient, numeric, rtol=1e-6)


def test_a_search_without_restarts_leaves_numpy_random_unloaded(tmp_path):
    """`fit` builds its seeded generator at the first restart.  No fit of
    the order search on the bundled gold training series restarts, so a
    fresh process that runs that search never imports ``numpy.random``."""
    synthetic.make_fixture(tmp_path)
    (tmp_path / "pipeline.cfg").write_text(
        "gold_csv = gold.csv\neurusd_csv = eurusd.csv\noil_csv = oil.csv\n")
    script = (
        "import sys\n"
        "from chaincast import pipeline\n"
        "from chaincast.arima import select_order\n"
        "from chaincast.series import suggest_d\n"
        f"config = pipeline.load_config({str(tmp_path / 'pipeline.cfg')!r})\n"
        "train, _ = pipeline._split(pipeline._align(pipeline._read_frames(config)),\n"
        "                           config.split)\n"
        "gold = train['gold'].close_series()\n"
        "best = select_order(gold, suggest_d(gold, config.stationarity_threshold))\n"
        "print('order:', best.spec, 'numpy.random loaded:', 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(arima.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("order: ArimaSpec(")
    assert result.stdout.endswith("numpy.random loaded: False\n")


def test_fit_budget_exhausted_names_cell_and_attempts(monkeypatch):
    levels = simulate_arima([0.5, -0.3], [0.4, 0.2], 0.0, 1, 800, seed=22)
    monkeypatch.setattr(arima, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(arima, "RESTARTS", 1)
    with pytest.raises(FitError, match=r"\(2,1,2\).*2 attempts"):
        fit(Series(levels), ArimaSpec(2, 1, 2))


@pytest.mark.parametrize("q", range(6))
def test_inverse_ma_matches_lfilter(q):
    """The blocked MA inversion against `lfilter`, normwise relative gap at
    most 1e-12: one MA root at 0.999, the others inside |z| = 0.5, inputs up
    to 1e3, one row and three."""
    rng = np.random.default_rng(300 + q)
    for trial in range(20):
        roots = np.concatenate([[0.999 * rng.choice([-1.0, 1.0])],
                                rng.uniform(-0.5, 0.5, max(q - 1, 0))])[:q]
        ma_poly = np.atleast_1d(np.real(np.poly(roots)))
        filt = arima._InverseMA(ma_poly[1:])
        n = int(rng.integers(1, 2000))
        for shape in ((n,), (3, n)):
            x = rng.uniform(-1e3, 1e3, shape)
            got = filt(x)
            expected = lfilter([1.0], ma_poly, x) if q else x
            assert got.shape == expected.shape
            gap = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert gap <= 1e-12, (q, trial, shape, gap)


def test_inverse_ma_matches_lfilter_where_the_bundled_fits_land():
    """Every q > 0 cell of the bundled fixture's three order searches,
    fully fitted at the pipeline's d: the blocked MA inversion of its theta
    filters the differenced training series within 1e-12 of `lfilter`,
    normwise relative.  A change that drives fits toward clustered unit MA
    roots, where the blocked filter loses precision, fails here."""
    cells = 0
    for name, (train, d) in _fixture_training(synthetic.FIXTURE_SEED).items():
        w = difference(train, d).values
        for p in range(4):
            for q in range(1, 4):
                if p + q > arima.MAX_ORDER:
                    continue
                theta = fit(train, ArimaSpec(p, d, q)).theta
                expected = lfilter([1.0], [1.0, *theta], w)
                gap = (np.max(np.abs(arima._InverseMA(theta)(w) - expected))
                       / np.max(np.abs(expected)))
                assert gap <= 1e-12, (name, p, q, gap)
                cells += 1
    assert cells == 3 * 11


def test_inverse_ma_matches_lfilter_with_one_root_near_the_unit_circle():
    """One MA root at +-0.999 and four more in (-0.8, 0.8), 200 seeded draws
    of 2,609 inputs: where the roots crowd, the blocked filter's normwise
    relative gap to `lfilter` reaches 5.83e-10 (median 5e-15).  The bound
    is ten times that worst draw."""
    rng = np.random.default_rng(306)
    for trial in range(200):
        roots = np.concatenate([[0.999 * rng.choice([-1.0, 1.0])],
                                rng.uniform(-0.8, 0.8, 4)])
        ma_poly = np.real(np.poly(roots))
        x = rng.uniform(-1e3, 1e3, 2609)
        expected = lfilter([1.0], ma_poly, x)
        gap = (np.max(np.abs(arima._InverseMA(ma_poly[1:])(x) - expected))
               / np.max(np.abs(expected)))
        assert gap <= 10 * 5.83e-10, (trial, roots, gap)


def test_inverse_ma_output_ignores_later_inputs():
    """Changing inputs from some day on leaves every earlier output's bits
    alone, across block boundaries too."""
    rng = np.random.default_rng(31)
    filt = arima._InverseMA(np.array([0.6, -0.2, 0.1]))
    x = rng.normal(0.0, 1.0, 500)
    base = filt(x)
    for cut in (1, 63, 64, 65, 300, 499):
        changed = x.copy()
        changed[cut:] = rng.normal(0.0, 1e3, 500 - cut)
        np.testing.assert_array_equal(filt(changed)[:cut], base[:cut])


def test_yule_walker_by_durbin_levinson_matches_solve_toeplitz():
    """The long autoregression of the Hannan-Rissanen start, at the order it
    uses, against scipy's Toeplitz solver: normwise relative gap 1e-12."""
    for seed, (phi, theta) in enumerate((([0.5], [0.4]), ([0.5, -0.3], [0.4, 0.2]),
                                         ([], [0.9]), ([0.95], []))):
        w = simulate_arma(phi, theta, 0.3, 900, seed=40 + seed)
        n = w.size
        m = int(min(n // 4, max(2 * (len(phi) + len(theta)), np.log(n) ** 2)))
        x = w - w.mean()
        acov = np.array([x[:n - k] @ x[k:] for k in range(m + 1)])
        expected = solve_toeplitz(acov[:m], acov[1:])
        got = _durbin_levinson((acov / acov[0])[1:m + 1])[1]
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _lstsq_as_qr(design, y):
    """The regression the Hannan-Rissanen start solved before it went
    through `solver._householder`: numpy's SVD least squares, whose rank
    cutoff is relative to the largest singular value.  Returned in
    `_householder`'s form, every column kept with ``R`` the identity, so
    the start's own code solves it."""
    k = design.shape[1]
    return list(range(k)), np.eye(k), np.linalg.lstsq(design, y, rcond=None)[0]


def test_hannan_rissanen_start_matches_lstsq_on_fixture(monkeypatch):
    """On full-rank designs QR and SVD give the one least-squares solution:
    on every grid cell of the bundled fixture's three training series the
    starts agree within 1e-10 in the search coordinates (2.8e-12 seen)."""
    cells = [(p, q) for p in range(4) for q in range(4) if p + q <= arima.MAX_ORDER]
    series = [difference(train, d).values
              for train, d in _fixture_training(synthetic.FIXTURE_SEED).values()]
    got = [arima._hannan_rissanen(w, p, q) for w in series for p, q in cells]
    monkeypatch.setattr(arima, "_householder", _lstsq_as_qr)
    want = [arima._hannan_rissanen(w, p, q) for w in series for p, q in cells]
    assert len(got) == 3 * 15
    for g, x in zip(got, want):
        np.testing.assert_allclose(g, x, rtol=0.0, atol=1e-10)


def test_hannan_rissanen_start_rejects_a_dependent_lag():
    """w_t = 3 + 2 r^t follows w_t = 3 (1 - r) + r w_{t-1} exactly, so its
    second lag is a combination of the intercept and the first.  QR rejects
    that lag and its start coefficient is 0, where SVD least squares split
    the lag between the two columns.  For |r| < 1 `fit` returns the exact
    AR(1).  At r = -1 the first lag's coefficient is a unit root, so the AR
    block starts at zero, and `fit` raises `FitError`: no stationary AR(2)
    reproduces the alternation."""
    t = np.arange(60.0)
    for r in (0.5, 0.9, -1.0):
        w = 3.0 + 2.0 * r ** t
        x0 = arima._hannan_rissanen(w, 2, 0)
        assert np.all(np.isfinite(x0)) and x0[1] == 0.0
        if r == -1.0:
            assert x0[0] == 0.0
            with pytest.raises(FitError, match="unit circle"):
                fit(Series(w), ArimaSpec(2, 0, 0))
            continue
        assert x0[0] == pytest.approx(np.arctanh(r), abs=1e-12)
        fitted = fit(Series(w), ArimaSpec(2, 0, 0))
        np.testing.assert_allclose(fitted.phi, [r, 0.0], rtol=0.0, atol=1e-9)
        assert fitted.mu / (1.0 - fitted.phi.sum()) == pytest.approx(3.0)
