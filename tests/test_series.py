import numpy as np
import pytest
from scipy.stats import chi2

from chaincast.series import (
    CONFIDENCE_Z,
    Series,
    _chi2_sf,
    _durbin_levinson,
    acf,
    difference,
    integrate,
    ljung_box,
    pacf,
    suggest_d,
)
from chaincast.synthetic import simulate_arma


def test_difference_first_order():
    out = difference(Series([5.0, 7.0, 4.0, 9.0]), 1)
    np.testing.assert_array_equal(out.values, [2.0, -3.0, 5.0])
    assert out.diff_level == 1


def test_difference_zero_is_identity():
    s = Series([1.0, 4.0, 2.0], name="x")
    out = difference(s, 0)
    np.testing.assert_array_equal(out.values, s.values)
    assert out.diff_level == 0


def test_difference_too_short():
    with pytest.raises(ValueError):
        difference(Series([1.0, 2.0]), 2)


def test_difference_level_accumulates():
    s = Series(np.arange(10.0))
    assert difference(difference(s, 1), 1).diff_level == 2


def test_integrate_inverts_example():
    diffed = Series([2.0, -3.0, 5.0], diff_level=1)
    np.testing.assert_array_equal(integrate(diffed, [5.0]), [7.0, 4.0, 9.0])


def test_integrate_empty_diffs():
    # Series refuses empty values; integrate accepts a bare sequence
    assert integrate(np.array([]), [3.0]).size == 0


def test_integrate_anchor_mismatch():
    diffed = Series([1.0, 2.0], diff_level=1)
    with pytest.raises(ValueError):
        integrate(diffed, [1.0, 2.0])


@pytest.mark.parametrize("d", [1, 2])
def test_round_trip_exact(d):
    rng = np.random.default_rng(42)
    for _ in range(10):
        s = Series(np.cumsum(rng.normal(0, 1, 80)) + 100.0)
        diffed = difference(s, d)
        rebuilt = integrate(diffed, s.values[:d])
        np.testing.assert_array_equal(rebuilt, s.values[d:])


def test_acf_hand_value():
    r = acf(Series([1.0, 2.0, 3.0, 4.0, 5.0]), 1)
    assert r.coefficients[0] == pytest.approx(0.4, abs=1e-12)
    assert r.lags[0] == 1
    assert r.band == pytest.approx(CONFIDENCE_Z / np.sqrt(5))


def test_acf_white_noise_inside_band():
    rng = np.random.default_rng(3)
    s = Series(rng.normal(0, 1, 5000))
    r = acf(s, 20)
    assert np.all(np.abs(r.coefficients) < 3 / np.sqrt(5000))


def test_acf_constant_series_rejected():
    with pytest.raises(ValueError):
        acf(Series(np.ones(50)), 3)


def test_acf_max_lag_too_large():
    with pytest.raises(ValueError):
        acf(Series([1.0, 2.0, 3.0]), 3)


def test_acf_affine_invariance():
    rng = np.random.default_rng(9)
    base = rng.normal(0, 1, 400)
    a = acf(Series(base), 10).coefficients
    b = acf(Series(3.5 * base + 120.0), 10).coefficients
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pacf_lag1_equals_acf_lag1():
    s = Series([1.0, 2.0, 3.0, 4.0, 5.0])
    assert pacf(s, 1).coefficients[0] == pytest.approx(acf(s, 1).coefficients[0])


def test_pacf_ar1_signature():
    from chaincast.synthetic import simulate_arma
    s = Series(simulate_arma([0.5], [], 0.0, 5000, seed=11))
    r = pacf(s, 10)
    assert r.coefficients[0] == pytest.approx(0.5, abs=0.05)
    assert np.all(np.abs(r.coefficients[1:]) < 3 / np.sqrt(5000))


def test_correlogram_significant_flags():
    s = Series(np.cumsum(np.random.default_rng(0).normal(0, 1, 300)))
    r = acf(s, 5)
    np.testing.assert_array_equal(r.significant(),
                                  np.abs(r.coefficients) > r.band)


def test_suggest_d_random_walk():
    rng = np.random.default_rng(5)
    s = Series(np.cumsum(rng.normal(0, 1, 1000)))
    assert suggest_d(s) == 1


def test_suggest_d_white_noise():
    rng = np.random.default_rng(6)
    assert suggest_d(Series(rng.normal(0, 1, 1000))) == 0


def test_suggest_d_linear_ramp():
    assert suggest_d(Series(np.arange(1.0, 101.0))) == 1


def test_suggest_d_needs_length():
    with pytest.raises(ValueError):
        suggest_d(Series(np.arange(10.0)))


def test_ljung_box_white_noise_passes():
    rng = np.random.default_rng(7)
    rep = ljung_box(Series(rng.normal(0, 1, 2000)), 20)
    assert rep.is_white
    assert rep.dof == 20
    assert rep.statistic >= 0


def test_ljung_box_ar1_fails():
    from chaincast.synthetic import simulate_arma
    rep = ljung_box(Series(simulate_arma([0.8], [], 0.0, 2000, seed=8)), 20)
    assert not rep.is_white


def test_ljung_box_dof_error():
    with pytest.raises(ValueError):
        ljung_box(Series(np.random.default_rng(0).normal(0, 1, 100)), 5,
                  fitted_params=5)


def test_ljung_box_monotone_in_lags():
    rng = np.random.default_rng(12)
    s = Series(rng.normal(0, 1, 500))
    stats = [ljung_box(s, lags).statistic for lags in (5, 10, 15, 20)]
    assert all(b >= a for a, b in zip(stats, stats[1:]))


def test_series_validation():
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(ValueError):
        Series([1.0, np.nan])
    with pytest.raises(ValueError):
        Series([1.0], diff_level=3)


def test_chi2_tail_matches_scipy():
    """The closed-form tail against scipy.stats.chi2.sf: relative 1e-13 for
    dof 1-40 and statistics 1e-3 to 200 wherever the tail exceeds 1e-300;
    where exp(-x/2) underflows and the terms are taken in logs, 1e-10."""
    for dof in range(1, 41):
        for x in np.geomspace(1e-3, 200.0, 120):
            expected = chi2.sf(x, dof)
            if expected > 1e-300:
                assert _chi2_sf(float(x), dof) == pytest.approx(expected, rel=1e-13, abs=0.0)
    for dof in (1401, 2000, 3000):
        for x in np.linspace(1400.0, 3500.0, 30):
            expected = chi2.sf(x, dof)
            if expected > 1e-300:
                assert _chi2_sf(float(x), dof) == pytest.approx(expected, rel=1e-10, abs=0.0)
    assert _chi2_sf(0.0, 3) == 1.0


def _durbin_levinson_from_lag0(rho, max_lag):
    """The recursion as it was written when its callers prepended the lag-0
    one and passed the order, with lag 1 as its own branch; kept as the
    oracle for `_durbin_levinson`."""
    pacf = np.empty(max_lag)
    phi_prev = np.empty(0)
    for k in range(1, max_lag + 1):
        if k == 1:
            a = rho[1]
        else:
            num = rho[k] - np.dot(phi_prev, rho[k - 1:0:-1])
            den = 1.0 - np.dot(phi_prev, rho[1:k])
            if abs(den) < 1e-14:
                raise ValueError(
                    "partial autocorrelation recursion degenerate "
                    f"at lag {k} (perfectly predictable series)"
                )
            a = num / den
        phi_cur = np.empty(k)
        if k > 1:
            phi_cur[: k - 1] = phi_prev - a * phi_prev[::-1]
        phi_cur[k - 1] = a
        pacf[k - 1] = a
        phi_prev = phi_cur
    return pacf, phi_prev


def test_durbin_levinson_matches_the_lag0_recursion_bit_for_bit():
    rng = np.random.default_rng(27)
    for seed in range(40):
        phi = rng.uniform(-0.45, 0.45, rng.integers(0, 3))
        theta = rng.uniform(-0.8, 0.8, rng.integers(0, 3))
        w = simulate_arma(phi, theta, 0.2, int(rng.integers(60, 900)), seed=seed)
        m = int(rng.integers(1, 40))
        coefficients = acf(Series(w), m).coefficients
        got = _durbin_levinson(coefficients)
        want = _durbin_levinson_from_lag0(np.concatenate([[1.0], coefficients]), m)
        for g, x in zip(got, want):
            assert g.shape == x.shape and g.tobytes() == x.tobytes(), seed


# a constant, an alternating and a sampled sinusoid, whose order-2 recursion
# predicts it exactly
@pytest.mark.parametrize("coefficients", [[1.0, 1.0], [-1.0, 1.0, -1.0],
                                          np.cos(0.3 * np.arange(1, 6)).tolist()])
def test_durbin_levinson_degenerate_lag_message_is_unchanged(coefficients):
    with pytest.raises(ValueError) as want:
        _durbin_levinson_from_lag0(np.concatenate([[1.0], coefficients]), len(coefficients))
    with pytest.raises(ValueError, match="degenerate at lag") as got:
        _durbin_levinson(np.array(coefficients))
    assert str(got.value) == str(want.value)
