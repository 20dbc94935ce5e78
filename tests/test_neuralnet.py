import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincast import neuralnet, pipeline, solver
from chaincast.metrics import accuracy, mape
from chaincast.neuralnet import (
    MlpModel,
    Scaler,
    TrainConfig,
    fit_scaler,
    gradient_check,
    model_from_json,
    model_to_json,
    predict_prices,
    sweep,
    train,
)
from chaincast.regression import FeatureMatrix

from conftest import weekdays


def matrix(cols, y):
    names = tuple(cols)
    n = len(y)
    days = weekdays(n + 1)
    return FeatureMatrix(
        dates=tuple(days[:n]),
        target_dates=tuple(days[1:]),
        columns=names,
        x=np.column_stack([np.asarray(cols[c], float) for c in names]),
        y=np.asarray(y, float),
    )


def linear_matrix(n=120, seed=0, noise=0.0):
    """Positive target that is an affine function of two inputs."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 10, n)
    b = rng.uniform(0, 5, n)
    y = 100.0 + 3.0 * a + 2.0 * b + rng.normal(0, noise, n)
    return matrix({"x1": a, "x2": b}, y)


def kinked_matrix(n=200, seed=1):
    """Target with an absolute-value fold a single unit cannot represent."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, n)
    y = 50.0 + 10.0 * np.abs(a) + rng.normal(0, 0.05, n)
    return matrix({"x1": a}, y)


# --- scaling --------------------------------------------------------------


def test_scaler_maps_to_unit_interval():
    m = matrix({"x1": [10.0, 20.0, 30.0]}, [10.0, 20.0, 30.0])
    scaler = fit_scaler(m)
    np.testing.assert_allclose(scaler.apply_x(m.x)[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(scaler.apply_y(m.y), [0.0, 0.5, 1.0])


def test_scaler_round_trip_identity():
    rng = np.random.default_rng(2)
    m = matrix({"x1": rng.uniform(5, 9, 40)}, rng.uniform(100, 200, 40))
    scaler = fit_scaler(m)
    back = scaler.invert_y(scaler.apply_y(m.y))
    np.testing.assert_allclose(back, m.y, atol=1e-12)


def test_scaler_constant_column_named():
    m = matrix({"x1": np.full(20, 4.0), "x2": np.arange(20.0)},
               np.arange(1.0, 21.0))
    with pytest.raises(ValueError, match="x1"):
        fit_scaler(m)


def test_scaler_constant_target_rejected():
    m = matrix({"x1": np.arange(20.0)}, np.full(20, 9.0))
    with pytest.raises(ValueError, match="target"):
        fit_scaler(m)


# --- forward pass ---------------------------------------------------------


def unit_model(w=1.0, b_h=0.0, w_o=1.0, b_o=0.0):
    # the identity scaler, so prices equal the network's raw outputs
    scaler = Scaler(np.array([0.0]), np.array([1.0]), 0.0, 1.0)
    return MlpModel(
        columns=("x1",),
        w_hidden=np.array([[w]]),
        b_hidden=np.array([b_h]),
        w_out=np.array([w_o]),
        b_out=b_o,
        scaler=scaler,
    )


def unit_outputs(model, xs):
    return predict_prices(model, matrix({"x1": xs}, np.zeros(len(xs)))).tolist()


def test_forward_zero_weights_outputs_bias():
    model = unit_model(w=0.0, w_o=0.0, b_o=0.25)
    assert unit_outputs(model, [3.0]) == [0.25]


def test_forward_single_unit_rectifies():
    model = unit_model()
    assert unit_outputs(model, [-1.0, 2.0]) == [0.0, 2.0]


def test_predict_prices_rejects_permuted_schema():
    m = linear_matrix()
    model, _ = train(m, hidden=2, config=TrainConfig(epochs=5))
    swapped = m.with_columns(("x2", "x1"))
    with pytest.raises(ValueError, match="schema"):
        predict_prices(model, swapped)


# --- training -------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=0.5)


@pytest.mark.parametrize("field, value", [("learning_rate", math.nan),
                                          ("learning_rate", math.inf)])
def test_train_config_rejects_rate_or_seed_training_cannot_use(field, value):
    with pytest.raises(ValueError, match=f"got {value}$"):
        TrainConfig(**{field: value})


def test_train_input_validation():
    m = linear_matrix()
    with pytest.raises(ValueError):
        train(m, hidden=0)
    small = matrix({"x1": np.arange(20.0)}, np.arange(1.0, 21.0))
    with pytest.raises(ValueError, match="30"):
        train(small, hidden=2)


def test_train_is_bitwise_deterministic():
    m = linear_matrix(noise=0.1)
    config = TrainConfig(epochs=40)
    model_a, report_a = train(m, hidden=3, config=config, seed=5)
    model_b, report_b = train(m, hidden=3, config=config, seed=5)
    np.testing.assert_array_equal(model_a.w_hidden, model_b.w_hidden)
    np.testing.assert_array_equal(model_a.b_hidden, model_b.b_hidden)
    np.testing.assert_array_equal(model_a.w_out, model_b.w_out)
    assert model_a.b_out == model_b.b_out
    assert report_a == report_b


def test_train_learns_linear_target():
    m = linear_matrix(noise=0.0)
    _, report = train(m, hidden=4,
                      config=TrainConfig(epochs=400, learning_rate=0.1))
    assert report.train_mape < 1.0
    assert report.validation_mape < 2.0


def test_train_loss_decreases_over_run():
    m = linear_matrix(noise=0.1)
    data = neuralnet._split(m, 0.15)
    rng = np.random.default_rng(0)
    w_hidden, w_out = neuralnet._init_params(2, 4, rng)
    start = neuralnet._fold(w_hidden, np.zeros(4), w_out, 0.0)
    e, _ = neuralnet._residuals(data.x1, data.ys, 4)(start)
    # each start's sum of squares never rises from one iteration to the next
    losses = [train(m, 4, TrainConfig(epochs=n))[1].train_sse for n in (1, 5, 200)]
    assert float(e @ e) >= losses[0] >= losses[1] > losses[2]


def test_train_report_bookkeeping():
    m = linear_matrix(noise=0.1)
    model, report = train(m, hidden=2, config=TrainConfig(epochs=30), seed=9)
    assert model.hidden_size == 2
    assert report.seed == 9
    assert 1 <= report.epochs_run <= 30
    # early_stopped means the kept start converged before the cap
    assert report.early_stopped == (report.epochs_run < 30)
    _, capped = train(m, hidden=2, config=TrainConfig(epochs=2), seed=9)
    assert (capped.epochs_run, capped.early_stopped) == (2, False)


def test_train_zero_validation_fraction_gives_nan():
    m = linear_matrix()
    _, report = train(m, hidden=2,
                      config=TrainConfig(epochs=10, validation_fraction=0.0))
    assert np.isnan(report.validation_mape)


def test_train_keeps_the_lowest_sse_start():
    """`TRAIN_STARTS` starts drawn in turn from one generator; the kept one
    has the lowest training sum of squares, so it is never worse than the
    one-start fit (today's first draw)."""
    m = kinked_matrix()
    config = TrainConfig(epochs=100)
    data = neuralnet._split(m, config.validation_fraction)
    rng = np.random.default_rng(4)
    starts = [neuralnet._fit(data, 3, rng, config) for _ in range(neuralnet.TRAIN_STARTS)]
    assert neuralnet.TRAIN_STARTS == 3
    best = min(range(3), key=lambda i: starts[i].fun)
    model, report = train(m, 3, config, seed=4)
    w1, w_out, b_out = neuralnet._unfold(starts[best].x, 3, 2)
    np.testing.assert_array_equal(model.w_hidden, w1[:, :-1])
    np.testing.assert_array_equal(model.b_hidden, w1[:, -1])
    np.testing.assert_array_equal(model.w_out, w_out)
    assert model.b_out == b_out
    assert report.train_sse == starts[best].fun == min(s.fun for s in starts)
    assert report.epochs_run == starts[best].nit
    # the starts differ, so the choice is not vacuous
    assert len({s.fun for s in starts}) == 3


def test_learning_rate_is_the_initial_damping(monkeypatch):
    """The first proposed step solves (J'J + mu_0 diag(J'J)) s = -J'e, with
    mu_0 the learning rate, so a larger rate starts with a shorter step."""
    m = linear_matrix(noise=0.1)
    seen = []
    residuals = neuralnet._residuals

    def recording(x1, ys, hidden):
        inner = residuals(x1, ys, hidden)

        def wrapped(theta):
            seen.append(theta.copy())
            return inner(theta)

        return wrapped

    monkeypatch.setattr(neuralnet, "_residuals", recording)
    monkeypatch.setattr(neuralnet, "TRAIN_STARTS", 1)
    first_steps = {}
    for rate in (1e-3, 10.0):
        seen.clear()
        train(m, 3, TrainConfig(epochs=1, learning_rate=rate))
        start, proposed = seen[0], seen[1]
        data = neuralnet._split(m, 0.15)
        e, jacobian = residuals(data.x1, data.ys, 3)(start)
        jac = jacobian()
        curvature = jac.T @ jac
        # `minimize` floors the scale of a dead unit's zero columns
        scale = np.maximum(np.diag(curvature), 1e-12 * np.diag(curvature).max())
        expected = np.linalg.solve(curvature + rate * np.diag(scale), -jac.T @ e)
        np.testing.assert_allclose(proposed - start, expected, rtol=1e-9, atol=1e-12)
        first_steps[rate] = proposed - start
    assert np.linalg.norm(first_steps[10.0]) < 0.5 * np.linalg.norm(first_steps[1e-3])


def test_lm_never_raises_the_training_loss():
    """Every accepted iterate lowers or keeps the sum of squares, so no
    damping, however small, makes training diverge."""
    m = linear_matrix(noise=0.1)
    data = neuralnet._split(m, 0.15)
    losses = []
    residuals = neuralnet._residuals(data.x1, data.ys, 4)

    def recording(theta):
        e, jacobian = residuals(theta)
        losses.append(float(e @ e))
        return e, jacobian

    rng = np.random.default_rng(1)
    w_hidden, w_out = neuralnet._init_params(2, 4, rng)
    result = solver.minimize(recording, neuralnet._fold(w_hidden, np.zeros(4), w_out, 0.0),
                             200, 1e-8, 1e-9, 1e-12)
    accepted = [losses[0]]
    for loss in losses[1:]:
        if loss <= accepted[-1]:
            accepted.append(loss)
    assert result.fun == accepted[-1] <= losses[0]
    assert np.isfinite(result.x).all()


# --- the residual function the solver runs ---------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_jacobian_matches_central_differences_of_residuals(seed):
    """At random weights, with some units dead on every row and others
    active on part of the rows, each Jacobian column equals the central
    difference of the residual vector."""
    m = _random_matrix(60, 3, seed)
    scaler = fit_scaler(m)
    x1 = neuralnet._with_ones(scaler.apply_x(m.x))
    ys = scaler.apply_y(m.y)
    hidden = 5
    rng = np.random.default_rng(100 + seed)
    w1 = rng.normal(0.0, 1.0, (hidden, 4))
    w1[0, -1] = -10.0  # unit 0 is dead on every row: inputs are in [0, 1]
    w1[0, :-1] = rng.uniform(-1.0, 1.0, 3)
    theta = neuralnet._fold(w1[:, :-1], w1[:, -1], rng.normal(0.0, 1.0, hidden),
                            rng.normal())
    e, jacobian = neuralnet._residuals(x1, ys, hidden)(theta)
    jac = jacobian()
    z = x1 @ w1.T
    assert (z[:, 0] < 0).all()
    assert ((z > 0).any(axis=0) & (z <= 0).any(axis=0))[1:].any()
    assert jac.shape == (len(ys), hidden * 4 + hidden + 1)
    # a dead unit's columns are zero
    dead = np.r_[0:4, hidden * 4]
    assert not jac[:, dead].any()
    residuals = neuralnet._residuals(x1, ys, hidden)
    step = 1e-6
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += step
        down[j] -= step
        numeric = (residuals(up)[0] - residuals(down)[0]) / (2 * step)
        np.testing.assert_allclose(jac[:, j], numeric, rtol=1e-6, atol=1e-7,
                                   err_msg=f"column {j}")
    np.testing.assert_array_equal(e, predict_prices(
        MlpModel(m.columns, w1[:, :-1], w1[:, -1], theta[hidden * 4:-1], theta[-1],
                 Scaler(scaler.x_min, scaler.x_max, 0.0, 1.0)), m) - ys)


# --- sweep ----------------------------------------------------------------


def test_sweep_covers_every_size_and_picks_best():
    m = linear_matrix(noise=0.1)
    config = TrainConfig(epochs=60, learning_rate=0.05)
    result = sweep(m, config, max_hidden=4, seed=3)
    assert set(result.reports) == {1, 2, 3, 4}
    assert result.model.hidden_size == result.chosen
    best = min(result.reports,
               key=lambda h: (result.reports[h].validation_mape, h))
    assert result.chosen == best
    # each size trains under its own derived seed
    for h, report in result.reports.items():
        assert report.seed == 3 + h


def test_sweep_rejects_zero_validation():
    m = linear_matrix()
    with pytest.raises(ValueError):
        sweep(m, TrainConfig(epochs=5, validation_fraction=0.0), max_hidden=2)


def _random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, (rows, cols))
    y = 50.0 + x @ rng.uniform(-2.0, 2.0, cols) + rng.normal(0.0, 0.5, rows)
    return matrix({f"x{j + 1}": x[:, j] for j in range(cols)}, y)


@st.composite
def sweep_cases(draw):
    rows = draw(st.integers(30, 80))
    m = _random_matrix(rows, draw(st.integers(1, 4)), draw(st.integers(0, 2**16)))
    config = TrainConfig(epochs=draw(st.integers(1, 60)),
                         learning_rate=draw(st.sampled_from([1e-3, 0.01, 1.0, 100.0])))
    return m, config, draw(st.integers(0, 100)), draw(st.integers(1, 4))


@settings(max_examples=25, deadline=None, database=None)
@given(sweep_cases())
def test_sweep_entries_equal_train_alone(case):
    """Sweep entry h is, bit for bit, `train` of that size alone from one
    start at seed ``seed + h``."""
    m, config, seed, max_hidden = case
    result = sweep(m, config, max_hidden=max_hidden, seed=seed)
    assert set(result.reports) == set(range(1, max_hidden + 1))
    with mock.patch.object(neuralnet, "TRAIN_STARTS", 1):
        for h in range(1, max_hidden + 1):
            model, report = train(m, h, config, seed=seed + h)
            assert result.reports[h] == report
            if h == result.chosen:
                for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
                    np.testing.assert_array_equal(getattr(result.model, name),
                                                  getattr(model, name))


def test_sweep_follows_the_values_not_their_memory_order(demo_bundle):
    """The bundled training rows on the backward-selected columns, copied in
    C and in Fortran order, train the same networks to the last bit."""
    config = demo_bundle["config"]
    train_m, _ = pipeline.feature_windows(config)
    m = train_m.with_columns(demo_bundle["report"].body["stepwise"]["backward"]["included"])
    c, f = (replace(m, x=order(m.x)) for order in (np.ascontiguousarray, np.asfortranarray))
    assert sweep(c, max_hidden=3, seed=config.seed).reports \
        == sweep(f, max_hidden=3, seed=config.seed).reports


# --- verification and persistence ------------------------------------------


def test_gradient_check_tiny():
    m = linear_matrix(n=60, seed=7, noise=0.2)
    assert gradient_check(m, hidden=3, seed=0) < 1e-6


def test_gradient_check_checks_the_training_step(monkeypatch):
    """`gradient_check` and training run the same residual function, so a
    Jacobian that is off by a factor of two fails the check."""
    m = linear_matrix(n=60, seed=7, noise=0.2)
    calls = []
    residuals = neuralnet._residuals

    def counted(x1, ys, hidden):
        calls.append(x1.shape)
        return residuals(x1, ys, hidden)

    monkeypatch.setattr(neuralnet, "_residuals", counted)
    assert gradient_check(m, hidden=3) < 1e-6 and calls == [(16, 3)]
    train(m, 3, TrainConfig(epochs=1))
    assert calls[1:] == [(51, 3)] * neuralnet.TRAIN_STARTS

    def doubled(x1, ys, hidden):
        inner = residuals(x1, ys, hidden)

        def wrapped(theta):
            e, jacobian = inner(theta)
            return e, lambda: 2.0 * jacobian()

        return wrapped

    monkeypatch.setattr(neuralnet, "_residuals", doubled)
    assert gradient_check(m, hidden=3) > 0.4


def test_evaluate_returns_price_space_mape():
    m = linear_matrix()
    model, _ = train(m, hidden=3,
                     config=TrainConfig(epochs=100, learning_rate=0.1))
    test = linear_matrix(seed=42)
    preds = predict_prices(model, test)
    assert preds.shape == test.y.shape
    # scaled outputs would sit near [-1, 1], about 100% off targets above 100
    assert accuracy(test.y, preds) > 90.0
    assert accuracy(test.y, preds) == 100.0 - mape(test.y, preds)


def test_model_json_round_trip_bit_exact():
    m = linear_matrix()
    model, _ = train(m, hidden=3, config=TrainConfig(epochs=20))
    clone = model_from_json(model_to_json(model))
    assert clone.columns == model.columns
    np.testing.assert_array_equal(clone.w_hidden, model.w_hidden)
    np.testing.assert_array_equal(clone.w_out, model.w_out)
    np.testing.assert_array_equal(
        predict_prices(clone, m), predict_prices(model, m))


def test_model_json_is_valid_json_with_schema():
    import json
    m = linear_matrix()
    model, _ = train(m, hidden=2, config=TrainConfig(epochs=5))
    payload = json.loads(model_to_json(model))
    assert set(payload) == {"columns", "w_hidden", "b_hidden",
                            "w_out", "b_out", "scaler"}


def test_model_json_is_strict_and_ends_in_one_newline():
    model, _ = train(linear_matrix(), hidden=2, config=TrainConfig(epochs=5))
    text = model_to_json(model)
    assert text.endswith("}\n")
    w_hidden = model.w_hidden.copy()
    w_hidden[0, 0] = math.nan
    with pytest.raises(ValueError, match="JSON"):
        model_to_json(replace(model, w_hidden=w_hidden))
