import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaincast import pipeline
from chaincast.errors import DivergenceError, FitError
from chaincast.metrics import mape
from chaincast.neuralnet import (
    MlpModel,
    Scaler,
    TrainConfig,
    TrainReport,
    evaluate,
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


def test_train_input_validation():
    m = linear_matrix()
    with pytest.raises(ValueError):
        train(m, hidden=0)
    small = matrix({"x1": np.arange(20.0)}, np.arange(1.0, 21.0))
    with pytest.raises(ValueError, match="30"):
        train(small, hidden=2)


def test_train_is_bitwise_deterministic():
    m = linear_matrix()
    config = TrainConfig(epochs=40, seed=5)
    model_a, report_a = train(m, hidden=3, config=config)
    model_b, report_b = train(m, hidden=3, config=config)
    np.testing.assert_array_equal(model_a.w_hidden, model_b.w_hidden)
    np.testing.assert_array_equal(model_a.w_out, model_b.w_out)
    np.testing.assert_array_equal(report_a.epoch_mse, report_b.epoch_mse)
    assert report_a.train_mape == report_b.train_mape


def test_train_learns_linear_target():
    m = linear_matrix(noise=0.0)
    _, report = train(m, hidden=4,
                      config=TrainConfig(epochs=400, learning_rate=0.1))
    assert report.train_mape < 1.0
    assert report.validation_mape < 2.0


def test_train_loss_decreases_over_run():
    m = linear_matrix(noise=0.1)
    _, report = train(m, hidden=4,
                      config=TrainConfig(epochs=200, learning_rate=0.05))
    mse = report.epoch_mse
    assert np.mean(mse[-10:]) < np.mean(mse[:10])


def test_train_divergence_reports_epoch():
    m = linear_matrix()
    with pytest.raises(DivergenceError) as exc:
        train(m, hidden=4, config=TrainConfig(learning_rate=1e3))
    assert exc.value.epoch >= 0
    assert "epoch" in str(exc.value)


def test_train_report_bookkeeping():
    m = linear_matrix()
    config = TrainConfig(epochs=30, seed=9)
    _, report = train(m, hidden=2, config=config)
    assert report.hidden_size == 2
    assert report.seed == 9
    assert report.epochs_run == len(report.epoch_mse) == 30
    assert not report.early_stopped


def test_train_zero_validation_fraction_gives_nan():
    m = linear_matrix()
    _, report = train(m, hidden=2,
                      config=TrainConfig(epochs=10, validation_fraction=0.0))
    assert np.isnan(report.validation_mape)


# --- sweep ----------------------------------------------------------------


def test_sweep_covers_every_size_and_picks_best():
    m = linear_matrix()
    config = TrainConfig(epochs=60, learning_rate=0.05, seed=3)
    result = sweep(m, config, max_hidden=4)
    assert set(result.reports) | set(result.failures) == {1, 2, 3, 4}
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


def test_sweep_records_divergent_sizes_as_failures():
    m = linear_matrix()
    config = TrainConfig(epochs=10, learning_rate=200.0, seed=0)
    try:
        result = sweep(m, config, max_hidden=2)
    except Exception as exc:
        assert "diverged" in str(exc)
    else:
        assert set(result.reports) | set(result.failures) == {1, 2}


# --- verification and persistence ------------------------------------------


def test_gradient_check_tiny():
    m = linear_matrix(n=60, seed=7, noise=0.2)
    assert gradient_check(m, hidden=3, seed=0) < 1e-6


def test_evaluate_returns_price_space_mape():
    m = linear_matrix()
    model, _ = train(m, hidden=3,
                     config=TrainConfig(epochs=100, learning_rate=0.1))
    test = linear_matrix(seed=42)
    err, preds = evaluate(model, test)
    from chaincast.metrics import mape
    assert err == mape(test.y, preds)
    assert preds.shape == test.y.shape


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


# --- equivalence with the one-size-at-a-time loop ---------------------------
#
# `_reference_train` is the training loop as it stood before `train` and
# `sweep` became the one lockstep kernel, kept verbatim (with its helpers) as
# the oracle.  A lone `train` does the same arithmetic in the same order; a
# sweep pads smaller sizes with zero units, which can change summation
# order, so both are held to a relative tolerance of 1e-9.


def _reference_init_params(inputs, hidden, rng):
    bound_h = math.sqrt(6.0 / (inputs + hidden))
    bound_o = math.sqrt(6.0 / (hidden + 1))
    w_hidden = rng.uniform(-bound_h, bound_h, (hidden, inputs))
    w_out = rng.uniform(-bound_o, bound_o, hidden)
    return w_hidden, np.zeros(hidden), w_out, 0.0


def _reference_forward_batch(x, w_hidden, b_hidden, w_out, b_out):
    z = x @ w_hidden.T + b_hidden
    a = np.maximum(z, 0.0)
    return z, a, a @ w_out + b_out


def _reference_gradients(x, y, w_hidden, b_hidden, w_out, b_out):
    """Analytic MSE gradients for one batch.  Returns (loss, grads)."""
    z, a, pred = _reference_forward_batch(x, w_hidden, b_hidden, w_out, b_out)
    err = pred - y
    loss = float(np.mean(err**2))
    d_pred = 2.0 * err / err.size
    g_w_out = a.T @ d_pred
    g_b_out = float(np.sum(d_pred))
    d_a = np.outer(d_pred, w_out)
    d_z = d_a * (z > 0.0)
    g_w_hidden = d_z.T @ x
    g_b_hidden = d_z.sum(axis=0)
    return loss, (g_w_hidden, g_b_hidden, g_w_out, g_b_out)


def _reference_train(m, hidden, config):
    if hidden < 1:
        raise ValueError(f"hidden size must be positive, got {hidden}")
    if len(m) < 30:
        raise ValueError(f"need at least 30 rows to train, got {len(m)}")

    n_val = int(round(len(m) * config.validation_fraction))
    n_fit = len(m) - n_val
    if n_fit < 10:
        raise ValueError("validation split leaves too few training rows")
    fit_rows = FeatureMatrix(m.dates[:n_fit], m.target_dates[:n_fit],
                             m.columns, m.x[:n_fit], m.y[:n_fit])
    scaler = fit_scaler(fit_rows)
    xs = scaler.apply_x(fit_rows.x)
    ys = scaler.apply_y(fit_rows.y)

    rng = np.random.default_rng(config.seed)
    w_hidden, b_hidden, w_out, b_out = _reference_init_params(xs.shape[1], hidden, rng)

    lr = config.learning_rate
    best = np.inf
    stale = 0
    halvings = 0
    epoch_mse = []
    early_stopped = False
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n_fit)
            for lo in range(0, n_fit, config.batch_size):
                batch = order[lo:lo + config.batch_size]
                _, grads = _reference_gradients(xs[batch], ys[batch],
                                                w_hidden, b_hidden, w_out, b_out)
                w_hidden -= lr * grads[0]
                b_hidden -= lr * grads[1]
                w_out -= lr * grads[2]
                b_out -= lr * grads[3]
            _, _, pred = _reference_forward_batch(xs, w_hidden, b_hidden, w_out, b_out)
            mse = float(np.mean((pred - ys)**2))
            epoch_mse.append(mse)
            if not (np.isfinite(mse) and np.all(np.isfinite(w_hidden))
                    and np.all(np.isfinite(w_out))):
                raise DivergenceError(
                    f"training diverged at epoch {epoch} (hidden={hidden}, "
                    f"seed={config.seed})", epoch=epoch,
                )
            if mse < best - 1e-12:
                best = mse
                stale = 0
            else:
                stale += 1
                if stale >= config.plateau_patience:
                    lr *= 0.5
                    halvings += 1
                    stale = 0
                    if halvings > 6:
                        early_stopped = True
                        break

    model = MlpModel(m.columns, w_hidden, b_hidden, w_out, float(b_out), scaler)
    train_pred = scaler.invert_y(
        _reference_forward_batch(xs, w_hidden, b_hidden, w_out, b_out)[2])
    train_mape = mape(fit_rows.y, train_pred)
    if n_val:
        # `predict_prices` as it was, inlined so the oracle shares no forward pass
        val_pred = scaler.invert_y(_reference_forward_batch(
            scaler.apply_x(m.x[n_fit:]), w_hidden, b_hidden, w_out, b_out)[2])
        val_mape = mape(m.y[n_fit:], val_pred)
    else:
        val_mape = math.nan
    report = TrainReport(
        epoch_mse=np.array(epoch_mse), train_mape=train_mape,
        validation_mape=val_mape, epochs_run=len(epoch_mse),
        seed=config.seed, hidden_size=hidden, early_stopped=early_stopped,
    )
    return model, report


def assert_same_report(report, ref, rtol=1e-9):
    assert (report.epochs_run, report.early_stopped, report.seed, report.hidden_size) \
        == (ref.epochs_run, ref.early_stopped, ref.seed, ref.hidden_size)
    np.testing.assert_allclose(report.epoch_mse, ref.epoch_mse, rtol=rtol)
    np.testing.assert_allclose([report.train_mape, report.validation_mape],
                               [ref.train_mape, ref.validation_mape], rtol=rtol)


def _folded(model):
    """The weight arrays the training kernel updates: the hidden rows with
    their biases last, and the output row with its bias last."""
    return {"[w_hidden | b_hidden]": np.column_stack([model.w_hidden, model.b_hidden]),
            "[w_out, b_out]": np.append(model.w_out, model.b_out)}


def assert_same_weights(model, ref, rtol=1e-9):
    """Equal to ``rtol`` per weight, plus ``rtol`` times the norm of the
    folded array it sits in: a weight that collects only rounding (the
    output bias behind a dead unit) is compared at that array's scale."""
    ref_arrays = _folded(ref)
    for name, got in _folded(model).items():
        want = ref_arrays[name]
        np.testing.assert_allclose(got, want, rtol=rtol,
                                   atol=rtol * np.linalg.norm(want), err_msg=name)


def assert_same_divergence(run, expected: DivergenceError):
    with pytest.raises(DivergenceError) as info:
        run()
    assert (str(info.value), info.value.epoch) == (str(expected), expected.epoch)


def assert_sweep_matches_reference(m, config, max_hidden):
    """Every sweep entry, and `train` alone, against the reference loop."""
    result = sweep(m, config, max_hidden=max_hidden)
    for h in range(1, max_hidden + 1):
        size_config = replace(config, seed=config.seed + h)
        try:
            ref_model, ref_report = _reference_train(m, h, size_config)
        except DivergenceError as exc:
            assert result.failures[h] == str(exc)
            assert_same_divergence(lambda: train(m, h, size_config), exc)
            continue
        assert h not in result.failures
        model, report = train(m, h, size_config)
        assert_same_report(report, ref_report)
        assert_same_weights(model, ref_model)
        assert_same_report(result.reports[h], ref_report)
        if h == result.chosen:
            assert_same_weights(result.model, ref_model)
    return result


def test_lockstep_matches_reference_plain_run():
    result = assert_sweep_matches_reference(
        linear_matrix(), TrainConfig(epochs=60, seed=3), max_hidden=6)
    assert not result.failures
    assert all(r.epochs_run == 60 for r in result.reports.values())


def test_lockstep_matches_reference_with_per_size_halving_and_stops():
    config = TrainConfig(epochs=40, learning_rate=1.0, plateau_patience=3)
    result = assert_sweep_matches_reference(linear_matrix(), config, max_hidden=6)
    runs = {h: (r.epochs_run, r.early_stopped) for h, r in result.reports.items()}
    # sizes leave the stack at different epochs while the others go on
    assert runs == {1: (40, False), 2: (36, True), 3: (33, True),
                    4: (40, False), 5: (37, True), 6: (34, True)}


def test_lockstep_matches_reference_when_one_size_diverges():
    # the loss explodes for every size, but only size 4 overflows before
    # the plateau schedule stops it
    config = TrainConfig(epochs=60, learning_rate=34.0, plateau_patience=6)
    result = assert_sweep_matches_reference(linear_matrix(), config, max_hidden=6)
    assert set(result.failures) == {4}
    assert set(result.reports) == {1, 2, 3, 5, 6}


def test_lockstep_matches_reference_at_bundled_scale(demo_bundle):
    """The bundled fixture's network matrix: k = 5 inputs and 652 fitting
    rows, so each epoch ends on a ragged batch of 12."""
    train_m, _ = pipeline.feature_windows(demo_bundle["config"])
    m = train_m.with_columns(tuple(demo_bundle["report"].body["neural_net"]["columns"]))
    config = replace(demo_bundle["config"].nn_train, epochs=20)
    n_fit = len(m) - int(round(len(m) * config.validation_fraction))
    assert (len(m.columns), n_fit, n_fit % config.batch_size) == (5, 652, 12)
    result = assert_sweep_matches_reference(m, config, max_hidden=10)
    assert not result.failures


def test_lockstep_every_size_diverging_is_a_fit_error():
    m = linear_matrix()
    config = TrainConfig(epochs=60, learning_rate=5.1)
    for h in range(1, 7):
        size_config = replace(config, seed=config.seed + h)
        with pytest.raises(DivergenceError) as info:
            _reference_train(m, h, size_config)
        assert_same_divergence(lambda: train(m, h, size_config), info.value)
    with pytest.raises(FitError, match="every hidden size diverged"):
        sweep(m, config, max_hidden=6)


def _random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, (rows, cols))
    y = 50.0 + x @ rng.uniform(-2.0, 2.0, cols) + rng.normal(0.0, 0.5, rows)
    return matrix({f"x{j + 1}": x[:, j] for j in range(cols)}, y)


@st.composite
def sweep_cases(draw):
    rows = draw(st.integers(30, 80))
    n_fit = rows - int(round(rows * 0.15))
    m = _random_matrix(rows, draw(st.integers(1, 4)), draw(st.integers(0, 2**16)))
    batch = draw(st.integers(2, n_fit + 8).filter(lambda b: n_fit % b))
    config = TrainConfig(epochs=draw(st.integers(1, 15)),
                         learning_rate=draw(st.sampled_from([0.05, 0.3, 1.0])),
                         batch_size=batch, seed=draw(st.integers(0, 100)),
                         plateau_patience=draw(st.integers(1, 4)))
    return m, config, draw(st.integers(1, 4))


@settings(max_examples=25, deadline=None, database=None)
@given(sweep_cases())
@example((_random_matrix(40, 2, 5), TrainConfig(epochs=6, batch_size=50, seed=1), 3))
# a dead hidden unit leaves b_out at the rounding floor: 0.0 against -2.2e-16
@example((_random_matrix(30, 1, 0), TrainConfig(epochs=2, learning_rate=1.0, batch_size=27,
                                                seed=1, plateau_patience=1), 2))
def test_sweep_entries_equal_train_alone(case):
    m, config, max_hidden = case
    result = sweep(m, config, max_hidden=max_hidden)
    assert set(result.reports) | set(result.failures) == set(range(1, max_hidden + 1))
    for h in range(1, max_hidden + 1):
        size_config = replace(config, seed=config.seed + h)
        if h in result.failures:
            with pytest.raises(DivergenceError, match="diverged") as info:
                train(m, h, size_config)
            assert str(info.value) == result.failures[h]
            continue
        model, report = train(m, h, size_config)
        assert_same_report(result.reports[h], report)
        if h == result.chosen:
            assert_same_weights(result.model, model)
