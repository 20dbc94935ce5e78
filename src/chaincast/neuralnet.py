"""Small feed-forward network for next-day price prediction.

One hidden layer of rectified units, a linear output, minibatch gradient
descent on mean squared error in min-max-scaled space.  Everything is
seeded: weight draws, batch shuffles, and the hidden-size sweep all derive
from one base seed, so a training run is reproducible to the bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, FitError
from .metrics import mape
from .regression import FeatureMatrix


@dataclass(frozen=True)
class Scaler:
    """Column-wise min-max map onto [0, 1], parameters from training rows only."""

    columns: tuple[str, ...]
    x_min: np.ndarray
    x_max: np.ndarray
    y_min: float
    y_max: float

    def apply_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_min) / (self.x_max - self.x_min)

    def apply_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_min) / (self.y_max - self.y_min)

    def invert_y(self, y_scaled: np.ndarray) -> np.ndarray:
        return y_scaled * (self.y_max - self.y_min) + self.y_min


def fit_scaler(m: FeatureMatrix) -> Scaler:
    """Scaling parameters from a training matrix.

    A constant column cannot be mapped onto [0, 1] and is refused by name;
    it should have been excluded from the schema instead.
    """
    x_min = m.x.min(axis=0)
    x_max = m.x.max(axis=0)
    flat = np.flatnonzero(x_max <= x_min)
    if flat.size:
        raise ValueError(f"column '{m.columns[flat[0]]}' is constant; cannot scale")
    y_min, y_max = float(m.y.min()), float(m.y.max())
    if y_max <= y_min:
        raise ValueError("target is constant; cannot scale")
    return Scaler(m.columns, x_min, x_max, y_min, y_max)


@dataclass(frozen=True)
class MlpModel:
    """Network weights plus the scaler and column schema they assume."""

    columns: tuple[str, ...]
    w_hidden: np.ndarray  # (hidden, inputs)
    b_hidden: np.ndarray  # (hidden,)
    w_out: np.ndarray     # (hidden,)
    b_out: float
    scaler: Scaler

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent schedule.  The learning rate halves after
    ``plateau_patience`` epochs without a new best loss; training stops
    early once it has halved six times with no progress."""

    epochs: int = 500
    learning_rate: float = 0.01
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.15
    plateau_patience: int = 50

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.plateau_patience < 1:
            raise ValueError("epochs, batch_size and plateau_patience must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.validation_fraction < 0.5:
            raise ValueError("validation fraction must be in [0, 0.5)")


DEFAULT_TRAIN_CONFIG = TrainConfig()


@dataclass(frozen=True)
class TrainReport:
    """What happened during one training run."""

    epoch_mse: np.ndarray
    train_mape: float
    validation_mape: float
    epochs_run: int
    seed: int
    hidden_size: int
    early_stopped: bool


@dataclass(frozen=True)
class SweepResult:
    """Outcome of training every candidate hidden size.

    ``reports`` has one entry per size; sizes whose training diverged appear
    in ``failures`` instead of being silently skipped.  ``chosen`` minimises
    validation MAPE among the survivors.
    """

    reports: dict[int, TrainReport]
    failures: dict[int, str]
    chosen: int
    model: MlpModel


def _init_params(inputs: int, hidden: int, rng: np.random.Generator):
    bound_h = math.sqrt(6.0 / (inputs + hidden))
    bound_o = math.sqrt(6.0 / (hidden + 1))
    w_hidden = rng.uniform(-bound_h, bound_h, (hidden, inputs))
    w_out = rng.uniform(-bound_o, bound_o, hidden)
    return w_hidden, np.zeros(hidden), w_out, 0.0


def _forward_batch(x, w_hidden, b_hidden, w_out, b_out):
    z = x @ w_hidden.T + b_hidden
    a = np.maximum(z, 0.0)
    return z, a, a @ w_out + b_out


def _gradients(x, y, w_hidden, b_hidden, w_out, b_out):
    """Analytic MSE gradients for one batch.  Returns (loss, grads)."""
    z, a, pred = _forward_batch(x, w_hidden, b_hidden, w_out, b_out)
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


def forward(model: MlpModel, features: np.ndarray) -> float:
    """Network output for one already-scaled feature row."""
    x = np.asarray(features, float)
    if x.shape != (model.w_hidden.shape[1],):
        raise ValueError(
            f"expected {model.w_hidden.shape[1]} features, got shape {x.shape}"
        )
    _, _, out = _forward_batch(x[None, :], model.w_hidden, model.b_hidden,
                               model.w_out, model.b_out)
    return float(out[0])


def predict_prices(model: MlpModel, m: FeatureMatrix) -> np.ndarray:
    """Price-space predictions for a feature matrix with matching schema.

    The schema check is strict on order as well as names: silently
    reordering columns would bind weights to the wrong inputs.
    """
    if m.columns != model.columns:
        raise ValueError(
            f"schema mismatch: model expects {model.columns}, matrix has {m.columns}"
        )
    xs = model.scaler.apply_x(m.x)
    _, _, out = _forward_batch(xs, model.w_hidden, model.b_hidden,
                               model.w_out, model.b_out)
    return model.scaler.invert_y(out)


def train(m: FeatureMatrix, hidden: int,
          config: TrainConfig = DEFAULT_TRAIN_CONFIG) -> tuple[MlpModel, TrainReport]:
    """Fit one network on a training matrix.

    The last ``validation_fraction`` of rows (chronologically) are held out
    for size selection; the scaler and the gradient steps see only the
    earlier rows.  Raises `DivergenceError` the first epoch the loss or any
    weight stops being finite.
    """
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
    w_hidden, b_hidden, w_out, b_out = _init_params(xs.shape[1], hidden, rng)

    lr = config.learning_rate
    best = np.inf
    stale = 0
    halvings = 0
    epoch_mse = []
    early_stopped = False
    # overflow during a diverging run is expected and reported as an error,
    # so the intermediate inf/nan arithmetic must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n_fit)
            for lo in range(0, n_fit, config.batch_size):
                batch = order[lo:lo + config.batch_size]
                _, grads = _gradients(xs[batch], ys[batch],
                                      w_hidden, b_hidden, w_out, b_out)
                w_hidden -= lr * grads[0]
                b_hidden -= lr * grads[1]
                w_out -= lr * grads[2]
                b_out -= lr * grads[3]
            _, _, pred = _forward_batch(xs, w_hidden, b_hidden, w_out, b_out)
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
        _forward_batch(xs, w_hidden, b_hidden, w_out, b_out)[2])
    train_mape = mape(fit_rows.y, train_pred)
    if n_val:
        val_rows = FeatureMatrix(m.dates[n_fit:], m.target_dates[n_fit:],
                                 m.columns, m.x[n_fit:], m.y[n_fit:])
        val_mape = mape(val_rows.y, predict_prices(model, val_rows))
    else:
        val_mape = math.nan
    report = TrainReport(
        epoch_mse=np.array(epoch_mse), train_mape=train_mape,
        validation_mape=val_mape, epochs_run=len(epoch_mse),
        seed=config.seed, hidden_size=hidden, early_stopped=early_stopped,
    )
    return model, report


def sweep(m: FeatureMatrix, config: TrainConfig = DEFAULT_TRAIN_CONFIG,
          max_hidden: int = 10) -> SweepResult:
    """Train hidden sizes 1..max_hidden and keep the best by validation MAPE.

    Size ``h`` trains with seed ``config.seed + h``, so individual runs can
    be reproduced in isolation.  Ties on validation MAPE go to the smaller
    network."""
    if max_hidden < 1:
        raise ValueError("max_hidden must be positive")
    if not config.validation_fraction:
        raise ValueError("sweep needs a non-zero validation fraction")
    reports: dict[int, TrainReport] = {}
    failures: dict[int, str] = {}
    models: dict[int, MlpModel] = {}
    for h in range(1, max_hidden + 1):
        try:
            models[h], reports[h] = train(m, h, replace(config, seed=config.seed + h))
        except DivergenceError as exc:
            failures[h] = str(exc)
    if not reports:
        raise FitError("every hidden size diverged; lower the learning rate")
    chosen = min(reports, key=lambda h: (reports[h].validation_mape, h))
    return SweepResult(reports=reports, failures=failures,
                       chosen=chosen, model=models[chosen])


def evaluate(model: MlpModel, test: FeatureMatrix) -> tuple[float, np.ndarray]:
    """(MAPE, price predictions) on held-out rows with matching schema."""
    preds = predict_prices(model, test)
    return mape(test.y, preds), preds


def gradient_check(m: FeatureMatrix, hidden: int = 3, seed: int = 0,
                   batch: int = 16, step: float = 1e-6) -> float:
    """Largest relative gap between analytic and central-difference gradients.

    Uses freshly initialised weights on the first ``batch`` scaled rows, with
    biases nudged off zero so every parameter sits at a generic point.  Meant
    for verification, not training.
    """
    scaler = fit_scaler(m)
    xs = scaler.apply_x(m.x[:batch])
    ys = scaler.apply_y(m.y[:batch])
    rng = np.random.default_rng(seed)
    w_hidden, _, w_out, _ = _init_params(xs.shape[1], hidden, rng)
    b_hidden = rng.uniform(-0.1, 0.1, hidden)
    b_out = float(rng.uniform(-0.1, 0.1))

    shapes = (w_hidden.shape, b_hidden.shape, w_out.shape)
    sizes = tuple(int(np.prod(s)) for s in shapes)

    def unpack(vec: np.ndarray):
        parts = []
        at = 0
        for shape, size in zip(shapes, sizes):
            parts.append(vec[at:at + size].reshape(shape))
            at += size
        parts.append(float(vec[at]))
        return parts

    vec = np.concatenate([w_hidden.ravel(), b_hidden, w_out, [b_out]])
    _, analytic = _gradients(xs, ys, *unpack(vec))
    grad = np.concatenate([analytic[0].ravel(), analytic[1], analytic[2],
                           [analytic[3]]])

    worst = 0.0
    for j in range(vec.size):
        bumped = vec.copy()
        bumped[j] = vec[j] + step
        up = _gradients(xs, ys, *unpack(bumped))[0]
        bumped[j] = vec[j] - step
        down = _gradients(xs, ys, *unpack(bumped))[0]
        numeric = (up - down) / (2.0 * step)
        denom = max(abs(numeric), abs(grad[j]), 1e-8)
        worst = max(worst, abs(numeric - grad[j]) / denom)
    return worst


def model_to_json(model: MlpModel) -> str:
    """Serialise a model (weights, scaler, schema) to a JSON string."""
    payload = {
        "columns": list(model.columns),
        "w_hidden": model.w_hidden.tolist(),
        "b_hidden": model.b_hidden.tolist(),
        "w_out": model.w_out.tolist(),
        "b_out": model.b_out,
        "scaler": {
            "x_min": model.scaler.x_min.tolist(),
            "x_max": model.scaler.x_max.tolist(),
            "y_min": model.scaler.y_min,
            "y_max": model.scaler.y_max,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def model_from_json(text: str) -> MlpModel:
    """Inverse of `model_to_json`."""
    raw = json.loads(text)
    columns = tuple(raw["columns"])
    scaler = Scaler(
        columns=columns,
        x_min=np.array(raw["scaler"]["x_min"], float),
        x_max=np.array(raw["scaler"]["x_max"], float),
        y_min=float(raw["scaler"]["y_min"]),
        y_max=float(raw["scaler"]["y_max"]),
    )
    return MlpModel(
        columns=columns,
        w_hidden=np.array(raw["w_hidden"], float),
        b_hidden=np.array(raw["b_hidden"], float),
        w_out=np.array(raw["w_out"], float),
        b_out=float(raw["b_out"]),
        scaler=scaler,
    )
