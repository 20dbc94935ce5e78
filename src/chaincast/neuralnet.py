"""Small feed-forward network for next-day price prediction.

One hidden layer of rectified units and a linear output, fitted by least
squares to the min-max-scaled target.  Training is Levenberg-Marquardt
iteration (Hagan and Menhaj 1994) by the solver that also fits the ARIMA
models, `solver.minimize`: `_residuals` gives it the residual vector and its
analytic Jacobian on folded weights, in which each hidden unit's bias is
the last column of its input weights (the inputs gain a column of ones) and
the output bias follows the output weights.  `MlpModel` keeps the weights
and biases apart.

Everything is seeded: the initial weights of every start, and of every size
in the hidden-size sweep, derive from one base seed, so a training run is
reproducible to the bit.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .ingest import json_text
from .metrics import mape
from .regression import FeatureMatrix
from .solver import MinimizeResult, minimize

# Seeded starts `train` fits, keeping the one with the lowest training sum of
# squares: from a single start, a fit can settle in a nearly linear basin
# whose sum of squares is several times the others', at any initial damping.
TRAIN_STARTS = 3
# When one fit has converged: the largest component of a proposed weight
# step, and the relative fall of the sum of squares (see `solver.minimize`).
_XATOL = 1e-8
_FATOL = 1e-9
# `gradient_check`'s rows and central-difference step
_CHECK_ROWS = 16
_CHECK_STEP = 1e-6


@dataclass(frozen=True)
class Scaler:
    """Column-wise min-max map onto [0, 1], parameters from training rows only."""

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
    return Scaler(x_min, x_max, y_min, y_max)


@dataclass(frozen=True)
class MlpModel:
    """Network weights plus the scaler and column schema they assume."""

    columns: tuple[str, ...]
    w_hidden: np.ndarray  # (hidden, inputs)
    b_hidden: np.ndarray  # (hidden,)
    w_out: np.ndarray     # (hidden,)
    b_out: float
    scaler: Scaler


@dataclass(frozen=True)
class TrainConfig:
    """Levenberg-Marquardt budget of one network fit.

    ``epochs`` caps the solver's iterations.  ``learning_rate`` is the
    initial Marquardt damping mu_0 (``mu`` in MATLAB's ``trainlm``): a larger
    value starts with shorter steps, closer to the gradient's direction.
    The last ``validation_fraction`` of the rows is held out of the fit.
    ``batch_size`` is a class constant meaning "full batch": every
    iteration uses every fitting row.  The seed of the initial weights is
    not part of the budget: `train` and `sweep` take it as ``seed``.
    """

    epochs: int = 500
    learning_rate: float = 0.01
    validation_fraction: float = 0.15
    batch_size: ClassVar[int] = sys.maxsize

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if not 0.0 < self.learning_rate < math.inf:  # also refuses NaN
            raise ValueError(f"learning rate must be finite and positive, "
                             f"got {self.learning_rate}")
        if not 0.0 <= self.validation_fraction < 0.5:
            raise ValueError("validation fraction must be in [0, 0.5)")


DEFAULT_TRAIN_CONFIG = TrainConfig()


@dataclass(frozen=True)
class TrainReport:
    """What happened during one training run.

    ``epochs_run`` counts the Levenberg-Marquardt iterations of the start
    that was kept, and ``early_stopped`` is True when that start converged
    before the ``epochs`` cap.  ``train_sse`` is its sum of squared scaled
    residuals on the fitting rows, by which the starts are ranked.
    ``validation_mape`` is NaN when no rows are held out.
    """

    train_mape: float
    validation_mape: float
    train_sse: float
    epochs_run: int
    seed: int
    early_stopped: bool


@dataclass(frozen=True)
class SweepResult:
    """Outcome of training every candidate hidden size.

    ``reports`` has one entry per size, and ``chosen`` minimises validation
    MAPE among them.
    """

    reports: dict[int, TrainReport]
    chosen: int
    model: MlpModel


def _init_params(inputs: int, hidden: int, rng: np.random.Generator):
    """Initial (w_hidden, w_out); the biases start at zero."""
    bound_h = math.sqrt(6.0 / (inputs + hidden))
    bound_o = math.sqrt(6.0 / (hidden + 1))
    return (rng.uniform(-bound_h, bound_h, (hidden, inputs)),
            rng.uniform(-bound_o, bound_o, hidden))


def _with_ones(x: np.ndarray) -> np.ndarray:
    return np.column_stack([x, np.ones(len(x))])


def _fold(w_hidden, b_hidden, w_out, b_out) -> np.ndarray:
    """One weight vector: the rows of ``[w_hidden | b_hidden]``, then
    ``w_out``, then ``b_out``."""
    return np.concatenate([np.column_stack([w_hidden, b_hidden]).ravel(), w_out, [b_out]])


def _unfold(theta: np.ndarray, hidden: int, width: int):
    """Views (w1, w_out, b_out) of a folded vector; ``w1`` is (H, k+1) with
    the hidden biases as its last column and ``width`` is k+1."""
    cut = hidden * width
    return theta[:cut].reshape(hidden, width), theta[cut:-1], theta[-1]


def _forward(w1: np.ndarray, w_out: np.ndarray, b_out: float, x1: np.ndarray):
    """Pre-activations, activations and outputs on the rows of ``x1``,
    which ends in a column of ones."""
    z = x1 @ w1.T
    act = np.maximum(z, 0.0)
    return z, act, act @ w_out + b_out


def _residuals(x1: np.ndarray, ys: np.ndarray, hidden: int):
    """The residual function `solver.minimize` fits ``hidden`` units with.

    At folded weights ``theta`` it returns the outputs on the rows of
    ``x1`` minus ``ys``, and a function of no arguments that returns their
    Jacobian.  Row i of the Jacobian is ``[(z_i > 0) * w_out (x) x1_i |
    act_i | 1]``: a unit's input weights move output i through its output
    weight while the unit is active, its output weight moves it by the
    unit's activation, and the output bias by 1.  A dead unit's columns are
    zero.  Every Jacobian is written into one buffer, so it holds until the
    next one is made; `solver.minimize` only ever uses the latest.
    """
    n, width = x1.shape
    cut = hidden * width
    jac = np.empty((n, cut + hidden + 1))
    jac[:, -1] = 1.0
    blocks = jac[:, :cut].reshape(n, hidden, width)  # a view: unit h's columns are [:, h]

    def residuals(theta: np.ndarray):
        w1, w_out, b_out = _unfold(theta, hidden, width)
        z, act, out = _forward(w1, w_out, b_out, x1)

        def jacobian() -> np.ndarray:
            np.multiply(((z > 0.0) * w_out)[:, :, None], x1[:, None, :], out=blocks)
            jac[:, cut:-1] = act
            return jac

        return out - ys, jacobian

    return residuals


def predict_prices(model: MlpModel, m: FeatureMatrix) -> np.ndarray:
    """Price-space predictions for a feature matrix with matching schema.

    The schema check is strict on order as well as names: silently
    reordering columns would bind weights to the wrong inputs.
    """
    if m.columns != model.columns:
        raise ValueError(
            f"schema mismatch: model expects {model.columns}, matrix has {m.columns}"
        )
    w1 = np.column_stack([model.w_hidden, model.b_hidden])
    out = _forward(w1, model.w_out, model.b_out, _with_ones(model.scaler.apply_x(m.x)))[2]
    return model.scaler.invert_y(out)


@dataclass(frozen=True)
class _Split:
    """The rows one fit sees: the fitting rows, their scaler, their scaled
    inputs with a column of ones and scaled target, and the held-out rows
    (None when there are none)."""

    fit: FeatureMatrix
    held_out: FeatureMatrix | None
    scaler: Scaler
    x1: np.ndarray
    ys: np.ndarray


def _split(m: FeatureMatrix, validation_fraction: float) -> _Split:
    """Hold out the last ``validation_fraction`` of the rows
    (chronologically); the scaler sees only the earlier ones."""
    if len(m) < 30:
        raise ValueError(f"need at least 30 rows to train, got {len(m)}")
    n_val = int(round(len(m) * validation_fraction))
    n_fit = len(m) - n_val
    fit_rows = m.rows(slice(None, n_fit))
    scaler = fit_scaler(fit_rows)
    return _Split(fit_rows, m.rows(slice(n_fit, None)) if n_val else None, scaler,
                  _with_ones(scaler.apply_x(fit_rows.x)), scaler.apply_y(fit_rows.y))


def _fit(data: _Split, hidden: int, rng: np.random.Generator,
         config: TrainConfig) -> MinimizeResult:
    """One start: weights drawn from ``rng`` (the biases at zero), then
    Levenberg-Marquardt from there, with initial damping
    ``config.learning_rate``, for at most ``config.epochs`` iterations."""
    w_hidden, w_out = _init_params(data.x1.shape[1] - 1, hidden, rng)
    return minimize(_residuals(data.x1, data.ys, hidden),
                    _fold(w_hidden, np.zeros(hidden), w_out, 0.0),
                    config.epochs, _XATOL, _FATOL, config.learning_rate)


def _trained(data: _Split, hidden: int, seed: int, starts: int,
             config: TrainConfig) -> tuple[MlpModel, TrainReport]:
    """Fit ``starts`` starts, drawn in turn from one generator seeded with
    ``seed``, and keep the one with the lowest training sum of squares (the
    first of equals)."""
    rng = np.random.default_rng(seed)
    best = min((_fit(data, hidden, rng, config) for _ in range(starts)),
               key=operator.attrgetter("fun"))
    w1, w_out, b_out = _unfold(best.x, hidden, data.x1.shape[1])
    model = MlpModel(data.fit.columns, w1[:, :-1].copy(), w1[:, -1].copy(), w_out.copy(),
                     float(b_out), data.scaler)
    held = data.held_out
    return model, TrainReport(
        train_mape=mape(data.fit.y, predict_prices(model, data.fit)),
        validation_mape=math.nan if held is None else mape(held.y, predict_prices(model, held)),
        train_sse=best.fun, epochs_run=best.nit, seed=seed,
        early_stopped=best.success,
    )


def train(m: FeatureMatrix, hidden: int, config: TrainConfig = DEFAULT_TRAIN_CONFIG,
          seed: int = 0) -> tuple[MlpModel, TrainReport]:
    """Fit one network on a training matrix.

    The last ``validation_fraction`` of rows (chronologically) are held out
    for size selection; the scaler and the fit see only the earlier rows.
    `TRAIN_STARTS` starts are drawn in turn from one generator seeded with
    ``seed``, and the one with the lowest training sum of squares is kept.
    A negative ``seed`` is refused before anything is fitted.
    """
    if hidden < 1:
        raise ValueError(f"hidden size must be positive, got {hidden}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _trained(_split(m, config.validation_fraction), hidden, seed, TRAIN_STARTS, config)


def sweep(m: FeatureMatrix, config: TrainConfig = DEFAULT_TRAIN_CONFIG,
          max_hidden: int = 10, seed: int = 0) -> SweepResult:
    """Train hidden sizes 1..max_hidden and keep the best by validation MAPE.

    Size ``h`` is fitted from one start, seeded with ``seed + h``, so each
    entry is what `train` gives that size alone at that seed with one start.
    Ties on validation MAPE go to the smaller network.  A negative ``seed``
    is refused before anything is fitted."""
    if max_hidden < 1:
        raise ValueError("max_hidden must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    data = _split(m, config.validation_fraction)
    if data.held_out is None:
        raise ValueError("sweep needs a validation fraction that holds out rows")
    fitted = {h: _trained(data, h, seed + h, 1, config)
              for h in range(1, max_hidden + 1)}
    chosen = min(fitted, key=lambda h: (fitted[h][1].validation_mape, h))
    return SweepResult(reports={h: report for h, (_, report) in fitted.items()},
                       chosen=chosen, model=fitted[chosen][0])


def gradient_check(m: FeatureMatrix, hidden: int = 3, seed: int = 0) -> float:
    """Largest relative gap between the solver's gradient and central
    differences of the loss.

    Checks what training minimises with: the gradient of half the sum of
    squares is ``J'e``, from the residual function `_residuals` that
    `solver.minimize` runs on.  Uses freshly initialised weights on the
    first `_CHECK_ROWS` scaled rows, with biases nudged off zero so every
    parameter sits at a generic point.  Meant for verification, not
    training.
    """
    scaler = fit_scaler(m)
    x1 = _with_ones(scaler.apply_x(m.x[:_CHECK_ROWS]))
    ys = scaler.apply_y(m.y[:_CHECK_ROWS])
    rng = np.random.default_rng(seed)
    w_hidden, w_out = _init_params(x1.shape[1] - 1, hidden, rng)
    vec = _fold(w_hidden, rng.uniform(-0.1, 0.1, hidden), w_out, rng.uniform(-0.1, 0.1))
    residuals = _residuals(x1, ys, hidden)
    e, jacobian = residuals(vec)
    grad = jacobian().T @ e

    def loss(v: np.ndarray) -> float:
        r = residuals(v)[0]
        return 0.5 * float(r @ r)

    worst = 0.0
    for j in range(vec.size):
        bumped = vec.copy()
        bumped[j] = vec[j] + _CHECK_STEP
        up = loss(bumped)
        bumped[j] = vec[j] - _CHECK_STEP
        down = loss(bumped)
        numeric = (up - down) / (2.0 * _CHECK_STEP)
        denom = max(abs(numeric), abs(grad[j]), 1e-8)
        worst = max(worst, abs(numeric - grad[j]) / denom)
    return worst


def model_to_json(model: MlpModel) -> str:
    """Serialise a model (weights, scaler, schema) by `ingest.json_text`."""
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
    return json_text(payload)


def model_from_json(text: str) -> MlpModel:
    """Inverse of `model_to_json`."""
    raw = json.loads(text)
    scaler = Scaler(
        x_min=np.array(raw["scaler"]["x_min"], float),
        x_max=np.array(raw["scaler"]["x_max"], float),
        y_min=float(raw["scaler"]["y_min"]),
        y_max=float(raw["scaler"]["y_max"]),
    )
    return MlpModel(
        columns=tuple(raw["columns"]),
        w_hidden=np.array(raw["w_hidden"], float),
        b_hidden=np.array(raw["b_hidden"], float),
        w_out=np.array(raw["w_out"], float),
        b_out=float(raw["b_out"]),
        scaler=scaler,
    )
