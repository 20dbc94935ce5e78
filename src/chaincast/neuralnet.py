"""Small feed-forward network for next-day price prediction.

One hidden layer of rectified units, a linear output, minibatch gradient
descent on mean squared error in min-max-scaled space.  Everything is
seeded: weight draws, batch shuffles, and the hidden-size sweep all derive
from one base seed, so a training run is reproducible to the bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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


def _forward(x, w_hidden, b_hidden, w_out, b_out):
    """Pre-activations, activations and outputs of S networks at once.

    Weights carry a leading network axis: (S, H, k), (S, H), (S, H) and
    (S,).  ``x`` is (S, B, k), one batch per network, or one (B, k) batch
    they all see; the outputs are (S, B).
    """
    z = x @ w_hidden.transpose(0, 2, 1) + b_hidden[:, None, :]
    a = np.maximum(z, 0.0)
    return z, a, (a @ w_out[:, :, None])[..., 0] + b_out[:, None]


def _batch_gradients(x, y, w_hidden, b_hidden, w_out, b_out):
    """Analytic MSE gradients of stacked networks, shaped like their weights.

    Shapes as in `_forward`; ``y`` is (S, B), or (B,) for a shared batch.
    """
    z, a, pred = _forward(x, w_hidden, b_hidden, w_out, b_out)
    d_pred = 2.0 * (pred - y) / y.shape[-1]
    g_w_out = (a.transpose(0, 2, 1) @ d_pred[:, :, None])[..., 0]
    g_b_out = d_pred.sum(axis=1)
    d_z = d_pred[:, :, None] * w_out[:, None, :] * (z > 0.0)
    return d_z.transpose(0, 2, 1) @ x, d_z.sum(axis=1), g_w_out, g_b_out


def _model_output(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """Scaled outputs of one model on already-scaled rows."""
    return _forward(xs, model.w_hidden[None], model.b_hidden[None],
                    model.w_out[None], np.array([model.b_out]))[2][0]


def forward(model: MlpModel, features: np.ndarray) -> float:
    """Network output for one already-scaled feature row."""
    x = np.asarray(features, float)
    if x.shape != (model.w_hidden.shape[1],):
        raise ValueError(
            f"expected {model.w_hidden.shape[1]} features, got shape {x.shape}"
        )
    return float(_model_output(model, x[None, :])[0])


def predict_prices(model: MlpModel, m: FeatureMatrix) -> np.ndarray:
    """Price-space predictions for a feature matrix with matching schema.

    The schema check is strict on order as well as names: silently
    reordering columns would bind weights to the wrong inputs.
    """
    if m.columns != model.columns:
        raise ValueError(
            f"schema mismatch: model expects {model.columns}, matrix has {m.columns}"
        )
    return model.scaler.invert_y(_model_output(model, model.scaler.apply_x(m.x)))


@dataclass
class _Run:
    """One hidden size inside `_train_lockstep`: its own seed stream,
    learning-rate schedule and loss history, then its final weights or the
    divergence that ended it."""

    hidden: int
    seed: int
    rng: np.random.Generator
    lr: float
    best: float = math.inf
    stale: int = 0
    halvings: int = 0
    early_stopped: bool = False
    epoch_mse: list[float] = field(default_factory=list)
    weights: tuple = ()
    error: DivergenceError | None = None

    def end_epoch(self, epoch: int, mse: float, finite: bool, patience: int) -> bool:
        """Record one epoch's loss and apply the plateau schedule.  Returns
        False once this size diverges or stops early."""
        self.epoch_mse.append(mse)
        if not finite:
            self.error = DivergenceError(
                f"training diverged at epoch {epoch} (hidden={self.hidden}, "
                f"seed={self.seed})", epoch=epoch,
            )
            return False
        if mse < self.best - 1e-12:
            self.best = mse
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= patience:
                self.lr *= 0.5
                self.halvings += 1
                self.stale = 0
                if self.halvings > 6:
                    self.early_stopped = True
                    return False
        return True

    def keep(self, params, j: int) -> None:
        """Copy this size's own units out of row ``j`` of the stacked weights."""
        w_hidden, b_hidden, w_out, b_out = params
        h = self.hidden
        self.weights = (w_hidden[j, :h].copy(), b_hidden[j, :h].copy(),
                        w_out[j, :h].copy(), float(b_out[j]))


def _train_lockstep(m: FeatureMatrix, sizes, seeds, config: TrainConfig
                    ) -> tuple[dict[int, tuple[MlpModel, TrainReport]],
                               dict[int, DivergenceError]]:
    """Train one network per hidden size in ``sizes`` together, each seeded
    by its entry in ``seeds``.

    The weights are stacked on a leading size axis and padded to the
    largest size; a padded unit starts at zero and stays zero, since its
    ReLU output and gradient are 0.  Each size draws from its own generator
    exactly what a lone run of it draws (initial weights, then one
    permutation per epoch), so it sees the same batches and ends with the
    same weights up to summation order over the padding.  A size leaves
    the stack when it stops early or diverges.  Returns (model, report) per
    trained size and the `DivergenceError` of each diverged one.
    """
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

    runs = [_Run(h, s, np.random.default_rng(s), config.learning_rate)
            for h, s in zip(sizes, seeds)]
    inputs, top = xs.shape[1], max(sizes)
    params = [np.zeros((len(runs), top, inputs)), np.zeros((len(runs), top)),
              np.zeros((len(runs), top)), np.zeros(len(runs))]
    for j, run in enumerate(runs):
        # biases start at zero
        w_hidden, _, w_out, _ = _init_params(inputs, run.hidden, run.rng)
        params[0][j, :run.hidden] = w_hidden
        params[2][j, :run.hidden] = w_out

    active = runs
    step = config.batch_size
    # overflow during a diverging run is expected and reported as an error,
    # so the intermediate inf/nan arithmetic must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = np.stack([run.rng.permutation(n_fit) for run in active])
            x_epoch, y_epoch = xs[order], ys[order]
            lr = np.array([run.lr for run in active])
            rates = (lr[:, None, None], lr[:, None], lr[:, None], lr)
            for lo in range(0, n_fit, step):
                grads = _batch_gradients(x_epoch[:, lo:lo + step],
                                         y_epoch[:, lo:lo + step], *params)
                for p, rate, g in zip(params, rates, grads):
                    p -= rate * g
            mse = np.mean((_forward(xs, *params)[2] - ys)**2, axis=1)
            finite = (np.isfinite(mse) & np.isfinite(params[0]).all(axis=(1, 2))
                      & np.isfinite(params[2]).all(axis=1))
            going = np.array([run.end_epoch(epoch, float(e), bool(ok),
                                            config.plateau_patience)
                              for run, e, ok in zip(active, mse, finite)])
            if not going.all():
                for j in np.flatnonzero(~going):
                    active[j].keep(params, j)
                params = [p[going] for p in params]
                active = [run for run, g in zip(active, going) if g]
                if not active:
                    break
    for j, run in enumerate(active):
        run.keep(params, j)

    val_rows = FeatureMatrix(m.dates[n_fit:], m.target_dates[n_fit:],
                             m.columns, m.x[n_fit:], m.y[n_fit:]) if n_val else None
    fitted: dict[int, tuple[MlpModel, TrainReport]] = {}
    diverged: dict[int, DivergenceError] = {}
    for run in runs:
        if run.error is not None:
            diverged[run.hidden] = run.error
            continue
        model = MlpModel(m.columns, *run.weights, scaler)
        val_mape = mape(val_rows.y, predict_prices(model, val_rows)) if n_val else math.nan
        fitted[run.hidden] = model, TrainReport(
            epoch_mse=np.array(run.epoch_mse),
            train_mape=mape(fit_rows.y, predict_prices(model, fit_rows)),
            validation_mape=val_mape, epochs_run=len(run.epoch_mse),
            seed=run.seed, hidden_size=run.hidden, early_stopped=run.early_stopped,
        )
    return fitted, diverged


def train(m: FeatureMatrix, hidden: int,
          config: TrainConfig = DEFAULT_TRAIN_CONFIG) -> tuple[MlpModel, TrainReport]:
    """Fit one network on a training matrix.

    The last ``validation_fraction`` of rows (chronologically) are held out
    for size selection; the scaler and the gradient steps see only the
    earlier rows.  Raises `DivergenceError` the first epoch the loss or any
    weight stops being finite.  This is the one-size case of the kernel
    `sweep` runs.
    """
    if hidden < 1:
        raise ValueError(f"hidden size must be positive, got {hidden}")
    fitted, diverged = _train_lockstep(m, (hidden,), (config.seed,), config)
    if diverged:
        raise diverged[hidden]
    return fitted[hidden]


def sweep(m: FeatureMatrix, config: TrainConfig = DEFAULT_TRAIN_CONFIG,
          max_hidden: int = 10) -> SweepResult:
    """Train hidden sizes 1..max_hidden and keep the best by validation MAPE.

    All sizes train in lockstep, size ``h`` with seed ``config.seed + h``,
    and each gets the result ``train`` gives it alone with that seed (up to
    summation order), so individual runs can be reproduced in isolation.
    Ties on validation MAPE go to the smaller network."""
    if max_hidden < 1:
        raise ValueError("max_hidden must be positive")
    if not config.validation_fraction:
        raise ValueError("sweep needs a non-zero validation fraction")
    sizes = range(1, max_hidden + 1)
    fitted, diverged = _train_lockstep(m, sizes, [config.seed + h for h in sizes], config)
    if not fitted:
        raise FitError("every hidden size diverged; lower the learning rate")
    reports = {h: report for h, (_, report) in fitted.items()}
    chosen = min(reports, key=lambda h: (reports[h].validation_mape, h))
    return SweepResult(reports=reports,
                       failures={h: str(exc) for h, exc in diverged.items()},
                       chosen=chosen, model=fitted[chosen][0])


def evaluate(model: MlpModel, test: FeatureMatrix) -> tuple[float, np.ndarray]:
    """(MAPE, price predictions) on held-out rows with matching schema."""
    preds = predict_prices(model, test)
    return mape(test.y, preds), preds


def gradient_check(m: FeatureMatrix, hidden: int = 3, seed: int = 0,
                   batch: int = 16, step: float = 1e-6) -> float:
    """Largest relative gap between analytic and central-difference gradients.

    Checks the training kernel's own batched gradient, on a stack of one
    network.  Uses freshly initialised weights on the first ``batch`` scaled
    rows, with biases nudged off zero so every parameter sits at a generic
    point.  Meant for verification, not training.
    """
    scaler = fit_scaler(m)
    xs = scaler.apply_x(m.x[:batch])
    ys = scaler.apply_y(m.y[:batch])
    rng = np.random.default_rng(seed)
    w_hidden, _, w_out, _ = _init_params(xs.shape[1], hidden, rng)
    b_hidden = rng.uniform(-0.1, 0.1, hidden)
    b_out = rng.uniform(-0.1, 0.1)

    params = [w_hidden[None], b_hidden[None], w_out[None], np.array([b_out])]
    shapes = [p.shape for p in params]
    cuts = np.cumsum([p.size for p in params])[:-1]

    def loss(vec: np.ndarray) -> float:
        parts = [part.reshape(shape) for part, shape in zip(np.split(vec, cuts), shapes)]
        return float(np.mean((_forward(xs, *parts)[2] - ys)**2))

    vec = np.concatenate([p.ravel() for p in params])
    grad = np.concatenate([g.ravel() for g in _batch_gradients(xs, ys, *params)])

    worst = 0.0
    for j in range(vec.size):
        bumped = vec.copy()
        bumped[j] = vec[j] + step
        up = loss(bumped)
        bumped[j] = vec[j] - step
        down = loss(bumped)
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
