"""Small feed-forward network for next-day price prediction.

One hidden layer of rectified units, a linear output, minibatch gradient
descent on mean squared error in min-max-scaled space.  Everything is
seeded: weight draws, batch shuffles, and the hidden-size sweep all derive
from one base seed, so a training run is reproducible to the bit.

Training folds each bias into its weights (the inputs and the hidden layer
each gain a unit fixed at 1) and keeps the batch axis innermost, so one
minibatch step of a whole stack of networks is about a dozen in-place
numpy calls; `MlpModel` keeps the weights and biases apart.
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
    """Initial (w_hidden, w_out); the biases start at zero."""
    bound_h = math.sqrt(6.0 / (inputs + hidden))
    bound_o = math.sqrt(6.0 / (hidden + 1))
    return (rng.uniform(-bound_h, bound_h, (hidden, inputs)),
            rng.uniform(-bound_o, bound_o, hidden))


def _with_ones(x: np.ndarray) -> np.ndarray:
    return np.column_stack([x, np.ones(len(x))])


def _outputs(w1, w2, x1t, act, z=None, out=None):
    """Outputs (S, 1, n) of S folded networks on the n columns of ``x1t``.

    ``w1`` is (S, H, k+1) with the hidden biases as its last column and
    ``w2`` is (S, 1, H+1) with the output bias last; ``x1t`` is (k+1, n),
    or (S, k+1, n), with a last row of ones.  The pre-activations go to
    ``z``, (S, H, n), and the activations into ``act``, (S, H+1, n), above
    its last row of ones.
    """
    z = np.matmul(w1, x1t, out=z)
    np.maximum(z, 0.0, out=act[:, :-1])
    return np.matmul(w2, act, out=out)


def _step_buffers(stack: int, hidden: int, width: int, batch: int):
    """Buffers `_step` writes into, for ``stack`` networks and ``batch`` rows
    of ``width`` = k+1 inputs."""
    return (np.empty((stack, hidden, batch)), np.empty((stack, hidden, batch), bool),
            np.ones((stack, hidden + 1, batch)), np.empty((stack, 1, batch)),
            np.empty((stack, hidden, batch)), np.empty((stack, hidden, width)),
            np.empty((stack, 1, hidden + 1)))


def _step(w1, w2, w_out, x, y, rate, buffers) -> None:
    """One minibatch gradient step of S folded networks, in place.

    ``x`` is (S, b, k+1) with its ones column, ``y`` is (S, 1, b), ``rate``
    is (S, 1, 1) holding each network's learning rate times 2/b, and
    ``w_out`` is the (S, H, 1) view of ``w2``'s unit weights.  The batch
    axis is innermost throughout, so every call is one batched matmul or
    one elementwise pass, and nothing is allocated.
    """
    z, mask, act, err, d_z, g1, g2 = buffers
    _outputs(w1, w2, x.transpose(0, 2, 1), act, z, err)
    np.greater(z, 0.0, out=mask)
    np.subtract(err, y, out=err)
    np.multiply(err, rate, out=err)  # rate times dMSE/dprediction
    np.multiply(mask, err, out=d_z)
    np.matmul(d_z, x, out=g1)
    np.multiply(g1, w_out, out=g1)
    np.matmul(err, act.transpose(0, 2, 1), out=g2)
    w1 -= g1
    w2 -= g2


def _model_output(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """Scaled outputs of one model on already-scaled rows."""
    w1 = np.column_stack([model.w_hidden, model.b_hidden])[None]
    w2 = np.append(model.w_out, model.b_out)[None, None]
    act = np.ones((1, model.hidden_size + 1, len(xs)))
    return _outputs(w1, w2, _with_ones(xs).T, act)[0, 0]


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
    learning-rate schedule and loss history, then its final folded weight
    rows or the divergence that ended it."""

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


def _train_lockstep(m: FeatureMatrix, sizes, seeds, config: TrainConfig
                    ) -> tuple[dict[int, tuple[MlpModel, TrainReport]],
                               dict[int, DivergenceError]]:
    """Train one network per hidden size in ``sizes`` together, each seeded
    by its entry in ``seeds``.

    The weights are folded and stacked on a leading size axis: ``w1`` is
    (S, H, k+1) with the hidden biases as its last column, ``w2`` is
    (S, 1, H+1) with the output bias last, and the inputs carry a ones
    column.  Every size is padded to the largest; a padded unit starts at
    zero and stays zero, since its pre-activation is 0, so its ReLU mask
    is false and its output and gradient are 0.  Each epoch gathers every
    size's permuted rows into one buffer, and each step (`_step`) writes
    into buffers allocated once per batch width.  Each size draws from its
    own generator exactly what a lone run of it draws (initial weights,
    then one permutation per epoch), so it sees the same batches and ends
    with the same weights up to summation order over the padding.  A size
    leaves the stack when it stops early or diverges.  Returns (model,
    report) per trained size and the `DivergenceError` of each diverged one.
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
    inputs, top, stack = xs.shape[1], max(sizes), len(runs)
    w1, w2 = np.zeros((stack, top, inputs + 1)), np.zeros((stack, 1, top + 1))
    for j, run in enumerate(runs):
        w1[j, :run.hidden, :inputs], w2[j, 0, :run.hidden] = _init_params(
            inputs, run.hidden, run.rng)

    x1 = _with_ones(xs)
    x_epoch, y_epoch = np.empty((stack, n_fit, inputs + 1)), np.empty((stack, 1, n_fit))
    act_all, err_all = np.ones((stack, top + 1, n_fit)), np.empty((stack, 1, n_fit))
    batches = [(lo, min(config.batch_size, n_fit - lo))
               for lo in range(0, n_fit, config.batch_size)]
    per_width = {b: _step_buffers(stack, top, inputs + 1, b) for _, b in batches}
    active = runs
    # overflow during a diverging run is expected and reported as an error,
    # so the intermediate inf/nan arithmetic must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            s = len(active)
            order = np.stack([run.rng.permutation(n_fit) for run in active])
            x_ep, y_ep = x_epoch[:s], y_epoch[:s]
            # the indices are in range; "clip" writes into out without a buffer
            np.take(x1, order, axis=0, out=x_ep, mode="clip")
            np.take(ys, order, out=y_ep[:, 0], mode="clip")
            lr = np.array([run.lr for run in active])[:, None, None]
            rates = {b: lr * (2.0 / b) for b in per_width}
            bufs = {b: [buf[:s] for buf in bs] for b, bs in per_width.items()}
            w_out = w2[:, :, :top].transpose(0, 2, 1)
            for lo, b in batches:
                _step(w1, w2, w_out, x_ep[:, lo:lo + b], y_ep[:, :, lo:lo + b],
                      rates[b], bufs[b])
            # the pre-activations go straight into the rows ReLU overwrites
            act = act_all[:s]
            err = _outputs(w1, w2, x1.T, act, act[:, :-1], err_all[:s])
            np.subtract(err, ys, out=err)
            mse = np.square(err, out=err).mean(axis=(1, 2))
            finite = (np.isfinite(mse) & np.isfinite(w1[:, :, :inputs]).all(axis=(1, 2))
                      & np.isfinite(w2[:, 0, :top]).all(axis=1))
            going = np.array([run.end_epoch(epoch, float(e), bool(ok),
                                            config.plateau_patience)
                              for run, e, ok in zip(active, mse, finite)])
            if not going.all():
                for j in np.flatnonzero(~going):
                    active[j].weights = w1[j], w2[j]
                w1, w2 = w1[going], w2[going]
                active = [run for run, g in zip(active, going) if g]
                if not active:
                    break
    for run, w1_j, w2_j in zip(active, w1, w2):
        run.weights = w1_j, w2_j

    val_rows = FeatureMatrix(m.dates[n_fit:], m.target_dates[n_fit:],
                             m.columns, m.x[n_fit:], m.y[n_fit:]) if n_val else None
    fitted: dict[int, tuple[MlpModel, TrainReport]] = {}
    diverged: dict[int, DivergenceError] = {}
    for run in runs:
        if run.error is not None:
            diverged[run.hidden] = run.error
            continue
        (w1_j, w2_j), h = run.weights, run.hidden
        model = MlpModel(m.columns, w1_j[:h, :-1].copy(), w1_j[:h, -1].copy(),
                         w2_j[0, :h].copy(), float(w2_j[0, -1]), scaler)
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

    Checks the training kernel's own step: one `_step` at learning rate 1
    on a stack of one network moves each weight by exactly its gradient.
    Uses freshly initialised weights on the first ``batch`` scaled rows,
    with biases nudged off zero so every parameter sits at a generic point.
    Meant for verification, not training.
    """
    scaler = fit_scaler(m)
    x1 = _with_ones(scaler.apply_x(m.x[:batch]))
    ys = scaler.apply_y(m.y[:batch])
    rng = np.random.default_rng(seed)
    w_hidden, w_out = _init_params(x1.shape[1] - 1, hidden, rng)
    w1 = np.column_stack([w_hidden, rng.uniform(-0.1, 0.1, hidden)])[None]
    w2 = np.append(w_out, rng.uniform(-0.1, 0.1))[None, None]
    cut = w1.size
    act = np.ones((1, hidden + 1, len(ys)))

    def loss(vec: np.ndarray) -> float:
        out = _outputs(vec[:cut].reshape(w1.shape), vec[cut:].reshape(w2.shape), x1.T, act)
        return float(np.mean((out[0, 0] - ys)**2))

    vec = np.concatenate([w1.ravel(), w2.ravel()])
    _step(w1, w2, w2[:, :, :-1].transpose(0, 2, 1), x1[None], ys[None, None],
          np.full((1, 1, 1), 2.0 / len(ys)), _step_buffers(1, hidden, x1.shape[1], len(ys)))
    grad = vec - np.concatenate([w1.ravel(), w2.ravel()])

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
