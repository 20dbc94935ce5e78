"""End-to-end driver: three assets in, comparative accuracy report out.

The chain models the target asset (gold) with two companions (EUR-USD and
oil).  Per run: ingest and align the three calendars, split train/test, pick
a differencing order and ARIMA model per asset, roll one-step forecasts of
every asset across the whole calendar (the target's scored, the companions'
fed to the regression), compute the target's indicators, assemble the
feature matrix, fit the full least-squares equation plus both stepwise
directions, train the network sweep on the selected subset, and write every
artifact (prediction CSVs, correlograms, model weights, report) into one
output directory.

Accuracies for every stage are measured on the identical test window, as
100 minus the MAPE of one-step-ahead predictions.
"""

from __future__ import annotations

import contextlib
import datetime
import io
import math
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import arima, indicators, neuralnet, regression
from .errors import DataFormatError, StageError
from .ingest import DEFAULT_SPLIT, PriceFrame, SplitSpec, align_calendars, \
    json_text, parse_csv, write_table
from .metrics import accuracy
from .series import STATIONARITY_THRESHOLD, Series, acf, difference, ljung_box, pacf, \
    suggest_d

ASSETS = ("gold", "eurusd", "oil")  # target first, then companions (x2, x3 order)


def _at_least(low: int) -> tuple[str, Callable[[object], bool]]:
    return f"at least {low}", lambda v: v >= low


def _one_of(allowed: tuple[str, ...]) -> tuple[str, Callable[[object], bool]]:
    return "one of " + ", ".join(allowed), allowed.__contains__


# Every config key, in the order values are parsed: its default (None: the
# key is required and must come from the file), its parser (paths resolve
# against the config's directory), what a value it cannot parse is called,
# and its rule (None: any value that parses).  The split and threshold
# defaults are the library's own, which the CLI uses without a config; the
# library classes a value reaches check it again for their own callers.
_KEYS: dict[str, tuple[str | None, Callable[[str], object], str,
                       tuple[str, Callable[[object], bool]] | None]] = {
    **{f"{name}_csv": (None, Path, "path", None) for name in ASSETS},
    **{key: (day.isoformat(), datetime.date.fromisoformat, "date", None)
       for key, day in vars(DEFAULT_SPLIT).items()},
    # the features use a short and a long average
    "ema_periods": ("5,10", lambda v: tuple(int(x) for x in v.split(",")), "list",
                    ("two distinct periods of at least 2",
                     lambda v: len(set(v)) == len(v) == 2 and min(v) >= 2)),
    "rsi_period": ("14", int, "number", _at_least(2)),
    "stoch_period": ("14", int, "number", _at_least(2)),
    "stoch_d_period": ("3", int, "number", _at_least(2)),
    "seed": ("0", int, "number", _at_least(0)),
    "nn_epochs": ("500", int, "number", _at_least(1)),
    "nn_learning_rate": ("0.01", float, "number",
                         ("finite and positive", lambda v: 0.0 < v < math.inf)),
    "nn_validation_fraction": ("0.15", float, "number",
                               ("in [0, 0.5)", lambda v: 0.0 <= v < 0.5)),
    "nn_hidden": ("sweep", lambda v: None if v == "sweep" else int(v), "number",
                  ("sweep or at least 1", lambda v: v is None or v >= 1)),
    "nn_max_hidden": ("10", int, "number", _at_least(1)),
    "stationarity_threshold": (repr(STATIONARITY_THRESHOLD), float, "number",
                               ("in (0, 1]", lambda v: 0.0 < v <= 1.0)),
    "arima_max_p": ("3", int, "number", _at_least(0)),
    "arima_max_q": ("3", int, "number", _at_least(0)),
    "arima_criterion": ("sic", str, "text", _one_of(arima.CRITERIA)),
    "stepwise_direction": ("backward", str, "text", _one_of(regression.DIRECTIONS)),
    "stepwise_criterion": ("bic", str, "text", _one_of(regression.CRITERIA)),
    "out_dir": ("out", Path, "path", None),
}

# Rules between two keys: the key, what it must be, the other key, the test.
_TIES = (
    ("train_end", "on or after train_start", "train_start", operator.ge),
    ("test_start", "after train_end", "train_end", operator.gt),
    ("test_end", "on or after test_start", "test_start", operator.ge),
    # the sweep picks its size on the held-out rows
    ("nn_validation_fraction", "above 0 when nn_hidden = sweep", "nn_hidden",
     lambda fraction, hidden: fraction > 0 or hidden is not None),
)


def _check(values: dict, texts: dict, where=lambda *keys: "", error=ValueError) -> None:
    """Raise ``error`` at the first rule ``values`` (key -> parsed value)
    break: each key's own, those between two keys, then that the CSV files
    exist.  The message starts with ``where`` of the keys involved, the one
    at fault first, and shows a value as ``texts`` has it."""
    for key, (_, _, _, rule) in _KEYS.items():
        if rule is not None and not rule[1](values[key]):
            raise error(f"{where(key)}config key '{key}': must be {rule[0]}, got {texts[key]}")
    for key, rule, other, holds in _TIES:
        if not holds(values[key], values[other]):
            raise error(f"{where(key, other)}config key '{key}': must be {rule}, "
                        f"got {texts[key]}")
    for key in (f"{name}_csv" for name in ASSETS):
        if not values[key].is_file():
            raise error(f"{where(key)}{key} does not exist: {values[key]}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; see `load_config` for the file grammar."""

    gold_csv: Path
    eurusd_csv: Path
    oil_csv: Path
    split: SplitSpec
    stationarity_threshold: float
    arima_max_p: int
    arima_max_q: int
    arima_criterion: str
    indicator_params: indicators.IndicatorParams
    stepwise_direction: str
    stepwise_criterion: str
    nn_hidden: int | None  # None means sweep sizes 1..nn_max_hidden
    nn_max_hidden: int
    nn_train: neuralnet.TrainConfig
    seed: int
    out_dir: Path

    def __post_init__(self):
        # the rules a loaded config meets, for one built or replaced in code
        _check(values := _values(self), values)


def _values(config: PipelineConfig) -> dict:
    """Each config key's value in ``config``, as its `_KEYS` row parses it."""
    return {**{key: getattr(config, key) for key in _KEYS if hasattr(config, key)},
            **vars(config.split), **vars(config.indicator_params),
            **{f"nn_{name}": value for name, value in vars(config.nn_train).items()}}


def _key_text(value) -> str:
    """A parsed config value as text its `_KEYS` row parses back to it; a
    path by its file name alone."""
    if value is None:  # nn_hidden
        return "sweep"
    if isinstance(value, tuple):  # ema_periods
        return ",".join(map(str, value))
    return value.name if isinstance(value, Path) else str(value)


def parse_config_text(text: str, base_dir: Path, overrides: dict[str, str] | None = None,
                      source: str = "<config>") -> PipelineConfig:
    """Build a config from key-value text.

    Grammar: one ``key = value`` per line, where lines end only at
    ``\\n``, ``\\r\\n`` or ``\\r``; blank lines and lines starting with ``#``
    are ignored; keys may appear once.  Unknown keys are errors
    so typos cannot silently fall back to defaults.  Relative paths are
    resolved against the config file's directory.  A value that does not
    parse or breaks a rule is a `DataFormatError` naming the key, and its
    file and line unless ``overrides`` gave it.
    """
    overrides = overrides or {}
    values: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataFormatError(f"{source}, line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise DataFormatError(f"{source}, line {line_no}: unknown key {key!r}")
        if key in values:
            raise DataFormatError(f"{source}, line {line_no}: duplicate key {key!r}")
        if not value:
            raise DataFormatError(f"{source}, line {line_no}: empty value for {key!r}")
        values[key], line_of[key] = value, line_no
    merged = {**{key: row[0] for key, row in _KEYS.items() if row[0] is not None},
              **values, **overrides}

    def where(*keys: str) -> str:
        lines = [line_of[key] for key in keys if key in line_of and key not in overrides]
        return f"{source}, line {lines[0]}: " if lines else ""

    parsed: dict = {}
    for key, (_, cast, kind, _) in _KEYS.items():
        if key not in merged:  # a required key
            raise DataFormatError(f"{source}: missing required key {key!r}")
        try:
            parsed[key] = base_dir / merged[key] if cast is Path else cast(merged[key])
        except ValueError:
            raise DataFormatError(
                f"{where(key)}config key '{key}': bad {kind} {merged[key]!r}") from None
    _check(parsed, merged, where, DataFormatError)
    # a nested object's keys are its field names, with nn_ before TrainConfig's
    return PipelineConfig(
        split=SplitSpec(**{key: parsed.pop(key) for key in vars(DEFAULT_SPLIT)}),
        indicator_params=indicators.IndicatorParams(
            **{key: parsed.pop(key) for key in vars(indicators.IndicatorParams())}),
        nn_train=neuralnet.TrainConfig(**{
            name: parsed.pop(f"nn_{name}") for name in vars(neuralnet.DEFAULT_TRAIN_CONFIG)}),
        **parsed,
    )


def load_config(path, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Read a config file; ``overrides`` replace file values (CLI flags)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataFormatError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, path.parent.resolve(), overrides, source=str(path))


@dataclass
class PipelineReport:
    """Everything `run` learned, ready for serialisation.

    ``timings`` (seconds per stage) is kept out of the JSON report so two
    identical runs produce identical bytes; it is written separately.
    """

    body: dict
    timings: dict[str, float]

    @property
    def stage_accuracies(self) -> dict[str, float]:
        return self.body["stage_accuracies"]


PREDICTION_HEADER = ("date", "actual", "predicted")
_CORRELOGRAM_LAGS = 24


def fit_asset(train: Series, config: PipelineConfig, d: int | None = None
               ) -> arima.ArimaFit:
    """Order search under the config's settings; ``d`` forces the
    differencing order instead of suggesting one."""
    if d is None:
        d = suggest_d(train, config.stationarity_threshold)
    return arima.select_order(train, d, config.arima_max_p, config.arima_max_q,
                              config.arima_criterion, config.seed)


def _whiteness(fitted: arima.ArimaFit, name: str) -> dict:
    lags = min(10 + fitted.spec.p + fitted.spec.q, fitted.residuals.size - 1)
    return vars(ljung_box(Series(fitted.residuals, name=f"{name} residuals"), lags,
                          fitted_params=fitted.spec.p + fitted.spec.q))


# --- the chain's stages; `run` times and names each one with `stage()`


@contextlib.contextmanager
def stage(name: str, timings: dict[str, float]):
    """Add the block's seconds to those under ``name``, which may name more
    than one block; re-raise a failure as `StageError` naming the stage."""
    clock = time.perf_counter
    started = clock()
    try:
        yield
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    timings[name] = timings.get(name, 0.0) + clock() - started


def _read_frames(config: PipelineConfig) -> dict[str, PriceFrame]:
    return {name: parse_csv(getattr(config, f"{name}_csv")) for name in ASSETS}


def _align(frames: dict[str, PriceFrame]) -> dict[str, PriceFrame]:
    return dict(zip(ASSETS, align_calendars([frames[a] for a in ASSETS])))


def _split(aligned: dict[str, PriceFrame], spec: SplitSpec
           ) -> tuple[dict[str, PriceFrame], PriceFrame]:
    """Every asset's training frame, and the target's test window."""
    train = {name: aligned[name].window(spec.train_start, spec.train_end) for name in ASSETS}
    return train, aligned["gold"].window(spec.test_start, spec.test_end)


def _windows(aligned: dict[str, PriceFrame], indicator_set: indicators.IndicatorSet,
             tracks: dict[str, np.ndarray], spec: SplitSpec
             ) -> tuple[regression.FeatureMatrix, regression.FeatureMatrix]:
    features = regression.build_features(
        aligned["gold"], indicator_set, tracks["eurusd"], tracks["oil"])
    return (features.window_by_target(spec.train_start, spec.train_end),
            features.window_by_target(spec.test_start, spec.test_end))


def select_columns(train_m: regression.FeatureMatrix, directions, criterion: str
                   ) -> tuple[tuple[str, ...], tuple[str, ...],
                              dict[str, regression.StepwiseTrace]]:
    """(kept, dropped, trace per direction): drop exactly collinear columns,
    then run stepwise selection on the rest in each of ``directions``."""
    kept, dropped = regression.full_rank_subset(train_m)
    reduced = train_m.with_columns(kept)
    return kept, dropped, {d: regression.stepwise(reduced, d, criterion)
                           for d in directions}


def feature_windows(config: PipelineConfig
                    ) -> tuple[regression.FeatureMatrix, regression.FeatureMatrix]:
    """Train and test feature matrices, through the same stages as `run`.

    Runs ingest, align, split, the companions' ARIMA tracks, indicators and
    features; the target's own ARIMA model is not fitted and no artifact is
    written.  The ``stepwise`` and ``train-nn`` subcommands start here.
    """
    aligned = _align(_read_frames(config))
    train, _ = _split(aligned, config.split)
    tracks = {name: arima.one_step_history(fit_asset(train[name].close_series(), config),
                                           aligned[name].close_series())
              for name in ASSETS[1:]}
    return _windows(aligned, indicators.compute(aligned["gold"], config.indicator_params),
                    tracks, config.split)


def _arima_entry(fitted: arima.ArimaFit, train: Series, correlogram: Path) -> dict:
    w = difference(train, fitted.spec.d)
    lag_cap = min(_CORRELOGRAM_LAGS, len(w) - 1)
    a, p = acf(w, lag_cap), pacf(w, lag_cap)
    write_table(correlogram, ("lag", "acf", "pacf", "band"), a.lags, a.coefficients,
                p.coefficients, np.full(lag_cap, a.band))
    return {
        "order": [fitted.spec.p, fitted.spec.d, fitted.spec.q],
        "mu": fitted.mu,
        "phi": [float(x) for x in fitted.phi],
        "theta": [float(x) for x in fitted.theta],
        "sigma2": fitted.sigma2,
        "aic": fitted.aic,
        "sic": fitted.sic,
        "ljung_box": _whiteness(fitted, train.name),
    }


def _regression_entry(fit: regression.RegressionFit, test_accuracy: float) -> dict:
    return {
        "included": list(fit.included),
        "intercept": fit.intercept,
        "coefficients": {c: float(v) for c, v in zip(fit.included, fit.coefficients)},
        "equation": fit.equation(),
        "test_accuracy": test_accuracy,
    }


def train_network(subset: tuple[str, ...], train_m: regression.FeatureMatrix,
                  test_m: regression.FeatureMatrix, config: PipelineConfig
                  ) -> tuple[dict, neuralnet.MlpModel, np.ndarray]:
    """The report entry, the model and the test-window predictions of the
    network trained on ``subset``: the sweep when ``config.nn_hidden`` is
    None, else that one size.  Writes nothing."""
    if not subset:
        raise ValueError("selected subset is empty; nothing to train on")
    nn_train_m = train_m.with_columns(subset)
    entry: dict = {"subset_source": f"{config.stepwise_direction} stepwise",
                   "columns": list(subset)}
    if config.nn_hidden is None:
        result = neuralnet.sweep(nn_train_m, config.nn_train, config.nn_max_hidden, config.seed)
        model, reports, chosen = result.model, result.reports, result.chosen
    else:
        model, report = neuralnet.train(nn_train_m, config.nn_hidden, config.nn_train,
                                        config.seed)
        reports, chosen = {config.nn_hidden: report}, config.nn_hidden
    entry["chosen_hidden"] = chosen
    entry["sweep"] = {
        str(h): {
            # null, not NaN, when no rows are held out: the report is strict JSON
            "validation_mape": None if math.isnan(r.validation_mape) else r.validation_mape,
            "train_mape": r.train_mape,
            "epochs_run": r.epochs_run,
            "early_stopped": r.early_stopped,
            "seed": r.seed,
        } for h, r in sorted(reports.items())
    }
    return entry, model, neuralnet.predict_prices(model, test_m.with_columns(subset))


def run(config: PipelineConfig) -> PipelineReport:
    """Execute the whole chain and write artifacts to ``config.out_dir``.

    Any failure is re-raised as a `StageError` naming the stage; artifacts
    from completed stages are already on disk at that point, plus a partial
    report for debugging.  Both reports are strict JSON: a non-finite number
    fails the ``report`` stage, and then no partial report is written.
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    # the values the run uses; the output directory is where the report
    # goes, not what produced it
    body: dict = {"config": {key: _key_text(value) for key, value in _values(config).items()
                             if key != "out_dir"}}
    try:
        _run_stages(config, out, body, timings)
    except StageError:
        # a non-finite number failed the report stage and cannot be written here
        with contextlib.suppress(ValueError):
            (out / "report_partial.json").write_text(json_text(body), encoding="utf-8")
        raise
    (out / "timings.json").write_text(json_text(timings), encoding="utf-8")
    return PipelineReport(body=body, timings=timings)


def _run_stages(config: PipelineConfig, out: Path, body: dict,
                timings: dict[str, float]) -> None:
    with stage("ingest", timings):
        frames = _read_frames(config)
    with stage("align", timings):
        aligned = _align(frames)
    with stage("split", timings):
        train, window = _split(aligned, config.split)
        body["split"] = {
            **{key: day.isoformat() for key, day in vars(config.split).items()},
            "train_rows": len(train["gold"]),
            "test_rows": len(window),
        }
    predicted: dict[str, np.ndarray] = {}

    def scored(name: str, values: np.ndarray) -> float:
        """Keep and write one stage's test-window predictions; return
        their accuracy."""
        predicted[name] = values
        write_table(out / f"predictions_{name}.csv", PREDICTION_HEADER,
                    window.dates, window.closes, values)
        return accuracy(window.closes, values)

    body["assets"] = {}
    tracks: dict[str, np.ndarray] = {}
    for name in ASSETS:
        with stage(f"arima_{name}", timings):
            train_series = train[name].close_series()
            fitted = fit_asset(train_series, config)
            body["assets"][name] = _arima_entry(fitted, train_series,
                                                out / f"correlogram_{name}.csv")
            # one-step track across the whole calendar; the companions' are features
            tracks[name] = arima.one_step_history(fitted, aligned[name].close_series())
    with stage("arima_gold", timings):
        start = aligned["gold"].dates.index(window.dates[0])
        body["assets"]["gold"]["test_accuracy"] = scored(
            "arima_gold", tracks["gold"][start:start + len(window)])

    with stage("indicators", timings):
        indicator_set = indicators.compute(aligned["gold"], config.indicator_params)
    with stage("features", timings):
        train_m, test_m = _windows(aligned, indicator_set, tracks, config.split)
        # so every stage is scored against the same days and closes
        if test_m.target_dates != window.dates:
            raise ValueError("feature rows do not cover the test window exactly")
        body["feature_rows"] = {"train": len(train_m), "test": len(test_m),
                                "columns": list(train_m.columns)}

    with stage("regression", timings):
        criterion = config.stepwise_criterion
        kept, dropped, traces = select_columns(train_m, regression.DIRECTIONS, criterion)
        full_fit = regression.ols(train_m, kept)
        body["full_ols"] = {
            **_regression_entry(full_fit, scored("ols_full", full_fit.predict(test_m))),
            "dropped_collinear": list(dropped),
            "bic": full_fit.bic,
        }
        body["stepwise"] = {
            direction: {
                **_regression_entry(trace.fit, scored(f"stepwise_{direction}",
                                                      trace.fit.predict(test_m))),
                "steps": [{"action": s.action, "column": s.column,
                           "criterion": s.criterion} for s in trace.steps],
                "criterion": criterion,
                "final_criterion": getattr(trace.fit, criterion),
            } for direction, trace in traces.items()
        }

    with stage("neural_net", timings):
        entry, model, nn_preds = train_network(
            traces[config.stepwise_direction].fit.included, train_m, test_m, config)
        (out / "model_nn.json").write_text(neuralnet.model_to_json(model), encoding="utf-8")
        entry["test_accuracy"] = scored("hybrid_nn", nn_preds)
        body["neural_net"] = entry
    with stage("report", timings):
        body["stage_accuracies"] = {
            "arima_gold": body["assets"]["gold"]["test_accuracy"],
            "full_ols": body["full_ols"]["test_accuracy"],
            "stepwise_forward": body["stepwise"]["forward"]["test_accuracy"],
            "stepwise_backward": body["stepwise"]["backward"]["test_accuracy"],
            "hybrid_nn": body["neural_net"]["test_accuracy"],
        }
        body["seed"] = config.seed
        (out / "report.json").write_text(json_text(body), encoding="utf-8")
    with stage("plot_data", timings):
        write_table(out / "comparison.csv", ("date", "actual", "arima", "regression", "hybrid"),
                    window.dates, window.closes, predicted["arima_gold"],
                    predicted[f"stepwise_{config.stepwise_direction}"], predicted["hybrid_nn"])
