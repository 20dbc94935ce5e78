"""End-to-end driver: three assets in, comparative accuracy report out.

The chain models the target asset (gold) with two companions (EUR-USD and
oil).  Per run: ingest and align the three calendars, split train/test, pick
a differencing order and ARIMA model per asset, roll one-step forecasts of
both companions across the whole calendar, compute the target's indicators,
assemble the feature matrix, fit the full least-squares equation plus both
stepwise directions, train the network sweep on the selected subset, and
write every artifact (prediction CSVs, correlograms, model weights, report)
into one output directory.

Accuracies for every stage are measured on the identical test window, as
100 minus the MAPE of one-step-ahead predictions.
"""

from __future__ import annotations

import datetime
import io
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import arima, indicators, neuralnet, regression
from .errors import DataFormatError, StageError
from .ingest import FORMATS, PriceFrame, SplitSpec, align_calendars, parse_csv, split
from .metrics import accuracy
from .series import Series, acf, difference, ljung_box, pacf, suggest_d

ASSETS = ("gold", "eurusd", "oil")  # target first, then companions (x2, x3 order)

_DEFAULTS: dict[str, str] = {
    "csv_format": "auto",
    "train_start": "2015-01-01",
    "train_end": "2018-01-01",
    "test_start": "2018-01-02",
    "test_end": "2019-01-01",
    "stationarity_threshold": "0.95",
    "arima_max_p": "3",
    "arima_max_q": "3",
    "arima_criterion": "sic",
    "ema_periods": "5,10",
    "rsi_period": "14",
    "stoch_period": "14",
    "stoch_d_period": "3",
    "stepwise_direction": "backward",
    "stepwise_criterion": "bic",
    "nn_hidden": "sweep",
    "nn_max_hidden": "10",
    "nn_epochs": "500",
    "nn_learning_rate": "0.01",
    "nn_batch_size": "32",
    "nn_validation_fraction": "0.15",
    "nn_plateau_patience": "50",
    "seed": "0",
    "out_dir": "out",
}
_REQUIRED = ("gold_csv", "eurusd_csv", "oil_csv")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; see `load_config` for the file grammar."""

    gold_csv: Path
    eurusd_csv: Path
    oil_csv: Path
    csv_format: str
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
    raw: dict[str, str] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for name in ("gold_csv", "eurusd_csv", "oil_csv"):
            p = getattr(self, name)
            if not p.is_file():
                raise DataFormatError(f"{name} does not exist: {p}")
        if self.stepwise_direction not in ("forward", "backward"):
            raise ValueError(f"bad stepwise_direction {self.stepwise_direction!r}")
        if self.stepwise_criterion not in ("aic", "bic"):
            raise ValueError(f"bad stepwise_criterion {self.stepwise_criterion!r}")
        if self.arima_criterion not in ("aic", "sic"):
            raise ValueError(f"bad arima_criterion {self.arima_criterion!r}")
        for key, low in (("nn_hidden", 1), ("nn_max_hidden", 1),
                         ("arima_max_p", 0), ("arima_max_q", 0)):
            value = getattr(self, key)
            if value is not None and value < low:  # nn_hidden None means sweep
                raise ValueError(f"config key '{key}': must be at least {low}, got {value}")
        if not 0 < self.stationarity_threshold <= 1:
            raise ValueError("config key 'stationarity_threshold': must be in (0, 1], "
                             f"got {self.stationarity_threshold}")
        if self.csv_format not in FORMATS:
            raise ValueError(f"config key 'csv_format': must be one of {', '.join(FORMATS)}, "
                             f"got {self.csv_format!r}")
        if self.nn_hidden is None and not self.nn_train.validation_fraction:
            raise ValueError("config key 'nn_validation_fraction': the sweep "
                             "(nn_hidden = sweep) needs a non-zero value")


def parse_config_text(text: str, base_dir: Path, overrides: dict[str, str] | None = None,
                      source: str = "<config>") -> PipelineConfig:
    """Build a config from key-value text.

    Grammar: one ``key = value`` per line, where lines end only at
    ``\\n``, ``\\r\\n`` or ``\\r``; blank lines and lines starting with ``#``
    are ignored; keys may appear once.  Unknown keys are errors
    so typos cannot silently fall back to defaults.  Relative paths are
    resolved against the config file's directory.
    """
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
        if key not in _DEFAULTS and key not in _REQUIRED:
            raise DataFormatError(f"{source}, line {line_no}: unknown key {key!r}")
        if key in values:
            raise DataFormatError(f"{source}, line {line_no}: duplicate key {key!r}")
        if not value:
            raise DataFormatError(f"{source}, line {line_no}: empty value for {key!r}")
        values[key], line_of[key] = value, line_no
    for key in _REQUIRED:
        if key not in values:
            raise DataFormatError(f"{source}: missing required key {key!r}")
    merged = {**_DEFAULTS, **values, **(overrides or {})}

    def path_of(key: str) -> Path:
        p = Path(merged[key])
        return p if p.is_absolute() else base_dir / p

    def parsed(key: str, cast, kind: str = "number"):
        """``cast`` of a value; a bad one names the line it came from."""
        try:
            return cast(merged[key])
        except ValueError:
            where = (f"{source}, line {line_of[key]}: "
                     if key in line_of and key not in (overrides or {}) else "")
            raise DataFormatError(
                f"{where}config key '{key}': bad {kind} {merged[key]!r}") from None

    split_spec = SplitSpec(*(parsed(key, datetime.date.fromisoformat, "date") for key in
                             ("train_start", "train_end", "test_start", "test_end")))
    params = indicators.IndicatorParams(
        ema_periods=parsed("ema_periods", lambda v: tuple(int(x) for x in v.split(",")), "list"),
        rsi_period=parsed("rsi_period", int),
        stoch_period=parsed("stoch_period", int),
        stoch_d_period=parsed("stoch_d_period", int),
    )
    seed = parsed("seed", int)
    nn_train = neuralnet.TrainConfig(
        epochs=parsed("nn_epochs", int),
        learning_rate=parsed("nn_learning_rate", float),
        batch_size=parsed("nn_batch_size", int),
        seed=seed,
        validation_fraction=parsed("nn_validation_fraction", float),
        plateau_patience=parsed("nn_plateau_patience", int),
    )
    nn_hidden = None if merged["nn_hidden"] == "sweep" else parsed("nn_hidden", int)
    return PipelineConfig(
        gold_csv=path_of("gold_csv"),
        eurusd_csv=path_of("eurusd_csv"),
        oil_csv=path_of("oil_csv"),
        csv_format=merged["csv_format"],
        split=split_spec,
        stationarity_threshold=parsed("stationarity_threshold", float),
        arima_max_p=parsed("arima_max_p", int),
        arima_max_q=parsed("arima_max_q", int),
        arima_criterion=merged["arima_criterion"],
        indicator_params=params,
        stepwise_direction=merged["stepwise_direction"],
        stepwise_criterion=merged["stepwise_criterion"],
        nn_hidden=nn_hidden,
        nn_max_hidden=parsed("nn_max_hidden", int),
        nn_train=nn_train,
        seed=seed,
        out_dir=path_of("out_dir"),
        raw=merged,
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

    def to_json(self) -> str:
        return json.dumps(self.body, indent=2, sort_keys=True) + "\n"

    @property
    def stage_accuracies(self) -> dict[str, float]:
        return self.body["stage_accuracies"]


def write_predictions(path: Path, dates, actual: np.ndarray,
                       predicted: np.ndarray) -> None:
    lines = ["date,actual,predicted"]
    for day, a, p in zip(dates, actual, predicted):
        lines.append(f"{day.isoformat()},{float(a)!r},{float(p)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_correlogram(path: Path, train_diff: Series, max_lag: int = 24) -> None:
    lag_cap = min(max_lag, len(train_diff) - 1)
    a = acf(train_diff, lag_cap)
    p = pacf(train_diff, lag_cap)
    lines = ["lag,acf,pacf,band"]
    for i in range(lag_cap):
        lines.append(f"{int(a.lags[i])},{float(a.coefficients[i])!r},"
                     f"{float(p.coefficients[i])!r},{float(a.band)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fit_asset(train: Series, config: PipelineConfig, d: int | None = None
               ) -> arima.ArimaFit:
    """Order search under the config's settings; ``d`` forces the
    differencing order instead of suggesting one."""
    if d is None:
        d = suggest_d(train, config.stationarity_threshold)
    return arima.select_order(
        train, d, max_p=config.arima_max_p, max_q=config.arima_max_q,
        criterion=config.arima_criterion,
        config=arima.FitConfig(seed=config.seed),
    )


def _whiteness(fitted: arima.ArimaFit) -> dict:
    lags = min(10 + fitted.spec.p + fitted.spec.q, fitted.n_effective - 1)
    report = ljung_box(Series(fitted.residuals, name="resid"), lags,
                       fitted_params=fitted.spec.p + fitted.spec.q)
    return {
        "statistic": report.statistic, "dof": report.dof,
        "p_value": report.p_value, "lags": report.lags,
        "is_white": report.is_white,
    }


# --- the chain's stages; `run` times and names each one with `stage()`


@contextmanager
def stage(name: str, timings: dict[str, float]):
    """Record the block's seconds under ``name``; re-raise a failure as
    `StageError` naming the stage."""
    clock = time.perf_counter
    started = clock()
    try:
        yield
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    timings[name] = clock() - started


def _read_frames(config: PipelineConfig) -> dict[str, PriceFrame]:
    return {name: parse_csv(getattr(config, f"{name}_csv"), config.csv_format)
            for name in ASSETS}


def _align(frames: dict[str, PriceFrame]) -> dict[str, PriceFrame]:
    return dict(zip(ASSETS, align_calendars([frames[a] for a in ASSETS])))


def _split(aligned: dict[str, PriceFrame], spec: SplitSpec
           ) -> tuple[dict[str, PriceFrame], dict[str, PriceFrame]]:
    halves = {name: split(aligned[name], spec) for name in ASSETS}
    return ({name: h[0] for name, h in halves.items()},
            {name: h[1] for name, h in halves.items()})


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
    tracks = {name: arima.one_step_history(_fit_asset(train[name].close_series(), config),
                                           aligned[name].close_series())
              for name in ASSETS[1:]}
    return _windows(aligned, indicators.compute(aligned["gold"], config.indicator_params),
                    tracks, config.split)


def _arima_entry(fitted: arima.ArimaFit, train: Series, correlogram: Path) -> dict:
    _write_correlogram(correlogram, difference(train, fitted.spec.d))
    return {
        "order": [fitted.spec.p, fitted.spec.d, fitted.spec.q],
        "mu": fitted.mu,
        "phi": [float(x) for x in fitted.phi],
        "theta": [float(x) for x in fitted.theta],
        "sigma2": fitted.sigma2,
        "aic": fitted.aic,
        "sic": fitted.sic,
        "ljung_box": _whiteness(fitted),
    }


def _regression_entry(fit: regression.RegressionFit, test_m: regression.FeatureMatrix,
                      predictions: Path) -> dict:
    result = regression.evaluate(fit, test_m)
    write_predictions(predictions, test_m.target_dates, test_m.y, result.predictions)
    return {
        "included": list(fit.included),
        "intercept": fit.intercept,
        "coefficients": {c: float(v) for c, v in zip(fit.included, fit.coefficients)},
        "equation": fit.equation(),
        "test_accuracy": result.accuracy,
    }


def _neural_net(subset: tuple[str, ...], train_m: regression.FeatureMatrix,
                test_m: regression.FeatureMatrix, config: PipelineConfig,
                out: Path) -> dict:
    if not subset:
        raise ValueError("selected subset is empty; nothing to train on")
    nn_train_m = train_m.with_columns(subset)
    nn_test_m = test_m.with_columns(subset)
    entry: dict = {"subset_source": f"{config.stepwise_direction} stepwise",
                   "columns": list(subset)}
    if config.nn_hidden is None:
        result = neuralnet.sweep(nn_train_m, config.nn_train, config.nn_max_hidden)
        model, reports, chosen = result.model, result.reports, result.chosen
        if result.failures:
            entry["diverged"] = {str(h): msg for h, msg in sorted(result.failures.items())}
    else:
        model, report = neuralnet.train(nn_train_m, config.nn_hidden, config.nn_train)
        reports, chosen = {config.nn_hidden: report}, config.nn_hidden
    entry["chosen_hidden"] = chosen
    entry["sweep"] = {
        str(h): {
            "validation_mape": r.validation_mape,
            "train_mape": r.train_mape,
            "epochs_run": r.epochs_run,
            "early_stopped": r.early_stopped,
            "seed": r.seed,
        } for h, r in sorted(reports.items())
    }
    nn_mape, nn_preds = neuralnet.evaluate(model, nn_test_m)
    write_predictions(out / "predictions_hybrid_nn.csv", nn_test_m.target_dates,
                       nn_test_m.y, nn_preds)
    (out / "model_nn.json").write_text(
        neuralnet.model_to_json(model) + "\n", encoding="utf-8")
    entry["test_accuracy"] = 100.0 - nn_mape
    return entry


def run(config: PipelineConfig) -> PipelineReport:
    """Execute the whole chain and write artifacts to ``config.out_dir``.

    Any failure is re-raised as a `StageError` naming the stage; artifacts
    from completed stages are already on disk at that point, plus a partial
    report for debugging.
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    # the output directory is where the report goes, not what produced it
    body: dict = {"config": {k: v for k, v in sorted(config.raw.items()) if k != "out_dir"}}
    try:
        _run_stages(config, out, body, timings)
    except StageError:
        (out / "report_partial.json").write_text(
            json.dumps(body, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8")
        raise
    report = PipelineReport(body=body, timings=timings)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "timings.json").write_text(
        json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return report


def _run_stages(config: PipelineConfig, out: Path, body: dict,
                timings: dict[str, float]) -> None:
    with stage("ingest", timings):
        frames = _read_frames(config)
    with stage("align", timings):
        aligned = _align(frames)
    with stage("split", timings):
        train, test = _split(aligned, config.split)
        body["split"] = {
            "train_start": config.split.train_start.isoformat(),
            "train_end": config.split.train_end.isoformat(),
            "test_start": config.split.test_start.isoformat(),
            "test_end": config.split.test_end.isoformat(),
            "train_rows": len(train["gold"]),
            "test_rows": len(test["gold"]),
        }

    body["assets"] = {}
    tracks: dict[str, np.ndarray] = {}
    for name in ASSETS:
        with stage(f"arima_{name}", timings):
            train_series = train[name].close_series()
            fitted = _fit_asset(train_series, config)
            entry = _arima_entry(fitted, train_series, out / f"correlogram_{name}.csv")
            if name == "gold":
                preds = arima.rolling_one_step(fitted, test[name].close_series(),
                                               train[name].closes)
                write_predictions(out / "predictions_arima_gold.csv",
                                   test[name].dates, test[name].closes, preds.values)
                entry["test_accuracy"] = accuracy(test[name].closes, preds.values)
            else:
                # one-step forecast track across the whole calendar, used as
                # a regression feature on both windows
                tracks[name] = arima.one_step_history(fitted, aligned[name].close_series())
            body["assets"][name] = entry

    with stage("indicators", timings):
        indicator_set = indicators.compute(aligned["gold"], config.indicator_params)
    with stage("features", timings):
        train_m, test_m = _windows(aligned, indicator_set, tracks, config.split)
        if test_m.target_dates != test["gold"].dates:
            raise ValueError("feature rows do not cover the test window exactly")
        body["feature_rows"] = {"train": len(train_m), "test": len(test_m),
                                "columns": list(train_m.columns)}

    with stage("regression", timings):
        criterion = config.stepwise_criterion
        kept, dropped, traces = select_columns(train_m, ("forward", "backward"), criterion)
        full_fit = regression.ols(train_m, kept)
        body["full_ols"] = {
            **_regression_entry(full_fit, test_m, out / "predictions_ols_full.csv"),
            "dropped_collinear": list(dropped),
            "bic": full_fit.bic,
        }
        body["stepwise"] = {
            direction: {
                **_regression_entry(trace.fit, test_m,
                                    out / f"predictions_stepwise_{direction}.csv"),
                "steps": [{"action": s.action, "column": s.column,
                           "criterion": s.criterion} for s in trace.steps],
                "criterion": criterion,
                "final_criterion": getattr(trace.fit, criterion),
            } for direction, trace in traces.items()
        }

    with stage("neural_net", timings):
        body["neural_net"] = _neural_net(traces[config.stepwise_direction].fit.included,
                                         train_m, test_m, config, out)
    with stage("report", timings):
        body["stage_accuracies"] = {
            "arima_gold": body["assets"]["gold"]["test_accuracy"],
            "full_ols": body["full_ols"]["test_accuracy"],
            "stepwise_forward": body["stepwise"]["forward"]["test_accuracy"],
            "stepwise_backward": body["stepwise"]["backward"]["test_accuracy"],
            "hybrid_nn": body["neural_net"]["test_accuracy"],
        }
        body["seed"] = config.seed
    with stage("plot_data", timings):
        emit_plot_data(out, regression_direction=config.stepwise_direction)


def _read_predictions(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    if not path.is_file():
        raise DataFormatError(f"missing stage artifact: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    dates, actual, predicted = [], [], []
    for line in lines[1:]:
        day, a, p = line.split(",")
        dates.append(day)
        actual.append(float(a))
        predicted.append(float(p))
    return dates, np.array(actual), np.array(predicted)


def emit_plot_data(out_dir, regression_direction: str = "backward") -> Path:
    """Merge per-stage prediction CSVs into one plot-ready comparison file.

    Writes ``comparison.csv`` with columns date, actual, arima, regression,
    hybrid over the test window.  Reads the prediction artifacts back from
    disk, so it can be re-run standalone after a pipeline run; rewriting is
    idempotent.
    """
    out = Path(out_dir)
    dates, actual, arima_preds = _read_predictions(out / "predictions_arima_gold.csv")
    r_dates, r_actual, reg_preds = _read_predictions(
        out / f"predictions_stepwise_{regression_direction}.csv")
    h_dates, _, nn_preds = _read_predictions(out / "predictions_hybrid_nn.csv")
    if r_dates != dates or h_dates != dates:
        raise DataFormatError("prediction artifacts cover different date ranges")
    if not np.array_equal(actual, r_actual):
        raise DataFormatError("prediction artifacts disagree on actual closes")
    lines = ["date,actual,arima,regression,hybrid"]
    for i, day in enumerate(dates):
        lines.append(f"{day},{float(actual[i])!r},{float(arima_preds[i])!r},"
                     f"{float(reg_preds[i])!r},{float(nn_preds[i])!r}")
    path = out / "comparison.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
