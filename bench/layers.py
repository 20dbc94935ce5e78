"""Which chaincast functions the traced run wraps, and the per-layer metrics.

Each layer is one chaincast module, timed at the calls into its public
functions.  Counters are read from the arguments and return values those
calls already carry (optimizer results, training reports), so the program
needs no hooks of its own.  The layer, metric and workload mapping is
written out in README.md next to this file.
"""

from __future__ import annotations

import math
import sys

from spans import Tracer, busy, self_times


def _parse_rows(counters, frame, args):
    counters["ingest.rows"] += len(frame)


def _fit_ok(counters, fitted, args):
    counters["arima.fit_calls"] += 1
    if fitted.spec.p + fitted.spec.q:
        counters["arima.fits_from_optimizer"] += 1


def _fit_failed(counters, exc, args):
    counters["arima.fit_calls"] += 1
    counters["arima.fit_failed"] += 1


def _minimize_done(counters, result, args):
    counters["arima.minimize_calls"] += 1
    counters["arima.nfev"] += int(result.nfev)
    if not result.success:
        counters["arima.minimize_unconverged"] += 1


def _ols_ok(counters, fit, args):
    counters["regression.ols_calls"] += 1


def _ols_failed(counters, exc, args):
    counters["regression.ols_calls"] += 1
    if type(exc).__name__ == "RankDeficiencyError":
        counters["regression.ols_rank_deficient"] += 1


def _train_ok(counters, result, args):
    _, report = result
    config = args["config"]
    rows = len(args["m"])
    # the same split `neuralnet.train` makes: the validation tail is not stepped on
    fit_rows = rows - int(round(rows * config.validation_fraction))
    counters["neuralnet.train_calls"] += 1
    counters["neuralnet.epochs"] += report.epochs_run
    counters["neuralnet.epochs_budgeted"] += config.epochs
    counters["neuralnet.steps"] += report.epochs_run * math.ceil(fit_rows / config.batch_size)
    counters["neuralnet.early_stopped"] += int(report.early_stopped)


def _train_failed(counters, exc, args):
    counters["neuralnet.train_calls"] += 1
    counters["neuralnet.epochs_budgeted"] += args["config"].epochs
    if type(exc).__name__ == "DivergenceError":
        counters["neuralnet.diverged"] += 1


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary in every loaded chaincast module.

    Returns the boundaries the program no longer has, so a refactor that
    renames one shows up in the result rather than stopping the run.
    """
    from chaincast import arima, indicators, ingest, neuralnet, pipeline, regression, series

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "chaincast" or name.startswith("chaincast."))]
    boundaries = [
        (ingest, "parse_csv", "ingest.parse_csv", _parse_rows, None),
        (ingest, "align_calendars", "ingest.align_calendars", None, None),
        (series, "suggest_d", "series.suggest_d", None, None),
        (series, "acf", "series.acf", None, None),
        (series, "pacf", "series.pacf", None, None),
        (series, "ljung_box", "series.ljung_box", None, None),
        (arima, "select_order", "arima.select_order", None, None),
        (arima, "fit", "arima.fit", _fit_ok, _fit_failed),
        (arima, "minimize", "arima.minimize", _minimize_done, None),
        (arima, "rolling_one_step", "arima.one_step", None, None),
        (arima, "one_step_history", "arima.one_step", None, None),
        (indicators, "compute", "indicators.compute", None, None),
        (regression, "build_features", "regression.build_features", None, None),
        (regression, "full_rank_subset", "regression.full_rank_subset", None, None),
        (regression, "stepwise", "regression.stepwise", None, None),
        (regression, "ols", "regression.ols", _ols_ok, _ols_failed),
        (neuralnet, "sweep", "neuralnet.sweep", None, None),
        (neuralnet, "train", "neuralnet.train", _train_ok, _train_failed),
        (pipeline, "load_config", "pipeline.load_config", None, None),
        (pipeline, "run", "pipeline.run", None, None),
    ]
    missing = []
    for owner, attr, name, on_result, on_error in boundaries:
        if not callable(getattr(owner, attr, None)) or \
                tracer.patch(modules, owner, attr, name, on_result, on_error) == 0:
            missing.append(f"{owner.__name__}.{attr}")
    return missing


# Counters that must repeat exactly between traced operations of one input.
EXACT_COUNTS = ("arima.nfev", "arima.minimize_calls", "regression.ols_calls",
                "neuralnet.epochs", "neuralnet.steps")

SERIES_SPANS = ("series.suggest_d", "series.acf", "series.pacf", "series.ljung_box")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced operation.

    ``neuralnet.sweep_s`` is the time spent training networks, through
    ``sweep`` or through a fixed-size ``train`` called on its own.
    ``pipeline.self_s`` is the self time of the ``pipeline`` spans and
    ``cli.self_s`` that of the spans the benchmark opens around ``cli.main``.
    """
    spans, c = tracer.spans, tracer.counters
    own = self_times(spans)
    minimize_s = busy(spans, ["arima.minimize"])
    ols_s = busy(spans, ["regression.ols"])
    train_s = busy(spans, ["neuralnet.train"])
    return {
        "ingest.parse_csv_s": busy(spans, ["ingest.parse_csv"]),
        "ingest.rows": c["ingest.rows"],
        "ingest.align_calendars_s": busy(spans, ["ingest.align_calendars"]),
        "series.busy_s": busy(spans, SERIES_SPANS),
        "arima.select_order_s": busy(spans, ["arima.select_order"]),
        "arima.fit_calls": c["arima.fit_calls"],
        "arima.fit_failed": c["arima.fit_failed"],
        "arima.minimize_calls": c["arima.minimize_calls"],
        "arima.minimize_unconverged": c["arima.minimize_unconverged"],
        "arima.nfev": c["arima.nfev"],
        "arima.us_per_nfev": 1e6 * _ratio(minimize_s, c["arima.nfev"]),
        "arima.useful_ratio": _ratio(c["arima.fits_from_optimizer"],
                                     c["arima.minimize_calls"]),
        "arima.one_step_s": busy(spans, ["arima.one_step"]),
        "indicators.compute_s": busy(spans, ["indicators.compute"]),
        "regression.build_features_s": busy(spans, ["regression.build_features"]),
        "regression.full_rank_subset_s": busy(spans, ["regression.full_rank_subset"]),
        "regression.stepwise_s": busy(spans, ["regression.stepwise"]),
        "regression.ols_calls": c["regression.ols_calls"],
        "regression.ols_rank_deficient": c["regression.ols_rank_deficient"],
        "regression.us_per_ols": 1e6 * _ratio(ols_s, c["regression.ols_calls"]),
        "neuralnet.sweep_s": busy(spans, ["neuralnet.sweep", "neuralnet.train"]),
        "neuralnet.train_s": train_s,
        "neuralnet.train_calls": c["neuralnet.train_calls"],
        "neuralnet.epochs": c["neuralnet.epochs"],
        "neuralnet.epoch_budget_ratio": _ratio(c["neuralnet.epochs"],
                                               c["neuralnet.epochs_budgeted"]),
        "neuralnet.steps": c["neuralnet.steps"],
        "neuralnet.us_per_step": 1e6 * _ratio(train_s, c["neuralnet.steps"]),
        "neuralnet.diverged": c["neuralnet.diverged"],
        "neuralnet.early_stopped": c["neuralnet.early_stopped"],
        "pipeline.self_s": sum(t for s, t in zip(spans, own)
                               if s.name.startswith("pipeline.")),
        "cli.self_s": sum(t for s, t in zip(spans, own) if s.name == "cli.main"),
    }
