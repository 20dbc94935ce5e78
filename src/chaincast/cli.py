"""Command-line entry points.

One executable, one subcommand per stage, plus the full chain:

* ``diagnose``    stationarity and correlogram tables for one series
* ``fit-arima``   order search, fit summary, held-out one-step accuracy
* ``indicators``  indicator table as CSV (empty cells during warm-up)
* ``stepwise``    variable selection trace and the fitted equation
* ``train-nn``    network training or hidden-size sweep
* ``pipeline``    the whole chain from a config file
* ``make-fixture`` deterministic three-asset demo data plus a config
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from . import arima, indicators, neuralnet, pipeline, synthetic
from .errors import ChaincastError
from .ingest import DEFAULT_SPLIT, parse_csv, split as split_frame, table_text, \
    write_table
from .metrics import accuracy
from .series import STATIONARITY_THRESHOLD, acf, difference, pacf, suggest_d


def _key_flag(key: str):
    """The argparse type of a flag that sets config key ``key``: its `_KEYS`
    row parses and checks the text, before the command does any work."""
    _, cast, _, (rule, holds) = pipeline._KEYS[key]

    def parse(text: str):
        with contextlib.suppress(ValueError):
            if holds(value := cast(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


def _key_option(parser, flag: str, key: str, text: str, parse=None) -> None:
    """Declare ``flag`` as an override of config key ``key``, checked by its
    `_KEYS` row unless ``parse`` is given; left out, it leaves the config's value."""
    default, _, _, rule = pipeline._KEYS[key]
    must = f"must be {rule[0]}; " if rule else ""
    parser.add_argument(flag, dest=key, type=parse or _key_flag(key), default=argparse.SUPPRESS,
                        help=f"{text} ({must}default: the config's {key}, else {default})")


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    """The config keys the command line set, as text their rows parse."""
    return {key: pipeline._key_text(value) for key, value in vars(args).items()
            if key in pipeline._KEYS}


def _cmd_diagnose(args: argparse.Namespace) -> int:
    frame = parse_csv(args.input)
    closes = frame.close_series()
    d = args.d if args.d is not None else suggest_d(closes, args.threshold)
    w = difference(closes, d)
    max_lag = min(args.max_lag, len(w) - 1)
    a = acf(w, max_lag)
    p = pacf(w, max_lag)
    print(f"series: {closes.name} ({len(closes)} observations)")
    print(f"differencing order: {d}" + ("" if args.d is None else " (forced)"))
    print(f"confidence band: +/-{a.band:.4f}")
    print(f"{'lag':>4} {'acf':>9} {'pacf':>9}")
    significant = a.significant()
    for i in range(max_lag):
        mark = "*" if significant[i] else " "
        print(f"{a.lags[i]:>4} {a.coefficients[i]:>9.4f} {p.coefficients[i]:>9.4f} {mark}")
    return 0


def _cmd_fit_arima(args: argparse.Namespace) -> int:
    frame = parse_csv(args.input)
    if args.config:
        # the pipeline's own search settings, flags given here winning
        config = pipeline.load_config(args.config, _overrides(args))
        train, test = split_frame(frame, config.split)
        fitted = pipeline.fit_asset(train.close_series(), config, args.d)
        criterion = config.arima_criterion
    else:
        # what no flag gives is select_order's default, which is the config's
        given = {key.removeprefix("arima_"): value for key, value in vars(args).items()
                 if key.startswith("arima_")}
        train, test = split_frame(frame, DEFAULT_SPLIT)
        closes = train.close_series()
        d = args.d if args.d is not None else suggest_d(closes)
        fitted = arima.select_order(closes, d, **given)
        criterion = given.get("criterion", pipeline._KEYS["arima_criterion"][0])
    spec = fitted.spec
    print(f"selected order: ({spec.p},{spec.d},{spec.q}) by {criterion}")
    print(f"mu = {fitted.mu:.6g}")
    if spec.p:
        print("ar coefficients: " + ", ".join(f"{x:.4f}" for x in fitted.phi))
    if spec.q:
        print("ma coefficients: " + ", ".join(f"{x:.4f}" for x in fitted.theta))
    print(f"sigma^2 = {fitted.sigma2:.6g}   aic = {fitted.aic:.2f}   sic = {fitted.sic:.2f}")
    # the held-out days' stretch of the one-step track over the file's calendar
    start = frame.dates.index(test.dates[0])
    preds = arima.one_step_history(fitted, frame.close_series())[start:start + len(test)]
    acc = accuracy(test.closes, preds)
    print(f"rolling one-step accuracy on {len(test)} held-out days: {acc:.2f}%")
    if args.out:
        write_table(args.out, pipeline.PREDICTION_HEADER, test.dates, test.closes, preds)
        print(f"predictions written to {args.out}")
    return 0


def _cmd_indicators(args: argparse.Namespace) -> int:
    frame = parse_csv(args.input)
    result = indicators.compute(frame)
    text = table_text(("date", *result.columns), result.dates, *result.columns.values())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"indicator table written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_stepwise(args: argparse.Namespace) -> int:
    config = pipeline.load_config(args.config, _overrides(args))
    train_m, test_m = pipeline.feature_windows(config)
    direction, criterion = config.stepwise_direction, config.stepwise_criterion
    _, dropped, traces = pipeline.select_columns(train_m, (direction,), criterion)
    if dropped:
        print("dropped exactly collinear column(s): " + ", ".join(dropped))
    trace = traces[direction]
    for step in trace.steps:
        print(f"{step.action} {step.column}: {criterion} -> {step.criterion:.2f}")
    if not trace.steps:
        print("no move improved the criterion; model unchanged")
    print(f"selected: {', '.join(trace.fit.included) or '(intercept only)'}")
    print(trace.fit.equation())
    acc = accuracy(test_m.y, trace.fit.predict(test_m))
    print(f"test accuracy on {len(test_m)} days: {acc:.2f}%")
    return 0


def _cmd_train_nn(args: argparse.Namespace) -> int:
    # the config's checks apply to the size this command trains
    config = pipeline.load_config(args.config, _overrides(args))
    train_m, test_m = pipeline.feature_windows(config)
    direction = config.stepwise_direction
    _, _, traces = pipeline.select_columns(train_m, (direction,), config.stepwise_criterion)
    subset = traces[direction].fit.included
    print(f"training on {direction}-selected columns: {', '.join(subset)}")
    entry, model, preds = pipeline.train_network(subset, train_m, test_m, config)
    if config.nn_hidden is None:
        for h, r in entry["sweep"].items():
            flag = "" if r["early_stopped"] else " (iteration cap)"
            print(f"hidden {h:>2}: validation MAPE {r['validation_mape']:.4f}%{flag}")
        print(f"chosen hidden size: {entry['chosen_hidden']}")
    else:
        r = entry["sweep"][str(config.nn_hidden)]
        held_out = ("no validation rows" if r["validation_mape"] is None
                    else f"validation MAPE {r['validation_mape']:.4f}%")
        print(f"hidden {config.nn_hidden}: train MAPE {r['train_mape']:.4f}%, "
              f"{held_out}, {r['epochs_run']} iterations")
    acc = accuracy(test_m.y, preds)
    print(f"test accuracy on {len(test_m)} days: {acc:.2f}%")
    if args.out:
        Path(args.out).write_text(neuralnet.model_to_json(model), encoding="utf-8")
        print(f"model written to {args.out}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = pipeline.load_config(args.config, _overrides(args))
    report = pipeline.run(config)
    print(f"artifacts written to {config.out_dir}")
    for stage, acc in sorted(report.stage_accuracies.items()):
        print(f"{stage:>18}: {acc:.2f}%")
    return 0


def _cmd_make_fixture(args: argparse.Namespace) -> int:
    out = Path(args.out)
    paths = synthetic.make_fixture(out, seed=args.seed)
    config_path = out / "pipeline.cfg"
    config_path.write_text(
        "# generated demo configuration\n"
        + "".join(f"{name}_csv = {paths[name].name}\n" for name in pipeline.ASSETS)
        + "".join(f"{key} = {day.isoformat()}\n" for key, day in vars(DEFAULT_SPLIT).items())
        + "out_dir = out\n",
        encoding="utf-8")
    for name in pipeline.ASSETS:
        print(f"wrote {paths[name]}")
    print(f"wrote {config_path}")
    print(f"run: chaincast pipeline run --config {config_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincast",
        description="Staged daily-price forecasting: ARIMA, indicators, "
                    "stepwise regression, neural network.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("diagnose", help="stationarity and correlogram tables")
    p.add_argument("--input", required=True, help="CSV file with daily bars")
    p.add_argument("--d", type=int, default=None, help="force a differencing order")
    p.add_argument("--threshold", type=_key_flag("stationarity_threshold"),
                   default=STATIONARITY_THRESHOLD,
                   help="lag-1 autocorrelation threshold for suggesting d "
                        "(default %(default)s)")
    p.add_argument("--max-lag", type=int, default=20)
    p.set_defaults(func=_cmd_diagnose)

    p = subs.add_parser("fit-arima", help="order search and held-out accuracy")
    p.add_argument("--input", required=True, help="CSV file with daily bars")
    p.add_argument("--config", default=None,
                   help="config file supplying the train/test split and the "
                        "search settings (arima_*, stationarity_threshold, seed)")
    p.add_argument("--d", type=int, default=None)
    skipped = f"cells with p + q > {arima.MAX_ORDER} are skipped"
    _key_option(p, "--max-p", "arima_max_p", "largest AR order searched; " + skipped)
    _key_option(p, "--max-q", "arima_max_q", "largest MA order searched; " + skipped)
    _key_option(p, "--criterion", "arima_criterion", "criterion ranking the orders")
    p.add_argument("--out", default=None, help="write predictions CSV here")
    p.set_defaults(func=_cmd_fit_arima)

    p = subs.add_parser("indicators", help="indicator table as CSV")
    p.add_argument("--input", required=True, help="CSV file with daily bars")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_indicators)

    p = subs.add_parser("stepwise", help="variable selection trace")
    p.add_argument("--config", required=True)
    _key_option(p, "--direction", "stepwise_direction", "search direction")
    _key_option(p, "--criterion", "stepwise_criterion", "criterion ranking the moves")
    p.set_defaults(func=_cmd_stepwise)

    p = subs.add_parser("train-nn", help="train the network or sweep hidden sizes")
    p.add_argument("--config", required=True)
    _key_option(p, "--hidden", "nn_hidden", "hidden-layer size, or a sweep of sizes")
    _key_option(p, "--seed", "seed", "seed of every stage")
    p.add_argument("--out", default=None, help="write model JSON here")
    p.set_defaults(func=_cmd_train_nn)

    p = subs.add_parser("pipeline", help="full chain from a config file")
    pipe_subs = p.add_subparsers(dest="pipeline_command", required=True)
    pr = pipe_subs.add_parser("run", help="execute the configured chain")
    pr.add_argument("--config", required=True)
    _key_option(pr, "--seed", "seed", "seed of every stage")
    _key_option(pr, "--out", "out_dir", "output directory, from the working directory",
                parse=lambda text: str(Path(text).resolve()))
    pr.set_defaults(func=_cmd_pipeline)

    p = subs.add_parser("make-fixture", help="write deterministic demo data")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_key_flag("seed"), default=synthetic.FIXTURE_SEED)
    p.set_defaults(func=_cmd_make_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left fails here, not at exit
        return code
    except (ChaincastError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader left: send what is still buffered nowhere, so the
            # flush at exit cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
