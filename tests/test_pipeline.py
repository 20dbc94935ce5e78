import dataclasses
import datetime
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincast import arima, cli, neuralnet, pipeline, synthetic
from chaincast.errors import DataFormatError, StageError
from chaincast.indicators import IndicatorParams, compute
from chaincast.ingest import DEFAULT_SPLIT, SplitSpec, align_calendars, parse_csv, \
    split as split_frame, write_csv, write_table
from chaincast.metrics import mape
from chaincast.neuralnet import model_from_json, predict_prices
from chaincast.pipeline import PREDICTION_HEADER, load_config, parse_config_text, run
from chaincast.regression import FeatureMatrix
from chaincast.series import Series, suggest_d

from conftest import doji_frame, weekdays


def read_predictions(path):
    """Independent reader for the prediction CSV layout."""
    lines = path.read_text().splitlines()
    assert lines[0] == "date,actual,predicted"
    rows = [line.split(",") for line in lines[1:]]
    dates = [r[0] for r in rows]
    actual = np.array([float(r[1]) for r in rows])
    predicted = np.array([float(r[2]) for r in rows])
    return dates, actual, predicted


def write_trio(dirpath):
    for name in ("gold", "eurusd", "oil"):
        (dirpath / f"{name}.csv").write_text(
            "date,close,open,high,low\n2015-01-02,10,10,11,9\n")


BASE = "gold_csv = gold.csv\neurusd_csv = eurusd.csv\noil_csv = oil.csv\n"


# --- configuration grammar ----------------------------------------------


def test_config_defaults(tmp_path):
    write_trio(tmp_path)
    config = parse_config_text(BASE, tmp_path)
    assert config.split.train_start == datetime.date(2015, 1, 1)
    assert config.split.test_end == datetime.date(2019, 1, 1)
    assert config.seed == 0
    assert config.nn_hidden is None
    assert config.nn_max_hidden == 10
    assert config.stepwise_direction == "backward"
    assert config.stepwise_criterion == "bic"
    assert config.arima_criterion == "sic"
    assert config.indicator_params.ema_periods == (5, 10)
    assert config.nn_train.epochs == 500
    assert config.nn_train.learning_rate == 0.01
    assert config.out_dir == tmp_path / "out"


def test_library_defaults_equal_the_config_defaults(tmp_path):
    """What a caller gets without a config (`fit-arima` and `diagnose`
    without `--config`, or the library's own defaults) is what the config
    keys default to, so a default changed in `_KEYS` alone fails here."""
    write_trio(tmp_path)
    config = parse_config_text(BASE, tmp_path)
    assert config.split == DEFAULT_SPLIT
    threshold = config.stationarity_threshold
    assert inspect.signature(suggest_d).parameters["threshold"].default == threshold
    assert cli.build_parser().parse_args(["diagnose", "--input", "x"]).threshold == threshold
    search = inspect.signature(arima.select_order).parameters
    assert (search["max_p"].default, search["max_q"].default, search["criterion"].default) \
        == (config.arima_max_p, config.arima_max_q, config.arima_criterion)
    assert {inspect.signature(f).parameters["seed"].default for f in (
        arima.fit, arima.select_order, neuralnet.train, neuralnet.sweep)} == {config.seed}
    assert config.nn_train == neuralnet.DEFAULT_TRAIN_CONFIG
    assert config.indicator_params == IndicatorParams()


def test_config_relative_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "data"
    sub.mkdir()
    write_trio(sub)
    config = parse_config_text(
        "gold_csv = data/gold.csv\neurusd_csv = data/eurusd.csv\n"
        "oil_csv = data/oil.csv\n", tmp_path)
    assert config.gold_csv == tmp_path / "data" / "gold.csv"


def test_config_absolute_path_kept(tmp_path):
    write_trio(tmp_path)
    text = (f"gold_csv = {tmp_path / 'gold.csv'}\n"
            "eurusd_csv = eurusd.csv\noil_csv = oil.csv\n")
    config = parse_config_text(text, tmp_path)
    assert config.gold_csv == tmp_path / "gold.csv"


def test_config_comments_and_blanks_ignored(tmp_path):
    write_trio(tmp_path)
    text = "# demo\n\n" + BASE + "\n# trailing comment\nseed = 3\n"
    config = parse_config_text(text, tmp_path)
    assert config.seed == 3


def test_config_overrides_replace_file_values(tmp_path):
    write_trio(tmp_path)
    config = parse_config_text(BASE + "seed = 3\n", tmp_path,
                               overrides={"seed": "9", "nn_hidden": "4"})
    assert config.seed == 9
    assert config.nn_hidden == 4


def test_config_unknown_key_with_line(tmp_path):
    with pytest.raises(DataFormatError, match="line 2.*unknown key"):
        parse_config_text("gold_csv = g.csv\nglod_csv = g.csv\n", tmp_path)


def test_config_duplicate_key(tmp_path):
    with pytest.raises(DataFormatError, match="duplicate key"):
        parse_config_text("seed = 1\nseed = 2\n", tmp_path)


def test_config_empty_value(tmp_path):
    with pytest.raises(DataFormatError, match="empty value"):
        parse_config_text("seed =\n", tmp_path)


def test_config_missing_equals(tmp_path):
    with pytest.raises(DataFormatError, match="key = value"):
        parse_config_text("just some words\n", tmp_path)


def test_config_missing_required_key(tmp_path):
    with pytest.raises(DataFormatError, match="oil_csv"):
        parse_config_text("gold_csv = g.csv\neurusd_csv = e.csv\n", tmp_path)


def test_config_bad_date(tmp_path):
    write_trio(tmp_path)
    with pytest.raises(DataFormatError, match="train_start"):
        parse_config_text(BASE + "train_start = 2015-13-01\n", tmp_path)


def test_config_bad_number(tmp_path):
    write_trio(tmp_path)
    with pytest.raises(DataFormatError, match="nn_epochs"):
        parse_config_text(BASE + "nn_epochs = many\n", tmp_path)


@pytest.mark.parametrize("line, key", [
    ("nn_hidden = 0", "nn_hidden"),
    ("nn_max_hidden = 0", "nn_max_hidden"),
    ("arima_max_p = -1", "arima_max_p"),
    ("arima_max_q = -1", "arima_max_q"),
    ("stationarity_threshold = 7", "stationarity_threshold"),
    ("stationarity_threshold = 0", "stationarity_threshold"),
])
def test_config_number_out_of_range_names_key(tmp_path, line, key):
    write_trio(tmp_path)
    with pytest.raises(DataFormatError, match=f"^<config>, line 4: config key '{key}'"):
        parse_config_text(BASE + line + "\n", tmp_path)


@pytest.mark.parametrize("line, key", [
    ("nn_validation_fraction = 0", "nn_validation_fraction"),
    ("ema_periods = 5", "ema_periods"),
    ("ema_periods = 5,10,20", "ema_periods"),
])
def test_config_value_that_would_fail_a_late_stage_names_key(tmp_path, line, key):
    write_trio(tmp_path)
    with pytest.raises(DataFormatError, match=f"^<config>, line 4: config key '{key}'"):
        parse_config_text(BASE + line + "\n", tmp_path)


def _load_fault(tmp_path, line):
    """The error `load_config` raises for ``line`` on line 5 of a config."""
    write_trio(tmp_path)
    path = tmp_path / "bad.cfg"
    path.write_text("# header\n" + BASE + line + "\n")
    with pytest.raises(DataFormatError) as info:
        load_config(path)
    return path, str(info.value)


def test_config_negative_seed_names_file_line_and_key(tmp_path):
    path, message = _load_fault(tmp_path, "seed = -1")
    assert message == f"{path}, line 5: config key 'seed': must be at least 0, got -1"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.5"])
def test_config_bad_learning_rate_names_file_line_and_key(tmp_path, value):
    path, message = _load_fault(tmp_path, f"nn_learning_rate = {value}")
    assert message == (f"{path}, line 5: config key 'nn_learning_rate': "
                       f"must be finite and positive, got {value}")


@pytest.mark.parametrize("line, rule", [
    ("nn_validation_fraction = 0.7", "in [0, 0.5)"),
    ("nn_validation_fraction = -0.1", "in [0, 0.5)"),
    ("nn_epochs = 0", "at least 1"),
    ("rsi_period = 1", "at least 2"),
    ("stoch_period = 1", "at least 2"),
    ("stoch_d_period = 0", "at least 2"),
])
def test_config_range_fault_names_file_line_and_key(tmp_path, line, rule):
    key, _, value = (part.strip() for part in line.partition("="))
    path, message = _load_fault(tmp_path, line)
    assert message == f"{path}, line 5: config key '{key}': must be {rule}, got {value}"


@pytest.mark.parametrize("line, message", [
    ("ema_periods = 5,5", "config key 'ema_periods': must be two distinct periods of at "
                          "least 2, got 5,5"),
    ("ema_periods = 5", "config key 'ema_periods': must be two distinct periods of at "
                        "least 2, got 5"),
    ("ema_periods = 1,5", "config key 'ema_periods': must be two distinct periods of at "
                          "least 2, got 1,5"),
    ("train_end = 2014-01-01", "config key 'train_end': must be on or after train_start, "
                               "got 2014-01-01"),
    # only the other key of a rule between two is in the file: its line is named
    ("train_start = 2018-06-01", "config key 'train_end': must be on or after train_start, "
                                 "got 2018-01-01"),
    ("nn_hidden = 0", "config key 'nn_hidden': must be sweep or at least 1, got 0"),
    ("nn_max_hidden = 0", "config key 'nn_max_hidden': must be at least 1, got 0"),
    ("arima_max_p = -1", "config key 'arima_max_p': must be at least 0, got -1"),
    ("stationarity_threshold = 2", "config key 'stationarity_threshold': must be in (0, 1], "
                                   "got 2"),
    ("stepwise_direction = sideways", "config key 'stepwise_direction': must be one of "
                                      "forward, backward, got sideways"),
    ("stepwise_criterion = sic", "config key 'stepwise_criterion': must be one of aic, bic, "
                                 "got sic"),
    ("arima_criterion = bic", "config key 'arima_criterion': must be one of aic, sic, "
                              "got bic"),
    ("nn_validation_fraction = 0", "config key 'nn_validation_fraction': must be above 0 "
                                   "when nn_hidden = sweep, got 0"),
    ("gold_csv = missing.csv", "gold_csv does not exist: {dir}/missing.csv"),
])
def test_config_rule_fault_names_file_line_and_key(tmp_path, line, message):
    """A value that breaks its key's rule, a rule between two keys, or
    names no file fails at load, naming the file, its line and the key."""
    write_trio(tmp_path)
    key = line.split()[0]
    body = [text for text in ["# header", *BASE.splitlines()]
            if not text.startswith(f"{key} ")] + [line]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(DataFormatError) as info:
        load_config(path)
    assert str(info.value) == f"{path}, line {len(body)}: " + message.format(dir=tmp_path)


@pytest.mark.parametrize("key", ["nn_batch_size", "nn_plateau_patience"])
def test_config_rejects_the_minibatch_keys(tmp_path, key):
    path, message = _load_fault(tmp_path, f"{key} = 32")
    assert message == f"{path}, line 5: unknown key {key!r}"


def test_config_rejects_csv_format(tmp_path):
    """A CSV's header decides its layout, so no config key sets it."""
    path, message = _load_fault(tmp_path, "csv_format = auto")
    assert message == f"{path}, line 5: unknown key 'csv_format'"


def test_config_range_fault_in_an_override_names_the_key_only(tmp_path):
    write_trio(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text(BASE)
    with pytest.raises(DataFormatError, match="^config key 'seed': must be at least 0, "
                                              "got -2$"):
        load_config(path, overrides={"seed": "-2"})


def test_config_object_rejects_negative_seed(tmp_path):
    write_trio(tmp_path)
    config = parse_config_text(BASE, tmp_path)
    with pytest.raises(ValueError, match="config key 'seed': must be at least 0, got -1"):
        dataclasses.replace(config, seed=-1)


@pytest.mark.parametrize("call", [
    lambda levels, m: arima.fit(levels, arima.ArimaSpec(1, 1, 0), seed=-1),
    # fits without drawing, so numpy's generator would never see the seed
    lambda levels, m: arima.fit(levels, arima.ArimaSpec(0, 1, 0), seed=-1),
    # each cell's numpy refusal would be a failed cell, not the seed's error
    lambda levels, m: arima.select_order(levels, 1, seed=-1),
    lambda levels, m: neuralnet.train(m, 2, seed=-1),
    # sizes 1.. would otherwise train at seeds 0..
    lambda levels, m: neuralnet.sweep(m, seed=-1),
], ids=["fit", "fit-mean-only", "select_order", "train", "sweep"])
def test_seeded_fits_refuse_a_negative_seed_before_fitting(call, monkeypatch):
    def fitted(*args):
        raise AssertionError("fitted before refusing the seed")
    monkeypatch.setattr(arima, "_fit", fitted)
    monkeypatch.setattr(neuralnet, "_trained", fitted)
    levels = Series(100.0 + np.cumsum(np.random.default_rng(0).normal(0.0, 1.0, 200)))
    days, x = weekdays(61), np.arange(60.0)
    m = FeatureMatrix(tuple(days[:-1]), tuple(days[1:]), ("x1",), x[:, None], 10.0 + x)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        call(levels, m)


def test_config_missing_csv_named(tmp_path):
    (tmp_path / "gold.csv").write_text("date,close,open,high,low\n2015-01-02,10,10,11,9\n")
    with pytest.raises(DataFormatError, match="eurusd_csv does not exist"):
        parse_config_text(BASE, tmp_path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_ignores_byte_order_mark(tmp_path):
    write_trio(tmp_path)
    path = tmp_path / "bom.cfg"
    path.write_bytes(("\ufeff" + BASE + "seed = 4\n").encode("utf-8"))
    config = load_config(path)
    assert config.gold_csv == tmp_path / "gold.csv"
    assert config.seed == 4


@pytest.mark.parametrize("line, kind", [
    ("nn_epochs = ten", "number"),
    ("train_end = 2018-02-30", "date"),
    ("ema_periods = 5,x", "list"),
])
def test_load_config_bad_value_names_file_and_line(tmp_path, line, kind):
    write_trio(tmp_path)
    path = tmp_path / "bad.cfg"
    path.write_text("# header\n\n" + BASE + line + "\n")
    key = line.split()[0]
    with pytest.raises(DataFormatError, match=re.escape(
            f"{path}, line 6: config key '{key}': bad {kind}")):
        load_config(path)


def test_bad_override_names_key_but_no_file_line(tmp_path):
    write_trio(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text(BASE + "seed = 3\n")
    with pytest.raises(DataFormatError, match="^config key 'seed': bad number 'x'$"):
        load_config(path, overrides={"seed": "x"})


_VALID_OPTIONAL = ["seed = 3", "nn_epochs = 40", "ema_periods = 5,10",
                   "train_start = 2015-01-01", "nn_learning_rate = 0.05",
                   "arima_criterion = aic", "out_dir = elsewhere"]
# The last four hold characters that str.splitlines also breaks at (form
# feed, vertical tab, \x1c-\x1e, NEL, U+2028/2029); they end no line.
_FILLERS = ["", "   ", "\t", "# comment", "  # key = value in a comment",
            "# note\x0c", "\x0b\x1c\x1d\x1e", "# one\x85two", "# a\u2028b = c\u2029"]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_config_error_names_file_and_physical_line(tmp_path_factory, data):
    """Valid lines in any order behind a random BOM, CRLF or CR endings,
    blank and comment lines, plus one injected fault: the error names the
    file and the line the fault sits on."""
    body = data.draw(st.permutations(
        BASE.splitlines() + data.draw(st.lists(st.sampled_from(_VALID_OPTIONAL),
                                               unique=True), label="optional")), label="body")
    fault = data.draw(st.sampled_from(["duplicate", "unknown", "no_equals", "empty",
                                       "bad_number", "rule"]), label="fault")
    if fault == "duplicate":
        first = data.draw(st.integers(0, len(body) - 1), label="first")
        at = data.draw(st.integers(first + 1, len(body)), label="at")
        bad, message = body[first], "duplicate key"
    else:
        at = data.draw(st.integers(0, len(body)), label="at")
        bad, message = {"unknown": ("glod_csv = gold.csv", "unknown key"),
                        "no_equals": ("just some words", "expected 'key = value'"),
                        "empty": ("rsi_period =", "empty value"),
                        "bad_number": ("nn_max_hidden = many", "bad number"),
                        "rule": ("nn_max_hidden = 0", "must be at least 1")}[fault]
    body.insert(at, bad)
    lines, bad_line = [], None
    for i, line in enumerate(body):
        lines += data.draw(st.lists(st.sampled_from(_FILLERS), max_size=2), label="fill")
        if i == at:
            bad_line = len(lines) + 1
        lines.append(line)
    lines += data.draw(st.lists(st.sampled_from(_FILLERS), max_size=2), label="fill")
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="newline")
    bom = data.draw(st.booleans(), label="bom")

    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes((("\ufeff" if bom else "") + newline.join(lines) + newline).encode("utf-8"))
    with pytest.raises(DataFormatError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}, line {bad_line}: ")
    assert message in str(info.value)


# --- artifact helpers -----------------------------------------------------


def test_write_predictions_round_trip(tmp_path):
    days = [datetime.date(2020, 1, 6), datetime.date(2020, 1, 7)]
    path = tmp_path / "p.csv"
    write_table(path, PREDICTION_HEADER, days, np.array([1.25, 2.5]), np.array([1.0, 2.75]))
    dates, actual, predicted = read_predictions(path)
    assert dates == ["2020-01-06", "2020-01-07"]
    np.testing.assert_array_equal(actual, [1.25, 2.5])
    np.testing.assert_array_equal(predicted, [1.0, 2.75])


# --- stage failures -------------------------------------------------------


def test_stage_error_names_ingest(tmp_path):
    write_trio(tmp_path)
    (tmp_path / "gold.csv").write_text("time,price\n1,2\n")
    config = parse_config_text(BASE, tmp_path)
    with pytest.raises(StageError) as exc:
        run(config)
    assert exc.value.stage == "ingest"
    assert str(exc.value).startswith("stage 'ingest':")
    assert (tmp_path / "out" / "report_partial.json").is_file()


def test_stage_error_names_split(tmp_path):
    # frames parse and align, but hold no rows inside the training window
    for name in ("gold", "eurusd", "oil"):
        write_csv(doji_frame(np.linspace(10, 12, 30), asset=name,
                             start=datetime.date(2020, 1, 6)),
                  tmp_path / f"{name}.csv")
    config = parse_config_text(BASE, tmp_path)
    with pytest.raises(StageError) as exc:
        run(config)
    assert exc.value.stage == "split"
    partial = json.loads((tmp_path / "out" / "report_partial.json").read_text())
    assert "config" in partial


def test_empty_test_window_fails_the_split_stage(demo_bundle, tmp_path):
    config = load_config(demo_bundle["cfg_path"], overrides={
        "test_start": "2019-06-01", "test_end": "2019-07-01", "out_dir": str(tmp_path)})
    with pytest.raises(StageError) as exc:
        run(config)
    assert str(exc.value) == "stage 'split': 'gold' has no rows between 2019-06-01 and 2019-07-01"


def test_constant_companion_fails_naming_its_series(demo_bundle, tmp_path):
    """A constant EUR-USD series fits as (0,1,0) with all-zero residuals,
    whose whiteness test then fails naming the asset's series."""
    paths = demo_bundle["paths"]
    for name in ("gold", "oil"):
        (tmp_path / f"{name}.csv").write_bytes(paths[name].read_bytes())
    eurusd = parse_csv(paths["eurusd"])
    flat = np.full(len(eurusd), 1.1)
    write_csv(dataclasses.replace(eurusd, opens=flat, highs=flat, lows=flat, closes=flat),
              tmp_path / "eurusd.csv")
    with pytest.raises(StageError) as exc:
        run(parse_config_text(BASE, tmp_path))
    assert str(exc.value) == ("stage 'arima_eurusd': series 'eurusd_close residuals' has "
                              "zero variance; correlations undefined")


def test_stage_error_names_neural_net(demo_bundle, tmp_path, monkeypatch):
    def broken_sweep(*args, **kwargs):
        raise RuntimeError("sweep broke")

    monkeypatch.setattr(neuralnet, "sweep", broken_sweep)
    out = tmp_path / "out"
    config = dataclasses.replace(demo_bundle["config"], out_dir=out)
    with pytest.raises(StageError) as exc:
        run(config)
    assert exc.value.stage == "neural_net"
    assert str(exc.value) == "stage 'neural_net': sweep broke"
    partial = json.loads((out / "report_partial.json").read_text())
    assert {"assets", "full_ols", "stepwise"} <= set(partial)
    assert "neural_net" not in partial
    assert not (out / "report.json").exists()


# --- full runs on the bundled fixture --------------------------------------


EXPECTED_ARTIFACTS = (
    "report.json",
    "timings.json",
    "comparison.csv",
    "model_nn.json",
    "predictions_arima_gold.csv",
    "predictions_ols_full.csv",
    "predictions_stepwise_forward.csv",
    "predictions_stepwise_backward.csv",
    "predictions_hybrid_nn.csv",
    "correlogram_gold.csv",
    "correlogram_eurusd.csv",
    "correlogram_oil.csv",
)


def _strict_json(text):
    def refuse(token):
        raise AssertionError(f"report holds {token}, which JSON does not have")

    return json.loads(text, parse_constant=refuse)


def test_report_without_validation_rows_is_strict_json(demo_bundle, tmp_path):
    out = tmp_path / "out"
    config = load_config(demo_bundle["cfg_path"], overrides={
        "nn_hidden": "4", "nn_validation_fraction": "0", "nn_epochs": "20",
        "out_dir": str(out)})
    run(config)
    body = _strict_json((out / "report.json").read_text())
    assert body["neural_net"]["sweep"]["4"]["validation_mape"] is None
    _strict_json((demo_bundle["out_dir"] / "report.json").read_text())


def test_non_finite_number_fails_the_report_stage(demo_bundle, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "accuracy", lambda actual, predicted: float("nan"))
    out = tmp_path / "out"
    with pytest.raises(StageError) as exc:
        run(dataclasses.replace(demo_bundle["config"], out_dir=out))
    assert exc.value.stage == "report"
    assert "Out of range float values are not JSON compliant" in str(exc.value)
    assert not (out / "report.json").exists()
    assert not (out / "report_partial.json").exists()


def test_run_writes_every_artifact(demo_bundle):
    out = demo_bundle["out_dir"]
    for name in EXPECTED_ARTIFACTS:
        assert (out / name).is_file(), name
    assert not (out / "report_partial.json").exists()


def test_report_structure(demo_bundle):
    body = json.loads((demo_bundle["out_dir"] / "report.json").read_text())
    assert set(body) == {"assets", "config", "feature_rows", "full_ols",
                         "neural_net", "seed", "split", "stage_accuracies",
                         "stepwise"}
    assert set(body["assets"]) == {"gold", "eurusd", "oil"}
    for name, entry in body["assets"].items():
        for key in ("order", "mu", "phi", "theta", "sigma2", "aic", "sic",
                    "ljung_box"):
            assert key in entry, (name, key)
        assert set(entry["ljung_box"]) == {"statistic", "dof", "p_value",
                                           "lags", "is_white"}
    assert "test_accuracy" in body["assets"]["gold"]
    assert "test_accuracy" not in body["assets"]["eurusd"]
    assert set(body["stage_accuracies"]) == {
        "arima_gold", "full_ols", "stepwise_forward", "stepwise_backward",
        "hybrid_nn"}
    assert set(body["stepwise"]) == {"forward", "backward"}
    assert body["neural_net"]["columns"] == body["stepwise"]["backward"]["included"]
    assert "timings" not in body
    assert body["split"]["test_rows"] == body["feature_rows"]["test"]


def test_report_matches_returned_object(demo_bundle):
    body = json.loads((demo_bundle["out_dir"] / "report.json").read_text())
    assert body == demo_bundle["report"].body


def test_timings_written_separately(demo_bundle):
    timings = json.loads((demo_bundle["out_dir"] / "timings.json").read_text())
    expected = {"ingest", "align", "split", "arima_gold", "arima_eurusd",
                "arima_oil", "indicators", "features", "regression",
                "neural_net", "report", "plot_data"}
    assert set(timings) == expected
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())


def test_stage_accuracies_consistent_with_prediction_files(demo_bundle):
    out = demo_bundle["out_dir"]
    accs = demo_bundle["report"].stage_accuracies
    files = {
        "arima_gold": "predictions_arima_gold.csv",
        "full_ols": "predictions_ols_full.csv",
        "stepwise_forward": "predictions_stepwise_forward.csv",
        "stepwise_backward": "predictions_stepwise_backward.csv",
        "hybrid_nn": "predictions_hybrid_nn.csv",
    }
    for stage, fname in files.items():
        _, actual, predicted = read_predictions(out / fname)
        recomputed = 100.0 - mape(actual, predicted)
        assert abs(recomputed - accs[stage]) < 1e-9, stage


def test_prediction_files_share_the_test_calendar(demo_bundle):
    out = demo_bundle["out_dir"]
    calendars = []
    actuals = []
    for name in EXPECTED_ARTIFACTS:
        if name.startswith("predictions_"):
            dates, actual, _ = read_predictions(out / name)
            calendars.append(dates)
            actuals.append(actual)
    for cal in calendars[1:]:
        assert cal == calendars[0]
    for act in actuals[1:]:
        np.testing.assert_array_equal(act, actuals[0])


def test_comparison_csv_merges_stage_predictions(demo_bundle):
    out = demo_bundle["out_dir"]
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "date,actual,arima,regression,hybrid"
    dates, actual, arima_preds = read_predictions(out / "predictions_arima_gold.csv")
    _, _, reg_preds = read_predictions(out / "predictions_stepwise_backward.csv")
    _, _, nn_preds = read_predictions(out / "predictions_hybrid_nn.csv")
    assert len(lines) - 1 == len(dates)
    got = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in got] == dates
    np.testing.assert_array_equal(np.array([float(r[1]) for r in got]), actual)
    np.testing.assert_array_equal(np.array([float(r[2]) for r in got]), arima_preds)
    np.testing.assert_array_equal(np.array([float(r[3]) for r in got]), reg_preds)
    np.testing.assert_array_equal(np.array([float(r[4]) for r in got]), nn_preds)


def test_comparison_regression_column_follows_stepwise_direction(demo_bundle, tmp_path):
    config = demo_bundle["config"]
    run(dataclasses.replace(config, stepwise_direction="forward", nn_hidden=2,
                            nn_train=dataclasses.replace(config.nn_train, epochs=20),
                            out_dir=tmp_path))
    _, _, forward = read_predictions(tmp_path / "predictions_stepwise_forward.csv")
    rows = [line.split(",") for line in
            (tmp_path / "comparison.csv").read_text().splitlines()[1:]]
    np.testing.assert_array_equal(np.array([float(r[3]) for r in rows]), forward)
    # the report echoes the values the run used, not those the config file gave
    echoed = json.loads((tmp_path / "report.json").read_text())["config"]
    assert (echoed["stepwise_direction"], echoed["nn_hidden"], echoed["nn_epochs"]) == \
        ("forward", "2", "20")


def test_replaced_seed_reaches_the_network(demo_bundle, tmp_path):
    # a config holds one seed: the network trains from the seed the report echoes
    base = demo_bundle["config"]
    body = run(dataclasses.replace(base, seed=5, nn_hidden=2, out_dir=tmp_path,
                                   nn_train=dataclasses.replace(base.nn_train, epochs=20))).body
    assert body["neural_net"]["sweep"]["2"]["seed"] == 5
    assert body["config"]["seed"] == "5"


def test_correlogram_artifact_shape(demo_bundle):
    lines = (demo_bundle["out_dir"] / "correlogram_gold.csv").read_text().splitlines()
    assert lines[0] == "lag,acf,pacf,band"
    assert len(lines) == 25  # 24 lags
    first = lines[1].split(",")
    assert first[0] == "1"
    band = float(first[3])
    assert 0.0 < band < 1.0


def test_saved_model_reproduces_hybrid_predictions(demo_bundle):
    from chaincast.pipeline import feature_windows
    out = demo_bundle["out_dir"]
    model = model_from_json((out / "model_nn.json").read_text())
    _, test_m = feature_windows(demo_bundle["config"])
    preds = predict_prices(model, test_m.with_columns(model.columns))
    _, _, saved = read_predictions(out / "predictions_hybrid_nn.csv")
    np.testing.assert_array_equal(preds, saved)


def test_feature_rows_use_no_future_data(demo_bundle):
    """Recompute one test row from truncated inputs only."""
    config = demo_bundle["config"]
    frames = {name: parse_csv(getattr(config, f"{name}_csv"))
              for name in pipeline.ASSETS}
    aligned = dict(zip(pipeline.ASSETS,
                       align_calendars([frames[a] for a in pipeline.ASSETS])))
    gold = aligned["gold"]
    body = demo_bundle["report"].body

    # pick a day in the middle of the test window
    test_start = config.split.test_start
    pos = next(i for i, day in enumerate(gold.dates) if day >= test_start) + 40
    t_day = gold.dates[pos]

    # indicators at day t from a frame that ends on day t
    full_ind = compute(gold, config.indicator_params)
    trunc_ind = compute(gold.window(gold.dates[0], t_day), config.indicator_params)
    for name, col in full_ind.columns.items():
        assert trunc_ind.columns[name][-1] == col[pos], name

    # companion one-step forecast for day t+1 must ignore day t+1's close:
    # refit on the training window (frozen, deterministic), then predict with
    # the day t+1 close replaced by a dummy value
    eur = aligned["eurusd"]
    train_frame, _ = split_frame(eur, config.split)
    order = body["assets"]["eurusd"]["order"]
    fitted = arima.fit(train_frame.close_series(), arima.ArimaSpec(*order), config.seed)
    assert fitted.mu == body["assets"]["eurusd"]["mu"]
    full_hist = arima.one_step_history(fitted, eur.close_series())
    dummied = np.concatenate([eur.closes[:pos + 1], [999.0]])
    trunc_hist = arima.one_step_history(fitted, Series(dummied))
    assert trunc_hist[pos + 1] == full_hist[pos + 1]


PREDICTED_STAGES = ("arima_gold", "ols_full", "stepwise_forward", "stepwise_backward",
                    "hybrid_nn")


@pytest.fixture(scope="module")
def bundled_run(demo_bundle, tmp_path_factory):
    """A config whose ``out_dir`` holds the default config's run on the
    bundled fixture, made once per module."""
    config = dataclasses.replace(demo_bundle["config"],
                                 out_dir=tmp_path_factory.mktemp("baseline"))
    run(config)
    return config


@settings(max_examples=4, deadline=None, database=None)
@given(data=st.data())
def test_predictions_before_a_cut_ignore_later_bars(bundled_run, tmp_path_factory, data):
    """Scale every bar of one asset from a cut inside the test window on
    (which keeps the bar rule) and rerun the whole chain: the rows dated
    before the cut in every prediction file keep their bytes."""
    config = bundled_run
    baseline = {stage: (config.out_dir / f"predictions_{stage}.csv").read_text()
                for stage in PREDICTED_STAGES}
    test_days = [line.split(",")[0] for line in baseline["arima_gold"].splitlines()[1:]]
    cut = data.draw(st.sampled_from(test_days[1:]), label="cut")
    asset = data.draw(st.sampled_from(pipeline.ASSETS), label="asset")
    factor = data.draw(st.floats(0.8, 1.2), label="factor")
    root = tmp_path_factory.mktemp("cut")
    for name in pipeline.ASSETS:
        frame = parse_csv(getattr(config, f"{name}_csv"))
        if name == asset:
            scale = np.where([day.isoformat() >= cut for day in frame.dates], factor, 1.0)
            frame = dataclasses.replace(frame, opens=frame.opens * scale,
                                        highs=frame.highs * scale, lows=frame.lows * scale,
                                        closes=frame.closes * scale)
        write_csv(frame, root / f"{name}.csv")
    run(dataclasses.replace(config, out_dir=root / "out", gold_csv=root / "gold.csv",
                            eurusd_csv=root / "eurusd.csv", oil_csv=root / "oil.csv"))
    for stage, text in baseline.items():
        before = [line for line in text.splitlines()[1:] if line[:10] < cut]
        rerun = (root / "out" / f"predictions_{stage}.csv").read_text().splitlines()[1:]
        assert rerun[:len(before)] == before, stage


def test_swapping_the_companions_keeps_every_accuracy(demo_bundle, tmp_path):
    """Exchanging ``eurusd_csv`` and ``oil_csv`` exchanges the companion
    columns x2 and x3 and nothing else, so all five stage accuracies keep
    their bits."""
    config = demo_bundle["config"]
    swapped = run(dataclasses.replace(config, eurusd_csv=config.oil_csv,
                                      oil_csv=config.eurusd_csv, out_dir=tmp_path))
    assert swapped.stage_accuracies == demo_bundle["report"].stage_accuracies


@pytest.fixture(scope="module")
def gap_run(demo_bundle, tmp_path_factory):
    """The bundled fixture split with half a year between the windows, and
    the config that ran it; the network is cut short, since only the ARIMA
    stage is read.  Also gold's one-step track over the aligned calendar,
    on the test window, built here from the library directly."""
    root = tmp_path_factory.mktemp("gap")
    cfg = root / "pipeline.cfg"
    cfg.write_text("".join(f"{name}_csv = {path}\n"
                           for name, path in demo_bundle["paths"].items())
                   + "train_end = 2017-06-30\ntest_start = 2018-01-02\n"
                   + "nn_hidden = 1\nnn_epochs = 5\nout_dir = out\n")
    config = load_config(cfg)
    report = run(config)
    gold = pipeline._align(pipeline._read_frames(config))["gold"]
    spec = config.split
    fitted = pipeline.fit_asset(
        gold.window(spec.train_start, spec.train_end).close_series(), config)
    window = gold.window(spec.test_start, spec.test_end)
    first = gold.dates.index(window.dates[0])
    # the split leaves days out between the windows
    assert gold.dates[first - 1] > spec.train_end
    track = arima.one_step_history(fitted, gold.close_series())[first:first + len(window)]
    return cfg, report, window, track


def test_gold_is_scored_from_its_track_across_a_split_gap(gap_run):
    """Gold's test-window predictions are its one-step track over the
    aligned calendar, bit for bit, so the days between the windows
    condition them as they condition the companions' features."""
    cfg, report, window, track = gap_run
    dates, actual, predicted = read_predictions(cfg.parent / "out"
                                                / "predictions_arima_gold.csv")
    assert dates == [day.isoformat() for day in window.dates]
    np.testing.assert_array_equal(actual, window.closes)
    assert predicted.tobytes() == track.tobytes()
    assert report.stage_accuracies["arima_gold"] == 100.0 - mape(window.closes, track)


def test_fit_arima_prints_the_pipelines_gold_accuracy_across_a_split_gap(gap_run, capsys):
    """`fit-arima` reads its held-out predictions off the same track, over
    the gold file's calendar, which is the aligned one here."""
    cfg, report, window, track = gap_run
    assert cli.main(["fit-arima", "--input", str(pipeline.load_config(cfg).gold_csv),
                     "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    for acc in (report.stage_accuracies["arima_gold"], 100.0 - mape(window.closes, track)):
        assert f"rolling one-step accuracy on {len(window)} held-out days: {acc:.2f}%" \
            in printed


def _choices(body):
    """What the chain chose: each asset's order and every selected column set."""
    return ({name: body["assets"][name]["order"] for name in pipeline.ASSETS},
            body["full_ols"]["included"], body["stepwise"]["forward"]["included"],
            body["stepwise"]["backward"]["included"], body["neural_net"]["columns"])


@pytest.mark.parametrize("k", [-20, -10, 10, 20])
@pytest.mark.parametrize("asset", pipeline.ASSETS)
def test_changing_an_assets_price_unit_keeps_every_choice(demo_bundle, tmp_path, asset, k):
    """Multiplying one asset's bars by 2**k is exact, so only the unit
    changes: every order and column choice stays, and each stage accuracy
    moves by rounding alone, within 1e-9 points (1.4e-14 at most today).
    Ranking grid cells on their own samples moved gold to (2,0,0) at
    k = -10 and oil to (3,1,0) at k = 10; testing a column's rank against
    the largest column norm dropped x2 at gold k = 20 and eurusd k = -20."""
    config = demo_bundle["config"]
    frame = parse_csv(getattr(config, f"{asset}_csv"))
    c = 2.0 ** k
    path = tmp_path / f"{asset}.csv"
    write_csv(dataclasses.replace(frame, opens=frame.opens * c, highs=frame.highs * c,
                                  lows=frame.lows * c, closes=frame.closes * c), path)
    scaled = run(dataclasses.replace(config, **{f"{asset}_csv": path}, out_dir=tmp_path / "out"))
    base = demo_bundle["report"]
    assert _choices(scaled.body) == _choices(base.body)
    for stage, accuracy in base.stage_accuracies.items():
        assert scaled.stage_accuracies[stage] == pytest.approx(accuracy, rel=0.0, abs=1e-9), stage


def test_shifting_every_date_by_whole_weeks_keeps_every_result(demo_bundle, tmp_path):
    """The bundled fixture drawn 52 weeks later, and the split moved with
    it: every row keeps its weekday and its place, so every choice, the
    chosen size and the bits of each stage accuracy stay."""
    config, shift = demo_bundle["config"], datetime.timedelta(weeks=52)
    window = inspect.signature(synthetic.make_fixture).parameters
    paths = synthetic.make_fixture(tmp_path, start=window["start"].default + shift,
                                   end=window["end"].default + shift)
    moved = run(dataclasses.replace(
        config, **{f"{name}_csv": path for name, path in paths.items()}, out_dir=tmp_path / "out",
        split=SplitSpec(**{key: day + shift for key, day in vars(config.split).items()})))
    base = demo_bundle["report"]
    assert _choices(moved.body) == _choices(base.body)
    assert moved.body["neural_net"]["chosen_hidden"] == base.body["neural_net"]["chosen_hidden"]
    assert moved.stage_accuracies == base.stage_accuracies


def test_fixed_hidden_size_run(demo_bundle, tmp_path):
    out2 = tmp_path / "fixed"
    config = load_config(demo_bundle["cfg_path"],
                         overrides={"nn_hidden": "4", "nn_epochs": "60",
                                    "out_dir": str(out2)})
    report = run(config)
    body = report.body
    assert body["neural_net"]["chosen_hidden"] == 4
    assert list(body["neural_net"]["sweep"]) == ["4"]
    assert (out2 / "report.json").is_file()
    assert config.nn_train.epochs == 60
