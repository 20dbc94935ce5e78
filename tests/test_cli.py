import datetime
import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import chaincast
from chaincast import pipeline
from chaincast.cli import main
from chaincast.ingest import write_csv
from chaincast.synthetic import business_days, simulate_arima

from conftest import ohlc_frame


@pytest.fixture()
def walk_csv(tmp_path):
    """A drifting random walk spanning the default train/test windows."""
    days = business_days(datetime.date(2015, 1, 1), datetime.date(2018, 12, 31))
    n = len(days)
    closes = simulate_arima([], [], 0.05, 1, n, sigma=1.0, seed=21,
                            start_level=500.0)
    rng = np.random.default_rng(22)
    opens = closes + rng.normal(0, 0.5, n)
    spread = np.abs(rng.normal(0, 0.5, n)) + 0.1
    frame = ohlc_frame(opens, np.maximum(opens, closes) + spread,
                       np.minimum(opens, closes) - spread, closes,
                       asset="walk", start=days[0])
    path = tmp_path / "walk.csv"
    write_csv(frame, path)
    return path


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_diagnose_prints_correlogram(walk_csv, capsys):
    assert main(["diagnose", "--input", str(walk_csv), "--max-lag", "5"]) == 0
    out = capsys.readouterr().out
    assert "differencing order: 1" in out
    assert "lag" in out and "pacf" in out
    assert len([l for l in out.splitlines() if l.strip().startswith(("1 ", "2 "))]) >= 2


def test_diagnose_forced_d(walk_csv, capsys):
    assert main(["diagnose", "--input", str(walk_csv), "--d", "0",
                 "--max-lag", "3"]) == 0
    assert "(forced)" in capsys.readouterr().out


def test_diagnose_missing_file_exits_2(capsys):
    assert main(["diagnose", "--input", "/nonexistent.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_diagnose_invalid_d_exits_2(walk_csv, capsys):
    assert main(["diagnose", "--input", str(walk_csv), "--d", "3"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["diagnose", "--threshold", "2"], "argument --threshold: must be in (0, 1], got '2'"),
    (["fit-arima", "--max-p", "-1"], "argument --max-p: must be at least 0, got '-1'"),
    (["fit-arima", "--max-q", "x"], "argument --max-q: must be at least 0, got 'x'"),
])
def test_flag_that_sets_a_config_key_takes_its_rule(walk_csv, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", str(walk_csv)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_fit_arima_reports_fit_and_accuracy(walk_csv, tmp_path, capsys):
    out_csv = tmp_path / "preds.csv"
    code = main(["fit-arima", "--input", str(walk_csv), "--d", "1",
                 "--max-p", "1", "--max-q", "0", "--out", str(out_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "selected order: (" in out
    assert "rolling one-step accuracy" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "date,actual,predicted"
    assert len(lines) > 200  # a year of test days


def test_fit_arima_bad_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,price\n1,2\n")
    assert main(["fit-arima", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_indicators_writes_table(walk_csv, tmp_path, capsys):
    out_csv = tmp_path / "ind.csv"
    assert main(["indicators", "--input", str(walk_csv),
                 "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "date,ema5,ema10,rsi14,stoch_k,stoch_d,williams_r"
    # warm-up cells are empty, not zero
    first_cells = lines[1].split(",")
    assert first_cells[3] == ""  # rsi14 undefined on day one
    assert first_cells[1] != ""  # ema defined from day one
    last_cells = lines[-1].split(",")
    assert all(cell != "" for cell in last_cells)


def test_indicators_prints_without_out(walk_csv, capsys):
    assert main(["indicators", "--input", str(walk_csv)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("date,ema5,ema10")


def test_stepwise_prints_trace_and_equation(demo_bundle, capsys):
    code = main(["stepwise", "--config", str(demo_bundle["cfg_path"]),
                 "--direction", "backward"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dropped exactly collinear column(s):" in out
    assert "selected:" in out
    assert "y = " in out
    assert "test accuracy" in out
    # matches what the pipeline recorded for the same direction
    included = demo_bundle["report"].body["stepwise"]["backward"]["included"]
    selected_line = next(l for l in out.splitlines() if l.startswith("selected:"))
    assert selected_line == "selected: " + ", ".join(included)


def test_train_nn_fixed_size_writes_model(demo_bundle, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = main(["train-nn", "--config", str(demo_bundle["cfg_path"]),
                 "--hidden", "3", "--out", str(model_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "hidden 3:" in out
    assert "test accuracy" in out
    payload = json.loads(model_path.read_text())
    assert len(payload["w_hidden"]) == 3


def test_train_nn_model_matches_pipeline_model(demo_bundle, tmp_path):
    paths = demo_bundle["paths"]
    cfg = tmp_path / "short.cfg"
    cfg.write_text("".join(f"{name}_csv = {paths[name]}\n" for name in ("gold", "eurusd", "oil"))
                   + "nn_epochs = 60\nnn_hidden = 4\nout_dir = out\n")
    assert main(["pipeline", "run", "--config", str(cfg)]) == 0
    model_path = tmp_path / "m.json"
    assert main(["train-nn", "--config", str(cfg), "--hidden", "4",
                 "--out", str(model_path)]) == 0
    assert model_path.read_bytes() == (tmp_path / "out" / "model_nn.json").read_bytes()


def test_train_nn_sweep_prints_the_pipeline_sweep(demo_bundle, capsys):
    assert main(["train-nn", "--config", str(demo_bundle["cfg_path"])]) == 0
    lines = capsys.readouterr().out.splitlines()
    body = demo_bundle["report"].body
    printed = dict(re.match(r"hidden +(\d+): validation MAPE ([\d.]+)%", line).groups()
                   for line in lines if line.startswith("hidden "))
    assert printed == {h: f"{entry['validation_mape']:.4f}"
                       for h, entry in body["neural_net"]["sweep"].items()}
    assert len(printed) == 10
    assert f"chosen hidden size: {body['neural_net']['chosen_hidden']}" in lines
    assert lines[-1] == (f"test accuracy on {body['feature_rows']['test']} days: "
                         f"{body['stage_accuracies']['hybrid_nn']:.2f}%")


def _config_with(tmp_path, paths, extra):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text("".join(f"{name}_csv = {paths[name]}\n" for name in ("gold", "eurusd", "oil"))
                   + extra + "out_dir = out\n")
    return cfg


def test_stepwise_defaults_come_from_config(demo_bundle, tmp_path, capsys):
    cfg = _config_with(tmp_path, demo_bundle["paths"],
                       "stepwise_direction = forward\nstepwise_criterion = aic\n")
    assert main(["stepwise", "--config", str(cfg)]) == 0
    steps = [l for l in capsys.readouterr().out.splitlines() if ": aic -> " in l]
    assert steps and all(l.startswith("add ") for l in steps)
    # flags still override the config
    assert main(["stepwise", "--config", str(cfg),
                 "--direction", "backward", "--criterion", "bic"]) == 0
    out = capsys.readouterr().out
    included = demo_bundle["report"].body["stepwise"]["backward"]["included"]
    assert "selected: " + ", ".join(included) in out.splitlines()
    assert ": bic -> " in out and ": aic -> " not in out


def test_fit_arima_config_supplies_search_settings(demo_bundle, tmp_path, capsys):
    cfg = _config_with(tmp_path, demo_bundle["paths"],
                       "arima_criterion = aic\narima_max_p = 1\narima_max_q = 0\n"
                       "nn_hidden = 1\nnn_epochs = 5\n")
    assert main(["pipeline", "run", "--config", str(cfg)]) == 0
    order = json.loads((tmp_path / "out" / "report.json").read_text())["assets"]["gold"]["order"]
    gold = str(demo_bundle["paths"]["gold"])
    capsys.readouterr()
    assert main(["fit-arima", "--input", gold, "--config", str(cfg)]) == 0
    assert "selected order: ({},{},{}) by aic".format(*order) in capsys.readouterr().out
    # a flag given on the command line wins over the config
    assert main(["fit-arima", "--input", gold, "--config", str(cfg),
                 "--criterion", "sic"]) == 0
    assert "by sic" in capsys.readouterr().out


def test_train_nn_fixed_size_needs_no_validation_rows(demo_bundle, tmp_path, capsys):
    cfg = _config_with(tmp_path, demo_bundle["paths"],
                       "nn_validation_fraction = 0\nnn_epochs = 5\n")
    assert main(["train-nn", "--config", str(cfg), "--hidden", "2"]) == 0
    assert "hidden 2:" in capsys.readouterr().out
    assert main(["train-nn", "--config", str(cfg)]) == 2
    assert "config key 'nn_validation_fraction'" in capsys.readouterr().err


@pytest.mark.parametrize("hidden", ["abc", "0"])
def test_train_nn_rejects_bad_hidden_before_any_work(demo_bundle, monkeypatch, capsys,
                                                     hidden):
    def no_work(config):
        raise AssertionError("feature_windows ran before --hidden was checked")

    monkeypatch.setattr(pipeline, "feature_windows", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["train-nn", "--config", str(demo_bundle["cfg_path"]), "--hidden", hidden])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--hidden" in err and repr(hidden) in err


@pytest.mark.parametrize("command", [["train-nn"], ["pipeline", "run"]],
                         ids=["train-nn", "pipeline-run"])
def test_negative_seed_rejected_before_any_work(demo_bundle, monkeypatch, capsys, command):
    def no_work(*args, **kwargs):
        raise AssertionError("a stage ran before --seed was checked")

    monkeypatch.setattr(pipeline, "feature_windows", no_work)
    monkeypatch.setattr(pipeline, "run", no_work)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", str(demo_bundle["cfg_path"]), "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "'-1'" in err


def test_make_fixture_rejects_negative_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["make-fixture", "--out", str(tmp_path / "fx"), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "fx").exists()


def test_pipeline_run_prints_stage_accuracies(demo_bundle, tmp_path, capsys):
    out_dir = tmp_path / "cli_out"
    code = main(["pipeline", "run", "--config", str(demo_bundle["cfg_path"]),
                 "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "artifacts written to" in out
    for stage in ("arima_gold", "full_ols", "stepwise_forward",
                  "stepwise_backward", "hybrid_nn"):
        assert stage in out
    # same inputs and seed: the same bytes in every artifact but the wall
    # times, whatever the output directory
    baseline = demo_bundle["out_dir"]
    names = sorted(p.name for p in baseline.iterdir() if p.name != "timings.json")
    assert len(names) == 11
    assert names == sorted(p.name for p in out_dir.iterdir() if p.name != "timings.json")
    for name in names:
        assert (out_dir / name).read_bytes() == (baseline / name).read_bytes(), name


@pytest.mark.parametrize("argv", [
    ["indicators", "--input", "{walk}", "--out", "{missing}/x.csv"],
    ["fit-arima", "--input", "{walk}", "--d", "1", "--max-p", "1", "--max-q", "0",
     "--out", "{missing}/p.csv"],
    ["train-nn", "--config", "{cfg}", "--hidden", "2", "--out", "{missing}/m.json"],
    ["make-fixture", "--out", "{file}"],
    ["pipeline", "run", "--config", "{cfg}", "--out", "{file}/run"],
], ids=["indicators", "fit-arima", "train-nn", "make-fixture", "pipeline-run"])
def test_unwritable_output_is_an_error_not_a_traceback(walk_csv, demo_bundle, tmp_path,
                                                       capsys, argv):
    cfg = _config_with(tmp_path, demo_bundle["paths"], "nn_hidden = 2\nnn_epochs = 5\n")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    fields = {"walk": walk_csv, "cfg": cfg, "missing": tmp_path / "nodir", "file": a_file}
    assert main([arg.format(**fields) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_an_error_not_a_traceback(demo_bundle, buffered):
    """`chaincast diagnose` into a pipe whose reader has already gone: the
    write fails, and the CLI says so on one line and exits 2, whether stdout
    is flushed as it goes or only at the end."""
    script = (
        "import sys\n"
        "sys.stdin.read()  # start once the test has closed the pipe's read end\n"
        "from chaincast.cli import main\n"
        f"sys.exit(main(['diagnose', '--input', {str(demo_bundle['paths']['gold'])!r}]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(chaincast.__file__).resolve().parents[1])
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-c", script], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    proc.stdin.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_make_fixture_is_deterministic(demo_bundle, tmp_path, capsys):
    out_dir = tmp_path / "fixture"
    assert main(["make-fixture", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "pipeline.cfg" in out
    for name in ("gold", "eurusd", "oil"):
        fresh = (out_dir / f"{name}.csv").read_bytes()
        bundled = (demo_bundle["root"] / f"{name}.csv").read_bytes()
        assert fresh == bundled, name


def _pyproject() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())


def test_console_script_is_installed(tmp_path, monkeypatch):
    """The `chaincast` entry declared in pyproject.toml, put on PATH the way
    an installer puts it there, runs the CLI. The launcher is written from the
    checkout, so the test needs no install."""
    scripts = _pyproject()["project"]["scripts"]
    entry = EntryPoint("chaincast", scripts["chaincast"], "console_scripts")

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "chaincast"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    launcher.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    # absolute, so the child imports the same chaincast as this test
    # whatever its working directory
    monkeypatch.setenv("PYTHONPATH", str(Path(chaincast.__file__).resolve().parents[1]))

    exe = shutil.which("chaincast")
    assert exe, "console script not on PATH"
    result = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "pipeline" in result.stdout


def test_runtime_dependencies_are_numpy_only():
    deps = _pyproject()["project"]["dependencies"]
    names = [re.split(r"[<>=!~;\[ ]", d, maxsplit=1)[0] for d in deps]
    assert names == ["numpy"]


def test_cli_runs_without_importing_scipy(demo_bundle):
    """A fresh process that imports the CLI and runs `diagnose` on the
    bundled gold.csv never loads scipy."""
    script = (
        "import sys\n"
        "from chaincast.cli import main\n"
        f"code = main(['diagnose', '--input', {str(demo_bundle['paths']['gold'])!r}])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print('scipy modules:', loaded)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(chaincast.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert "series: gold_close" in result.stdout
    assert "scipy modules: []" in result.stdout


def test_pipeline_run_is_identical_at_one_and_two_blas_threads(demo_bundle, tmp_path):
    """`pipeline run` in fresh processes with OpenBLAS on one and on two
    threads writes the same report, network and hybrid predictions, byte for
    byte: the least-squares solves must not depend on how BLAS splits them."""
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(chaincast.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from chaincast.cli import main; sys.exit(main())",
             "pipeline", "run", "--config", str(demo_bundle["cfg_path"]), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs[threads] = {name: (out / name).read_bytes() for name in (
            "report.json", "model_nn.json", "predictions_hybrid_nn.csv")}
    assert outputs["1"] == outputs["2"]
    assert outputs["1"]["report.json"] == (demo_bundle["out_dir"] / "report.json").read_bytes()
