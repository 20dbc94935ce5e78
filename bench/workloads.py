"""Workload inputs, the commands of one operation, and output checks.

Every workload is a closed loop with one client: the benchmark starts one
``chaincast`` child at a time and waits for it before starting the next.
"""

from __future__ import annotations

import datetime
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# The same entry point the installed ``chaincast`` console script runs.
CHAINCAST = (sys.executable, "-c", "import sys; from chaincast.cli import main; sys.exit(main())")

# Later fixture seeds tried, in order, when make_fixture refuses a seed.
SEED_STRIDE = 1000
SEED_ATTEMPTS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    start: datetime.date
    end: datetime.date
    split: tuple[str, str, str, str]  # train_start, train_end, test_start, test_end
    config_extra: tuple[str, ...] = ()
    kind: str = "pipeline"  # "pipeline" or "stage_cli"


BUNDLED = (datetime.date(2015, 1, 1), datetime.date(2018, 12, 31))
BUNDLED_SPLIT = ("2015-01-01", "2018-01-01", "2018-01-02", "2019-01-01")

WORKLOADS = {
    w.name: w for w in (
        # the paper's headline run: default config, hidden-size sweep 1..10
        Workload("demo_sweep", *BUNDLED, BUNDLED_SPLIT),
        # 3x longer series with the sweep bypassed: ARIMA search and least
        # squares dominate, and sweep changes should leave it unchanged
        Workload("long_fixed", datetime.date(2007, 1, 1), datetime.date(2018, 12, 31),
                 ("2007-01-01", "2017-01-01", "2017-01-02", "2019-01-01"),
                 ("nn_hidden = 4",)),
        # one stage per fresh process: cold imports and the ingest-to-features
        # prefix that `stepwise` and `train-nn` each repeat
        Workload("stage_cli", *BUNDLED, BUNDLED_SPLIT, kind="stage_cli"),
    )
}


class SetupError(RuntimeError):
    """The workload's inputs could not be generated."""


@dataclass
class Inputs:
    workload: Workload
    fixture_seed: int
    refused: list[str]  # one message per refused seed, naming it
    fixture_dir: Path
    config: Path
    make_fixture: object  # synthetic.make_fixture, or a stand-in in tests
    setup_times: list[float]


def config_text(workload: Workload) -> str:
    train_start, train_end, test_start, test_end = workload.split
    lines = ["gold_csv = gold.csv", "eurusd_csv = eurusd.csv", "oil_csv = oil.csv",
             f"train_start = {train_start}", f"train_end = {train_end}",
             f"test_start = {test_start}", f"test_end = {test_end}",
             *workload.config_extra, "out_dir = out"]
    return "\n".join(lines) + "\n"


def make_inputs(workload: Workload, seed: int, fixture_dir: Path, make_fixture,
                clock) -> Inputs:
    """Generate the workload's fixture and config once, timing it.

    The fixture seed is ``seed`` itself.  make_fixture refuses some seeds
    (a synthetic price walk leaves its range); each refusal is reported as
    a setup failure naming the seed, and the next seed of the fixed
    sequence ``seed + 1000``, ``seed + 2000``, ... is tried, so a given
    ``--seed`` always yields the same inputs.
    """
    refused = []
    for attempt in range(SEED_ATTEMPTS):
        candidate = seed + attempt * SEED_STRIDE
        inputs = Inputs(workload, candidate, refused, fixture_dir,
                        fixture_dir / "pipeline.cfg", make_fixture, [])
        try:
            regenerate(inputs, clock)
        except ValueError as exc:
            if "choose another seed" not in str(exc):
                raise
            refused.append(f"setup failure: make_fixture refused seed {candidate} "
                           f"for {workload.name}: {exc}")
            continue
        return inputs
    raise SetupError("; ".join(refused))


def regenerate(inputs: Inputs, clock) -> None:
    """Write the fixture and config again and record how long it took.

    The bytes are the same every time, so this can run between operations
    to spread the set-up samples over the whole run.
    """
    workload = inputs.workload
    started = clock()
    inputs.make_fixture(inputs.fixture_dir, seed=inputs.fixture_seed,
                 start=workload.start, end=workload.end)
    inputs.config.write_text(config_text(workload), encoding="utf-8")
    inputs.setup_times.append(clock() - started)


# Artifacts README.md documents for `pipeline run`.
PIPELINE_ARTIFACTS = (
    "report.json", "timings.json", "predictions_arima_gold.csv",
    "predictions_ols_full.csv", "predictions_stepwise_forward.csv",
    "predictions_stepwise_backward.csv", "predictions_hybrid_nn.csv",
    "comparison.csv", "correlogram_gold.csv", "correlogram_eurusd.csv",
    "correlogram_oil.csv", "model_nn.json",
)

ACCURACY_KEYS = {"acc_arima_gold": "arima_gold",
                 "acc_stepwise_backward": "stepwise_backward",
                 "acc_hybrid_nn": "hybrid_nn"}


def commands(inputs: Inputs, out_dir: Path) -> list[tuple[str, ...]]:
    """The chaincast argument lists of one operation."""
    cfg = str(inputs.config)
    if inputs.workload.kind == "pipeline":
        return [("pipeline", "run", "--config", cfg, "--out", str(out_dir))]
    gold = str(inputs.fixture_dir / "gold.csv")
    return [
        ("diagnose", "--input", gold),
        ("fit-arima", "--input", gold, "--config", cfg),
        ("indicators", "--input", gold, "--out", str(out_dir / "gold_indicators.csv")),
        ("stepwise", "--config", cfg, "--direction", "backward"),
        ("train-nn", "--config", cfg, "--hidden", "4"),
    ]


# Accuracy lines printed by the stage subcommands, by the metric they give.
_STAGE_ACCURACY = {
    "fit-arima": ("acc_arima_gold",
                  re.compile(r"rolling one-step accuracy on \d+ held-out days: (\S+)%")),
    "stepwise": ("acc_stepwise_backward", re.compile(r"test accuracy on \d+ days: (\S+)%")),
    "train-nn": ("acc_hybrid_nn", re.compile(r"test accuracy on \d+ days: (\S+)%")),
}


@dataclass
class Outcome:
    """What one operation produced, and why it failed if it did."""

    problems: list[str] = field(default_factory=list)
    accuracies: dict[str, float] = field(default_factory=dict)
    fingerprint: dict[str, str] = field(default_factory=dict)
    stage_timings: dict[str, float] = field(default_factory=dict)  # timings.json

    @property
    def ok(self) -> bool:
        return not self.problems


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check(kind: str, argvs, returncodes, stdouts, out_dir: Path) -> Outcome:
    """Check one operation's outputs on their own.

    ``argvs``, ``returncodes`` and ``stdouts`` hold one entry per command.
    The fingerprint holds the deterministic outputs that must repeat byte
    for byte: ``report.json`` for a pipeline run, and each command's stdout
    plus the indicator table for the stage commands.
    """
    outcome = Outcome()
    for argv, code in zip(argvs, returncodes):
        if code != 0:
            outcome.problems.append(f"{argv[0]} exited with code {code}")
    if outcome.problems:
        return outcome
    if kind == "pipeline":
        missing = [a for a in PIPELINE_ARTIFACTS if not (out_dir / a).is_file()]
        if missing:
            outcome.problems.append("missing artifact(s): " + ", ".join(missing))
            return outcome
        report_text = (out_dir / "report.json").read_text(encoding="utf-8")
        try:
            stages = json.loads(report_text).get("stage_accuracies", {})
            outcome.stage_timings = json.loads(
                (out_dir / "timings.json").read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            outcome.problems.append(f"unreadable report or timings: {exc}")
            return outcome
        for metric, stage in ACCURACY_KEYS.items():
            outcome.accuracies[metric] = float(stages.get(stage, math.nan))
        outcome.fingerprint["report.json"] = report_text
    else:
        for argv, stdout in zip(argvs, stdouts):
            outcome.fingerprint[argv[0]] = stdout
            if argv[0] in _STAGE_ACCURACY:
                metric, pattern = _STAGE_ACCURACY[argv[0]]
                found = pattern.search(stdout)
                if found is None:
                    outcome.problems.append(f"{argv[0]} printed no accuracy line")
                else:
                    outcome.accuracies[metric] = _float(found.group(1))
        table = out_dir / "gold_indicators.csv"
        if not table.is_file():
            outcome.problems.append("missing artifact: gold_indicators.csv")
        else:
            outcome.fingerprint["gold_indicators.csv"] = table.read_text(encoding="utf-8")
    for metric, value in outcome.accuracies.items():
        if not math.isfinite(value):
            outcome.problems.append(f"{metric} is not finite: {value}")
    return outcome


def compare(outcome: Outcome, reference: dict[str, str] | None) -> None:
    """Fail ``outcome`` if its deterministic outputs differ from the reference."""
    if reference is None or not outcome.ok:
        return
    for key, text in reference.items():
        if outcome.fingerprint.get(key) != text:
            outcome.problems.append(f"{key} differs from the first repeat")
