"""The chain's outputs on four fixtures, held to a committed record.

`golden.json` holds, for bundled seeds 11 and 3 and for twelve-year seeds 5
and 11 (split at 2017 as the benchmark's `long_fixed`, ``nn_hidden = 4``):

* the sha256 of every `pipeline run` artifact except `timings.json`;
* the three ARIMA orders, the columns full least squares drops as
  collinear, the columns each stepwise direction keeps, the network's
  hidden size and the five stage accuracies;

and, on bundled seed 11 only, the sha256 of the stdout of `diagnose`,
`fit-arima --config`, `indicators`, `stepwise` and `train-nn --hidden 4`,
with the data directory written as ``demo``.  That is 49 digests.

Digests depend on the floating-point library, so they are compared only
where numpy's version, its BLAS build and the core that BLAS runs on are
the record's; elsewhere the discrete choices must match exactly and the
accuracies within 1e-9 relative.
A change that moves an output regenerates the record with

    PYTHONPATH=src python tests/test_golden.py --write

and says which entries moved and why.
"""

import contextlib
import copy
import ctypes
import datetime
import hashlib
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from chaincast import cli, pipeline, synthetic
from chaincast.ingest import json_text

RECORD = Path(__file__).with_name("golden.json")

_LONG = ("train_start = 2007-01-01", "train_end = 2017-01-01",
         "test_start = 2017-01-02", "test_end = 2019-01-01", "nn_hidden = 4")
# name: (fixture seed, first year, config lines beyond the three inputs)
FIXTURES = {
    "bundled-11": (11, 2015, ()),
    "bundled-3": (3, 2015, ()),
    "long-5": (5, 2007, _LONG),
    "long-11": (11, 2007, _LONG),
}
STAGE_COMMANDS = {
    "diagnose": ("diagnose", "--input", "{root}/gold.csv"),
    "fit-arima": ("fit-arima", "--input", "{root}/gold.csv", "--config", "{cfg}"),
    "indicators": ("indicators", "--input", "{root}/gold.csv"),
    "stepwise": ("stepwise", "--config", "{cfg}"),
    "train-nn": ("train-nn", "--config", "{cfg}", "--hidden", "4"),
}


def blas_core() -> str:
    """The core numpy's OpenBLAS chose when it loaded (one build carries
    kernels for many), or "unknown" where the library does not say."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def environment() -> dict:
    """What the digests depend on beyond the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "core": blas_core(),
            "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_fixture(root: Path, name: str) -> Path:
    """Write one fixture and its config under ``root`` and run the chain
    into ``root / "out"``; returns the config's path."""
    seed, year, extra = FIXTURES[name]
    synthetic.make_fixture(root, seed=seed, start=datetime.date(year, 1, 1))
    cfg = root / "pipeline.cfg"
    cfg.write_text("".join(f"{line}\n" for line in (
        "gold_csv = gold.csv", "eurusd_csv = eurusd.csv", "oil_csv = oil.csv",
        *extra, "out_dir = out")), encoding="utf-8")
    pipeline.run(pipeline.load_config(cfg))
    return cfg


def fixture_entry(out_dir: Path) -> dict:
    """The recorded outputs of one `pipeline run`."""
    body = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return {
        "artifacts": {p.name: _sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())
                      if p.name != "timings.json"},
        "orders": {asset: entry["order"] for asset, entry in body["assets"].items()},
        "dropped_collinear": body["full_ols"]["dropped_collinear"],
        "selected": {direction: entry["included"]
                     for direction, entry in body["stepwise"].items()},
        "chosen_hidden": body["neural_net"]["chosen_hidden"],
        "accuracies": body["stage_accuracies"],
    }


def stage_digests(cfg: Path) -> dict:
    """sha256 of each stage subcommand's stdout on the fixture beside
    ``cfg``, its directory written as demo."""
    root, digests = cfg.parent, {}
    for name, argv in STAGE_COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([a.format(root=root, cfg=cfg) for a in argv]) == 0, name
        digests[name] = _sha256(stdout.getvalue().replace(str(root), "demo").encode())
    return digests


def record(scratch: Path, bundled_cfg: Path | None = None) -> dict:
    """The whole record, each fixture run under ``scratch``.  ``bundled_cfg``
    is the config of a finished bundled seed-11 run, with its artifacts in
    ``out`` beside it, to reuse instead of running it again."""
    configs = {}
    for name in FIXTURES:
        reuse = name == "bundled-11" and bundled_cfg is not None
        configs[name] = bundled_cfg if reuse else run_fixture(scratch / name, name)
    return {
        "environment": environment(),
        "fixtures": {name: fixture_entry(cfg.parent / "out") for name, cfg in configs.items()},
        "stdout": stage_digests(configs["bundled-11"]),
    }


def _digests(rec: dict) -> dict:
    found = {f"stdout/{name}": digest for name, digest in rec["stdout"].items()}
    for fixture, entry in rec["fixtures"].items():
        found.update((f"{fixture}/{name}", digest)
                     for name, digest in entry["artifacts"].items())
    return found


def compare(got: dict, want: dict) -> None:
    """Hold the record ``got`` to ``want``: choices exactly, accuracies
    within 1e-9 relative, and digests where the environments agree."""
    for fixture, expected in want["fixtures"].items():
        entry = got["fixtures"][fixture]
        for field in ("orders", "dropped_collinear", "selected", "chosen_hidden"):
            assert entry[field] == expected[field], (fixture, field)
        assert entry["accuracies"].keys() == expected["accuracies"].keys()
        for stage, accuracy in expected["accuracies"].items():
            assert math.isclose(entry["accuracies"][stage], accuracy, rel_tol=1e-9), \
                (fixture, stage, entry["accuracies"][stage], accuracy)
    if got["environment"] == want["environment"]:
        found, expected = _digests(got), _digests(want)
        moved = sorted(k for k in found.keys() | expected.keys()
                       if found.get(k) != expected.get(k))
        assert not moved, f"entries that differ from {RECORD.name}: {moved}"


def test_outputs_match_the_golden_record(demo_bundle, tmp_path):
    want = json.loads(RECORD.read_text(encoding="utf-8"))
    assert len(_digests(want)) == 49
    compare(record(tmp_path, demo_bundle["cfg_path"]), want)


def test_another_environment_ignores_digests_but_not_choices():
    """A record made on another BLAS core, checked without running the
    chain: its moved digest passes, its moved choice still fails."""
    want = json.loads(RECORD.read_text(encoding="utf-8"))
    got = copy.deepcopy(want)
    got["stdout"]["diagnose"] = "0" * 64
    with pytest.raises(AssertionError, match="stdout/diagnose"):
        compare(got, want)
    got["environment"]["core"] = "another core"
    compare(got, want)
    got["fixtures"]["long-5"]["orders"]["gold"] = [9, 9, 9]
    with pytest.raises(AssertionError, match="orders"):
        compare(got, want)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        text = json_text(record(Path(scratch)))
    RECORD.write_text(text, encoding="utf-8")
    print(f"wrote {RECORD}")
