"""The chaincast benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload demo_sweep --seed 11 --seconds 38 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` the workload's
operations run as ``chaincast`` children in a closed loop and the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
the operation runs in this process with every layer boundary wrapped, and
the line holds the per-layer metrics.  Working files, per-run records and
the span dump go to ``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import measure
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "chaincast"
WORK = ROOT / ".bench_work"

# Set-up runs this many times before the first operation and once more
# before each operation; setup_s is the median.
SETUP_REPEATS = 3
# A timed run makes at least this many operations, so that wall_s_tail
# (the second-slowest, see measure.tail) lies above the fastest one.
TIMED_MIN_OPS = 3
# Fresh `python -X importtime` processes per traced run.
IMPORT_REPEATS = 3
# Every child is killed at this many seconds into the run, so a hung
# operation cannot keep the benchmark from exiting; a hang inside this
# process (the traced run) ends it by SIGALRM a little later.
RUN_DEADLINE_S = 160.0
ALARM_S = 175


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_operation(inputs, out_dir: Path, log_dir: Path, index: int, deadline: float):
    """One closed-loop operation: its commands in fresh processes, one at a time."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argvs, results = [], []
    for step, args in enumerate(workloads.commands(inputs, out_dir)):
        result = measure.run_child(
            workloads.CHAINCAST + args, env=child_env(), cwd=ROOT,
            log_stem=log_dir / f"op{index}_{step}_{args[0]}",
            timeout=deadline - time.monotonic())
        argvs.append(args)
        results.append(result)
        if result.returncode != 0:
            break
    outcome = workloads.check(inputs.workload.kind, argvs,
                              [r.returncode for r in results],
                              [r.stdout for r in results], out_dir)
    outcome.problems += [f"{a[0]} timed out" for a, r in zip(argvs, results) if r.timed_out]
    wall = sum(r.wall_s for r in results)
    rss = max(r.peak_rss_mb for r in results)
    return outcome, wall, rss


def closed_loop(operation, seconds: float, deadline: float, min_ops: int = 1) -> list:
    """Call ``operation(index)`` back to back for about ``seconds``.

    Another operation starts only while it is expected to end less than
    half an operation past ``seconds``, so runs last about ``seconds`` on
    average whatever an operation costs; at least ``min_ops`` run.  Each
    operation's deterministic outputs must match the first successful one.
    Returns the ``(outcome, wall_s, peak_rss_mb)`` triples.
    """
    samples = []
    reference = None
    started = time.monotonic()
    while True:
        outcome, wall, peak = operation(len(samples))
        workloads.compare(outcome, reference)
        if outcome.ok and reference is None:
            reference = outcome.fingerprint
        samples.append((outcome, wall, peak))
        used = time.monotonic() - started
        median_wall = statistics.median(s[1] for s in samples)
        if len(samples) >= min_ops and (used + median_wall / 2 > seconds
                                        or time.monotonic() > deadline):
            return samples


def summarize(samples, setup_times, record: dict) -> dict:
    """End-to-end metrics of a closed loop; details go into ``record``.

    Timings and accuracies come from the operations that passed their
    checks (all of them if none did); every failure counts against
    ``completed_frac``.
    """
    outcomes = [s[0] for s in samples]
    walls = [s[1] for s in samples]
    rss = [s[2] for s in samples]
    good = [i for i, o in enumerate(outcomes) if o.ok] or list(range(len(outcomes)))
    ok_walls = [walls[i] for i in good]
    tail_value, tail_pct, tail_n = measure.tail(ok_walls)
    failed = sum(not o.ok for o in outcomes)
    metrics = {
        "wall_s": statistics.median(ok_walls),
        "wall_s_tail": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(rss[i] for i in good),
        "completed_frac": (len(outcomes) - failed) / len(outcomes),
    }
    for metric in workloads.ACCURACY_KEYS:
        values = [outcomes[i].accuracies.get(metric, float("nan")) for i in good]
        metrics[metric] = statistics.median(values)
    record.update({
        "wall_samples_s": walls, "peak_rss_samples_mb": rss,
        "stage_timings_s": [o.stage_timings for o in outcomes],
        "wall_s_tail_percentile": tail_pct, "wall_s_tail_samples": tail_n,
        "failed_frac": failed / len(outcomes),
        "problems": [p for o in outcomes for p in o.problems],
    })
    return {"attempted": len(outcomes), "failed": failed, "metrics": metrics}


def timed_run(inputs, seconds: float, deadline: float, record: dict) -> dict:
    """Closed loop of chaincast children for about ``seconds``."""
    name = inputs.workload.name
    out_dir = WORK / name / "out"
    log_dir = WORK / name / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)

    def operation(index):
        workloads.regenerate(inputs, time.perf_counter)
        return run_operation(inputs, out_dir, log_dir, index, deadline)

    samples = closed_loop(operation, seconds, deadline, min_ops=TIMED_MIN_OPS)
    return summarize(samples, inputs.setup_times, record)


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)$")
# Module whose cumulative -X importtime gives each import metric.
IMPORT_METRICS = {"chaincast.cli": "import.chaincast_s",
                  "scipy.optimize": "import.scipy_optimize_s",
                  "scipy.signal": "import.scipy_signal_s"}


def import_metrics(log_dir: Path, deadline: float) -> tuple[dict[str, float], list[str]]:
    """Cumulative import times from fresh ``python -X importtime`` processes.

    ``import.chaincast_s`` covers ``import chaincast.cli``, which is what
    the console script does before it parses its arguments.  The two scipy
    modules are imported explicitly afterwards, so they are measured even
    if chaincast stops importing them up front.
    """
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_METRICS.values()}
    problems = []
    for i in range(IMPORT_REPEATS):
        result = measure.run_child(
            (sys.executable, "-X", "importtime", "-c", "import " + ", ".join(IMPORT_METRICS)),
            env=child_env(), cwd=ROOT, log_stem=log_dir / f"importtime{i}",
            timeout=deadline - time.monotonic())
        found = {m.group(2): int(m.group(1)) / 1e6
                 for m in map(_IMPORT_LINE.match, result.stderr.splitlines()) if m}
        if result.returncode != 0 or not set(IMPORT_METRICS) <= set(found):
            problems.append(f"import timing run {i} failed with code {result.returncode}")
            continue
        for module, metric in IMPORT_METRICS.items():
            samples[metric].append(found[module])
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}, problems


def _exit_code(fn, arg) -> int:
    """``fn(arg)`` as a process would end: its code, or 1 with a traceback."""
    try:
        return fn(arg)
    except Exception:  # the operation fails; the run goes on and reports it
        traceback.print_exc()
        return 1


def in_process_operation(inputs, out_dir: Path, tracer=None):
    """One operation's commands through ``cli.main`` in this process."""
    from chaincast import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    argvs, codes, stdouts = [], [], []
    started = time.perf_counter()
    for args in workloads.commands(inputs, out_dir):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), span("cli.main"):
            code = _exit_code(cli.main, list(args))
        argvs.append(args)
        codes.append(code)
        stdouts.append(captured.getvalue())
        if code != 0:
            break
    wall = time.perf_counter() - started
    return workloads.check(inputs.workload.kind, argvs, codes, stdouts, out_dir), wall


def traced_run(inputs, seconds: float, deadline: float, record: dict) -> dict:
    """Per-layer metrics from in-process operations, traced and untraced.

    The first operation warms this process's caches and is only checked.
    The rest alternate traced, untraced, untraced, traced, ... so each kind
    runs first equally often, and ``trace.overhead_s`` compares them.
    """
    name = inputs.workload.name
    out_dir = WORK / name / "out_traced"
    log_dir = WORK / name / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    imports, problems = import_metrics(log_dir, deadline)
    walls = {True: [], False: []}
    per_op, span_dump, unwrapped = [], [], set()

    def operation(index):
        workloads.regenerate(inputs, time.perf_counter)
        traced = index > 0 and (index - 1) % 4 in (0, 3)
        tracer = spans.Tracer() if traced else None
        if traced:
            unwrapped.update(layers.instrument(tracer))
        try:
            outcome, wall = in_process_operation(inputs, out_dir, tracer)
        finally:
            if traced:
                tracer.restore()
        if index > 0:
            walls[traced].append(wall)
        if traced:
            per_op.append(layers.layer_metrics(tracer))
            outcome.problems.extend(spans.nesting_problems(tracer.spans))
            span_dump.append([vars(s) for s in tracer.spans])
        return outcome, wall, 0.0

    # at least the warm-up, one traced and one untraced operation
    samples = closed_loop(operation, seconds - (time.monotonic() - started), deadline,
                          min_ops=3)
    problems += [p for outcome, _, _ in samples for p in outcome.problems]
    for key in layers.EXACT_COUNTS:
        if len({op[key] for op in per_op}) > 1:
            problems.append(f"{key} differs between traced operations: "
                            f"{[op[key] for op in per_op]}")
    # median_low picks one operation's value, so counts stay whole numbers
    metrics = {key: statistics.median_low(op[key] for op in per_op) for key in per_op[0]}
    metrics.update(imports)
    metrics["synthetic.make_fixture_s"] = statistics.median(inputs.setup_times)
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    (WORK / name / "spans.json").write_text(json.dumps(span_dump), encoding="utf-8")
    record.update({"traced_walls_s": walls[True], "untraced_walls_s": walls[False],
                   "per_operation": per_op, "problems": problems,
                   "unwrapped_boundaries": sorted(unwrapped)})
    return {"attempted": len(samples), "failed": sum(not o.ok for o, _, _ in samples),
            "metrics": metrics}


def declared_units(section: str) -> dict[str, str]:
    """Metric name to unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _stop(signum, frame):
    """Turn SIGTERM and the run alarm into an exit that reaps the running child."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no chaincast sources at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    for signum in (signal.SIGTERM, signal.SIGALRM):
        signal.signal(signum, _stop)
    signal.alarm(ALARM_S)
    sys.path.insert(0, str(SRC))
    from chaincast import synthetic

    workload = workloads.WORKLOADS[args.workload]
    work_dir = WORK / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.make_inputs(workload, args.seed, work_dir / "fixture",
                                       synthetic.make_fixture, time.perf_counter)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for _ in range(SETUP_REPEATS - 1):
        workloads.regenerate(inputs, time.perf_counter)
    for message in inputs.refused:
        print(message, file=sys.stderr)

    record = {"workload": workload.name, "seed": args.seed,
              "fixture_seed": inputs.fixture_seed, "refused_seeds": inputs.refused,
              "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": inputs.setup_times,
              "machine": measure.machine_record(PACKAGE)}
    if args.trace:
        result = traced_run(inputs, args.seconds, deadline, record)
    else:
        result = timed_run(inputs, args.seconds, deadline, record)
    problems = record["problems"]
    correct = not problems and result["failed"] == 0
    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    record.update({"correct": correct, "metrics": metrics})
    (work_dir / f"result_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    machine = record["machine"]
    print(f"workload {workload.name}: seed {args.seed} (fixture seed {inputs.fixture_seed}), "
          f"{result['attempted']} operations, {result['failed']} failed")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    if not args.trace:
        print("wall samples (s): " + " ".join(f"{w:.3f}" for w in record["wall_samples_s"]))
        n = record["wall_s_tail_samples"]
        print(f"wall_s_tail is the p{record['wall_s_tail_percentile']:.1f} of {n} samples"
              + (" (fewer than 11, so not ten samples beyond it)" if n <= 10 else ""))
    for problem in problems:
        print(f"problem: {problem}")
    for boundary in record.get("unwrapped_boundaries", []):
        print(f"not traced (no longer in the program): {boundary}")
    for key, m in metrics.items():
        print(f"{key:>32} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
