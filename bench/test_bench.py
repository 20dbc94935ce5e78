"""Tests of the benchmark's own logic: statistics, spans, failure accounting
and seed refusal.  They do not time anything.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import math
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond_the_reported_one(self):
        samples = list(range(1, 101))  # 1..100
        value, pct, n = measure.tail(reversed(samples))
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(s > value for s in samples), 10)

    def test_smallest_sample_count_with_a_percentile(self):
        value, pct, n = measure.tail([5.0] * 10 + [1.0])
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100.0 / 11)
        self.assertEqual(n, 11)

    def test_too_few_samples_keep_one_sample_beyond(self):
        self.assertEqual(measure.tail([4.0, 1.0, 3.0, 2.0]), (3.0, 75.0, 4))
        self.assertEqual(measure.tail(range(10)), (8, 90.0, 10))
        self.assertEqual(measure.tail([2.0, 1.0, 3.0]), (2.0, 100.0 * 2 / 3, 3))
        self.assertEqual(measure.tail([2.0, 1.0]), (2.0, 100.0, 2))
        self.assertEqual(measure.tail([2.5]), (2.5, 100.0, 1))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            measure.tail([])


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


class SpanTest(unittest.TestCase):
    def setUp(self):
        # run [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
        self.spans = [_span("run", 0.0, 10.0), _span("a", 1.0, 4.0, 0),
                      _span("b", 2.0, 3.0, 1), _span("c", 5.0, 9.0, 0)]

    def test_self_time_subtracts_direct_children_only(self):
        self.assertEqual(spans.self_times(self.spans), [3.0, 2.0, 1.0, 4.0])

    def test_children_and_self_time_account_for_the_span(self):
        self.assertEqual(spans.nesting_problems(self.spans), [])
        own = spans.self_times(self.spans)
        children = sum(s.duration for s in self.spans if s.parent == 0)
        self.assertEqual(own[0] + children, self.spans[0].duration)

    def test_busy_counts_nested_spans_of_the_same_layer_once(self):
        self.assertEqual(spans.busy(self.spans, ["a", "b"]), 3.0)
        self.assertEqual(spans.busy(self.spans, ["b", "c"]), 5.0)

    def test_nesting_problems_are_found(self):
        broken = self.spans + [_span("d", 8.0, 11.0, 0)]
        problems = spans.nesting_problems(broken)
        self.assertTrue(any("leaves parent" in p for p in problems))
        self.assertTrue(any("overlaps" in p for p in problems))

    def test_patch_wraps_every_reference_and_restores(self):
        def work(x, scale=2):
            return x * scale

        owner = types.ModuleType("owner")
        owner.work = work
        importer = types.ModuleType("importer")
        importer.alias = work
        tracer = spans.Tracer()

        def count(counters, result, args):
            counters["calls"] += 1
            counters["scaled"] += args["scale"]

        self.assertEqual(tracer.patch([owner, importer], owner, "work", "layer.work",
                                      on_result=count), 2)
        with tracer.span("outer"):
            self.assertEqual(importer.alias(3), 6)
            self.assertEqual(owner.work(1, scale=5), 5)
        tracer.restore()
        self.assertIs(owner.work, work)
        self.assertIs(importer.alias, work)
        self.assertEqual(tracer.counters, {"calls": 2, "scaled": 7})
        self.assertEqual([s.name for s in tracer.spans], ["outer", "layer.work", "layer.work"])
        self.assertEqual([s.parent for s in tracer.spans], [None, 0, 0])
        self.assertEqual(spans.nesting_problems(tracer.spans), [])

    def test_errors_pass_through_the_wrapper(self):
        def boom():
            raise KeyError("x")

        seen = []
        tracer = spans.Tracer()
        wrapped = tracer.wrap("boom", boom, on_error=lambda c, e, a: seen.append(e))
        with self.assertRaises(KeyError):
            wrapped()
        self.assertEqual(len(seen), 1)
        self.assertTrue(tracer.spans[0].end >= tracer.spans[0].start)


class FailureAccountingTest(unittest.TestCase):
    def _child(self, tmp: Path, code: int, name: str):
        return measure.run_child(
            (sys.executable, "-c", f"import sys; print('ran'); sys.exit({code})"),
            env={}, cwd=tmp, log_stem=tmp / name, timeout=60.0)

    def test_forced_nonzero_exit_counts_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "gold_indicators.csv").write_text("date\n", encoding="utf-8")
            samples = []
            for i, code in enumerate((0, 3, 0, 0)):
                child = self._child(tmp, code, f"c{i}")
                self.assertEqual(child.returncode, code)
                self.assertEqual(child.stdout, "ran\n")
                self.assertGreater(child.peak_rss_mb, 0.0)
                argv = ("diagnose", "--input", "gold.csv")
                outcome = workloads.check("stage_cli", [argv], [child.returncode],
                                          [child.stdout], tmp)
                samples.append((outcome, child.wall_s, child.peak_rss_mb))
            record = {}
            result = run.summarize(samples, [0.5, 0.25, 0.75], record)
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))
        self.assertEqual(record["failed_frac"], 0.25)
        self.assertEqual(result["metrics"]["completed_frac"], 0.75)
        self.assertEqual(result["metrics"]["setup_s"], 0.5)
        self.assertIn("diagnose exited with code 3", record["problems"])

    def test_missing_artifact_and_bad_accuracy_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            argvs = [("fit-arima",), ("stepwise",), ("train-nn",)]
            stdouts = ["rolling one-step accuracy on 5 held-out days: nan%",
                       "test accuracy on 5 days: 99.10%", "nothing printed"]
            outcome = workloads.check("stage_cli", argvs, [0, 0, 0], stdouts, tmp)
        self.assertFalse(outcome.ok)
        self.assertEqual(outcome.accuracies["acc_stepwise_backward"], 99.10)
        self.assertTrue(math.isnan(outcome.accuracies["acc_arima_gold"]))
        joined = " | ".join(outcome.problems)
        self.assertIn("train-nn printed no accuracy line", joined)
        self.assertIn("missing artifact: gold_indicators.csv", joined)
        self.assertIn("acc_arima_gold is not finite", joined)

    def test_output_that_differs_from_the_first_repeat_fails(self):
        first = workloads.Outcome(fingerprint={"report.json": "a"})
        later = workloads.Outcome(fingerprint={"report.json": "b"})
        workloads.compare(first, None)
        workloads.compare(later, first.fingerprint)
        self.assertTrue(first.ok)
        self.assertEqual(later.problems, ["report.json differs from the first repeat"])

    def test_closed_loop_runs_at_least_once_and_stops_on_time(self):
        calls = []

        def operation(index):
            calls.append(index)
            return workloads.Outcome(fingerprint={"x": "same"}), 0.001, 1.0

        samples = run.closed_loop(operation, seconds=0.0, deadline=float("inf"))
        self.assertEqual(len(samples), 1)
        self.assertEqual(calls, [0])


class MetricNamesTest(unittest.TestCase):
    def test_end_to_end_metrics_match_the_declaration(self):
        outcome = workloads.Outcome(accuracies=dict.fromkeys(workloads.ACCURACY_KEYS, 99.0))
        result = run.summarize([(outcome, 1.0, 100.0)], [0.1], {})
        self.assertEqual(set(result["metrics"]), set(run.declared_units("end_to_end")))

    def test_per_layer_metrics_match_the_declaration(self):
        import layers

        traced = set(layers.layer_metrics(spans.Tracer()))
        measured_elsewhere = {"import.chaincast_s", "import.scipy_optimize_s",
                              "import.scipy_signal_s", "synthetic.make_fixture_s",
                              "trace.overhead_s"}
        self.assertEqual(traced | measured_elsewhere, set(run.declared_units("per_layer")))


class InstrumentTest(unittest.TestCase):
    def test_every_boundary_is_wrapped_and_restored(self):
        import layers
        from chaincast import arima, cli, ingest, pipeline

        originals = (ingest.parse_csv, pipeline.parse_csv, cli.parse_csv, arima.minimize)
        tracer = spans.Tracer()
        try:
            self.assertEqual(layers.instrument(tracer), [])
            self.assertIsNot(pipeline.parse_csv, originals[1])
            self.assertIsNot(cli.parse_csv, originals[2])
            self.assertIsNot(arima.minimize, originals[3])
        finally:
            tracer.restore()
        self.assertEqual((ingest.parse_csv, pipeline.parse_csv, cli.parse_csv, arima.minimize),
                         originals)


class SeedRefusalTest(unittest.TestCase):
    def test_refused_seed_is_named_and_the_next_in_sequence_used(self):
        from chaincast import synthetic

        workload = workloads.WORKLOADS["demo_sweep"]
        ticks = iter(range(100))
        with tempfile.TemporaryDirectory() as tmp:
            inputs = workloads.make_inputs(workload, 2, Path(tmp), synthetic.make_fixture,
                                           clock=lambda: next(ticks))
            workloads.regenerate(inputs, clock=lambda: next(ticks))
            self.assertTrue(inputs.config.is_file())
            self.assertTrue((Path(tmp) / "gold.csv").is_file())
        self.assertEqual(inputs.fixture_seed, 2 + workloads.SEED_STRIDE)
        self.assertEqual(len(inputs.refused), 1)
        self.assertIn("refused seed 2 ", inputs.refused[0])
        self.assertIn("oil walk went too low", inputs.refused[0])
        self.assertEqual(inputs.setup_times, [1, 1])

    def test_accepted_seed_is_used_unchanged(self):
        from chaincast import synthetic

        with tempfile.TemporaryDirectory() as tmp:
            inputs = workloads.make_inputs(workloads.WORKLOADS["stage_cli"], 11, Path(tmp),
                                           synthetic.make_fixture, clock=lambda: 0.0)
        self.assertEqual((inputs.fixture_seed, inputs.refused), (11, []))

    def test_every_seed_refused_is_a_setup_error(self):
        def refuse(out_dir, seed, start, end):
            raise ValueError("oil walk went too low; choose another seed")

        with self.assertRaises(workloads.SetupError) as caught:
            workloads.make_inputs(workloads.WORKLOADS["long_fixed"], 5, Path("unused"),
                                  refuse, clock=lambda: 0.0)
        self.assertIn("refused seed 5 ", str(caught.exception))
        self.assertIn(f"refused seed {5 + 9 * workloads.SEED_STRIDE} ", str(caught.exception))

    def test_other_fixture_errors_are_not_refusals(self):
        def broken(out_dir, seed, start, end):
            raise ValueError("fixture needs at least 120 trading days")

        with self.assertRaises(ValueError):
            workloads.make_inputs(workloads.WORKLOADS["demo_sweep"], 1, Path("unused"),
                                  broken, clock=lambda: 0.0)


if __name__ == "__main__":
    unittest.main()
