"""Self-tests of the benchmark.  From the repository root:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import qburst

import run
import speed
import tracing
import workloads

REFERENCE = workloads.load_reference()

# One small item per workload.
SMALL_ITEMS = {
    "limits": "table1 [[13,1]]",
    "search": "gf4 n=13",
    "rs": "table3 [[15,5]]_2^4",
    "census": "table4 [[5,1]]",
}


def reference_item(workload: str, item_id: str) -> dict:
    return next(it for it in REFERENCE[workload] if it["id"] == item_id)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3].
        spans = [
            (4, 2, 0, "c", "s", 2.0, 3.0),
            (2, 1, 0, "a", "s", 1.0, 4.0),
            (3, 1, 0, "b", "s", 5.0, 6.0),
            (1, 0, 0, "root", "s", 0.0, 10.0),
        ]
        self.assertEqual(
            tracing.self_times(spans), {"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}
        )

    def test_self_time_sums_spans_of_one_name(self):
        spans = [
            (2, 1, 0, "leaf", "s", 1.0, 2.0),
            (3, 1, 0, "leaf", "s", 3.0, 3.5),
            (1, 0, 0, "root", "s", 0.0, 4.0),
        ]
        self.assertEqual(tracing.self_times(spans), {"root": 2.5, "leaf": 1.5})


class TracedOutputTest(unittest.TestCase):
    def test_traced_and_untraced_outputs_match(self):
        for workload, item_id in SMALL_ITEMS.items():
            item = reference_item(workload, item_id)
            plain = workloads.prepare(qburst, workload, [item])(item)
            tracer = tracing.Tracer()
            tracer.install(qburst)
            try:
                traced = workloads.prepare(qburst, workload, [item])(item)
            finally:
                tracer.uninstall()
            with self.subTest(workload=workload):
                self.assertEqual(traced, plain)
                self.assertEqual(workloads.classify(item, plain), "ok")
                self.assertTrue(tracer.spans)

    def test_uninstall_restores_every_binding(self):
        from qburst import matgf, qccburst, qrsburst

        before = (qburst.row_reduce, matgf.row_reduce, qccburst.row_reduce,
                  qrsburst.row_reduce, qburst.FieldSpec.mul, matgf.MatrixGF.matmul)
        tracer = tracing.Tracer()
        tracer.install(qburst)
        self.assertIsNot(qccburst.row_reduce, before[2])
        tracer.uninstall()
        after = (qburst.row_reduce, matgf.row_reduce, qccburst.row_reduce,
                 qrsburst.row_reduce, qburst.FieldSpec.mul, matgf.MatrixGF.matmul)
        self.assertEqual(before, after)

    def test_counts_repeat_exactly(self):
        item = reference_item("limits", "table1 [[25,5]]")
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install(qburst)
            try:
                workloads.prepare(qburst, "limits", [item])(item)
            finally:
                tracer.uninstall()
            counts.append({k: v for k, v in tracer.layer_metrics().items()
                           if not k.endswith("_s")})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["qccburst.windows"], 0)


class ReferenceCheckTest(unittest.TestCase):
    def test_wrong_expected_value_is_flagged(self):
        item = dict(reference_item("rs", "table3 [[63,55]]_2^6"))
        outcome = item["expect"]
        self.assertEqual(workloads.classify(item, outcome), "ok")
        item["expect"] = outcome.replace("L=", "L=1")
        self.assertEqual(workloads.classify(item, outcome), "MISMATCH")

    def test_flagged_row_reaching_its_outcome_is_expected(self):
        item = reference_item("limits", "table1 [[21,9]]")
        self.assertTrue(any(f.startswith("expected-discrepancy") for f in item["flags"]))
        self.assertEqual(workloads.classify(item, item["expect"]), "expected")
        self.assertEqual(workloads.classify(item, item["printed"]), "MISMATCH")

    def test_error_outcome_names_the_exception(self):
        self.assertEqual(workloads.error_outcome(KeyError(52)), "error: KeyError: 52")


class SelectionTest(unittest.TestCase):
    def test_seed_fixes_the_pass(self):
        for workload in workloads.WORKLOADS:
            a = workloads.pass_items(workload, 7, REFERENCE)
            self.assertEqual(a, workloads.pass_items(workload, 7, REFERENCE))

    def test_rs_pass_keeps_both_kinds_of_m6_row(self):
        for seed in range(6):
            items = workloads.pass_items("rs", seed, REFERENCE)
            m6 = [it for it in items if it["m"] == 6]
            self.assertEqual(sum(it["pairs"] == 2 for it in m6), 4)
            self.assertEqual(sum(it["pairs"] == 1 for it in m6), 14)
            self.assertEqual(sum(it["m"] != 6 for it in items), 13)


class SpeedTest(unittest.TestCase):
    def test_factor_and_spent_cover_the_stretch_between_marks(self):
        sampler = speed.Sampler()
        # marks at 0 and 4; timer samples at 1-3, one of them before t0
        sampler.starts = [0.0, 0.5, 2.0, 3.0, 9.0]
        sampler.durations = [0.1, 0.2, 0.3, 0.4, 0.1]
        sampler.rates = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertEqual(sampler.factor(0, 4), 3.0)
        self.assertEqual(sampler.factor(1, 2), 2.5)
        self.assertAlmostEqual(sampler.spent(0, 4, 1.0, 8.0), 0.7)

    def test_timer_samples_while_work_runs_and_stop_restores_the_handler(self):
        import signal
        from time import perf_counter

        before = signal.getsignal(signal.SIGALRM)
        sampler = speed.Sampler()
        first = sampler.mark()
        sampler.start()
        try:
            t0 = perf_counter()
            while perf_counter() - t0 < 20 * speed.PERIOD_S:
                pass
            t1 = perf_counter()
            last = sampler.mark()
        finally:
            sampler.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreater(last - first, 5)
        self.assertGreater(sampler.spent(first, last, t0, t1), 0)
        self.assertLess(sampler.spent(first, last, t0, t1), t1 - t0)
        self.assertGreater(sampler.factor(first, last), 0)


class MetricTableTest(unittest.TestCase):
    def test_tail_percentile_leaves_ten_samples_above(self):
        for n in (11, 31, 48, 66, 132):
            xs = list(range(n))
            value, percentile = run.tail_latency(xs)
            self.assertGreaterEqual(sum(x > value for x in xs), 10, n)
            # one percentile higher would leave fewer than ten above
            self.assertGreater((percentile + 1) * n / 100, n - 10, n)
        self.assertEqual(run.tail_latency([3.0, 1.0, 2.0]), (3.0, 100))

    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        census_keys = [run.census_key(it) for it in REFERENCE["census"]]
        self.assertEqual(tuple(census_keys), run.CENSUS_KEYS)


if __name__ == "__main__":
    unittest.main()
