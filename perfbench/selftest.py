"""The benchmark's own self-tests: `python3 perfbench/run.py --self-test`.

Covers percentile selection, failure counting, metric-name validity and the
metric lists in BENCHMARK.json (Python), and self time from a synthetic span
set (the binary's --self-test).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent


class TailPercentile(unittest.TestCase):
    def test_ten_samples_lie_beyond(self):
        xs = list(range(400, 0, -1))  # unsorted on purpose
        value, pct, n = benchlib.tail_percentile(xs)
        self.assertEqual(n, 400)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 97.5)

    def test_smallest_supported_sample(self):
        value, pct, n = benchlib.tail_percentile([float(i) for i in range(11)])
        self.assertEqual(value, 0.0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([1.0] * 10)

    def test_ties_count_by_rank(self):
        value, _, _ = benchlib.tail_percentile([5.0] * 20)
        self.assertEqual(value, 5.0)


class Failures(unittest.TestCase):
    def test_counts_flows_not_completed(self):
        reps = [{"flows": 400, "completed": 400}, {"flows": 400, "completed": 397}]
        self.assertEqual(benchlib.count_failures(reps), (800, 3))

    def test_no_repetitions(self):
        self.assertEqual(benchlib.count_failures([]), (0, 0))


class MetricNames(unittest.TestCase):
    def test_rule(self):
        for good in ["setup_s", "crypto.sign_us", "core.ingress.ack.busy_s", "p-99", "9lives"]:
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ["", "_x", ".x", "a b", "a/b", "a:b", "x" * 65, None]:
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_every_emitted_name_is_valid_and_unique(self):
        names = [n for n, _ in benchlib.END_TO_END] + list(benchlib.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(benchlib.valid_metric_name(n), n)

    def test_benchmark_json_lists_the_emitted_metrics(self):
        path = ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        gated = {n: u for n, u in benchlib.END_TO_END if n not in benchlib.UNGATED}
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, gated)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, benchlib.PER_LAYER)


class Determinism(unittest.TestCase):
    def test_first_difference(self):
        a = {"events": 1, "crypto_ops": {"sign": 2}}
        self.assertIsNone(benchlib.first_difference(a, dict(a)))
        self.assertEqual(benchlib.first_difference(a, {"events": 1, "crypto_ops": {"sign": 3}}),
                         "crypto_ops")


def main(binary):
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    ok = unittest.TextTestRunner(stream=sys.stdout, verbosity=2).run(suite).wasSuccessful()
    print("binary self-test (self time from a synthetic span set):")
    ok = subprocess.run([str(binary), "--self-test"]).returncode == 0 and ok
    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1
