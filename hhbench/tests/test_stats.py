"""Tests for the benchmark's own statistics.

    python3 -m unittest discover -s hhbench/tests
"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = stats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)  # 91..100 lie beyond it
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0,
                  11.0, 12.0]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_smallest_sample_count_with_a_tail(self):
        value, pct, n = stats.tail([float(v) for v in range(11)])
        self.assertEqual((value, n), (0.0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_percentile_rises_with_samples(self):
        _, p40, _ = stats.tail(range(40))
        _, p1000, _ = stats.tail(range(1000))
        self.assertAlmostEqual(p40, 75.0)
        self.assertAlmostEqual(p1000, 99.0)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(stats.tail(list(range(10))), (9, 100.0, 10))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.tail([])

    def test_ties_count_as_beyond_by_rank(self):
        value, _, _ = stats.tail([1.0] * 5 + [2.0] * 20)
        self.assertEqual(value, 2.0)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [0.9, 1.3, 1.1, 1.0, 1.2, 0.8, 1.05, 1.15, 0.95, 1.25]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([4.0] * 10), 0.0)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)


class FailRateTest(unittest.TestCase):
    def test_ratio_of_failed_to_attempted(self):
        self.assertEqual(stats.fail_rate(0, 40), 0.0)
        self.assertEqual(stats.fail_rate(1, 4), 0.25)
        self.assertEqual(stats.fail_rate(3, 3), 1.0)

    def test_nothing_checked_is_a_failure(self):
        self.assertEqual(stats.fail_rate(0, 0), 1.0)


class ReductionTest(unittest.TestCase):
    RAW = {
        "workload": "campaign", "unit": "trial",
        "attempted": 40, "failed": 2, "errors": [],
        "setup_s": [3.0, 5.0, 4.0],
        "unit_ms": [float(v) for v in range(1, 41)],
        "throughput_units": 40, "throughput_seconds": 20.0,
        "trials": 40, "peak_rss_mb": 96.5,
    }

    def test_fail_rate_counts_failed_checks_over_attempted(self):
        metrics, _ = run.end_to_end(self.RAW)
        self.assertEqual(metrics["fail_rate"], (2 / 40, "ratio"))

    def test_end_to_end_reduction(self):
        metrics, notes = run.end_to_end(self.RAW)
        self.assertEqual(metrics["setup_s"][0], 4.0)
        self.assertEqual(metrics["units_per_s"][0], 2.0)
        self.assertEqual(metrics["unit_p50_ms"][0], 20.5)
        self.assertEqual(metrics["unit_tail_ms"][0], 30.0)
        self.assertEqual(notes["unit_tail_ms"], "p75.0 of 40 trials")
        self.assertEqual(metrics["trial_p50_ms"], metrics["unit_p50_ms"])

    def test_trace_overhead_is_replay_against_orchestrator(self):
        raw = {"spans": {"trace.replay_ms": [110.0, 130.0],
                         "attack.trial_ms": [100.0, 100.0]},
               "counts": {"dram.flips": 3}}
        metrics, _ = run.per_layer(raw)
        self.assertAlmostEqual(metrics["trace.overhead_frac"][0], 0.2)
        self.assertEqual(metrics["dram.flips"], (3, "count"))
        self.assertEqual(metrics["trace.replay_ms"], (120.0, "ms"))


if __name__ == "__main__":
    unittest.main()
