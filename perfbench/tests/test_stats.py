"""Unit tests for the benchmark's own statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_p99_needs_1000_samples(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertEqual(stats.percentile(values, 0.99), 990)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(values[:999], 0.99)

    def test_median_needs_20_samples(self):
        self.assertEqual(stats.percentile(list(range(20)), 0.5), 9)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(19)), 0.5)

    def test_failed_operations_sort_last(self):
        values = [1.0] * 985 + [None] * 15
        self.assertEqual(stats.percentile(values, 0.5), 1.0)
        self.assertTrue(math.isinf(stats.percentile(values, 0.99)))

    def test_empty_is_insufficient(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile([], 0.5)

    def test_windowed_percentile_is_median_of_block_tails(self):
        block = list(range(1, 1001))                 # p99 = 990
        stalled = list(range(1, 991)) + [10_000] * 10  # p99 = 990 still
        spiked = list(range(1, 990)) + [10_000] * 11   # p99 = 10000
        value, blocks = stats.windowed_percentile(
            block + spiked + stalled, 0.99)
        self.assertEqual((value, blocks), (990, 3))
        value, blocks = stats.windowed_percentile(block + [5] * 999, 0.99)
        self.assertEqual(blocks, 1)  # 1999 samples: one block
        with self.assertRaises(stats.InsufficientSamples):
            stats.windowed_percentile(block[:999], 0.99)

    def test_highest_supported_quantile(self):
        self.assertEqual(stats.highest_supported_quantile(1000), 0.99)
        self.assertEqual(stats.highest_supported_quantile(600), 0.95)
        self.assertEqual(stats.highest_supported_quantile(20), 0.5)
        self.assertIsNone(stats.highest_supported_quantile(19))


class LadderTest(unittest.TestCase):
    def test_ladder_is_geometric(self):
        rungs = stats.ladder(100, 1.05, 4)
        self.assertEqual(len(rungs), 4)
        self.assertAlmostEqual(rungs[3], 100 * 1.05 ** 3)

    def test_find_peak_is_highest_passing_rung(self):
        rungs = stats.ladder(100, 1.05, 63)
        for capacity_index in (-1, 0, 1, 17, 31, 61, 62):
            cap = rungs[capacity_index] if capacity_index >= 0 else 0
            index, probes = stats.find_peak(rungs, lambda r, c=cap: r <= c)
            self.assertEqual(index, capacity_index)
            self.assertEqual(len(probes), stats.probes_needed(63))

    def test_step_verdict(self):
        good = [1.0] * 990 + [50.0] * 10
        self.assertTrue(stats.step_passes(good, 10))
        self.assertFalse(stats.step_passes([1.0] * 989 + [50.0] * 11, 10))
        self.assertFalse(stats.step_passes([1.0] * 990 + [None] * 11, 10))
        self.assertFalse(stats.step_passes([], 10))

    def test_growing_backlog_fails_a_step(self):
        climbing = [i * 0.004 for i in range(1000)]  # 0 -> 4 ms, under 10
        self.assertTrue(stats.backlog_grows(climbing, 10))
        self.assertFalse(stats.step_passes(climbing, 10))
        flat = [1.0, 2.0, 1.5] * 300
        self.assertFalse(stats.backlog_grows(flat, 10))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            ("request", 0, 100, 1, -1, 7),
            ("a", 10, 40, 2, 1, 7),
            ("b", 30, 60, 3, 1, 7),   # overlaps a: union 10..60
            ("c", 90, 120, 4, 1, 7),  # sticks out: only 90..100 counts
            ("leaf", 15, 20, 5, 2, 7),
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 50 - 10)
        self.assertEqual(selfs[2], 30 - 5)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[5], 5)

    def test_contained_child_counts_once(self):
        spans = [("p", 0, 10, 1, -1, 0), ("x", 2, 8, 2, 1, 0),
                 ("y", 3, 4, 3, 1, 0)]
        self.assertEqual(stats.self_times(spans)[1], 4)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        values = [9, 10, 10, 10, 11]
        q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)

    def test_drift_counts_both_directions(self):
        self.assertAlmostEqual(stats.drift(10.0, 12.0), 0.2)
        self.assertAlmostEqual(stats.drift(10.0, 8.0), 0.2)


if __name__ == "__main__":
    unittest.main()
