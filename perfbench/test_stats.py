"""Tests for the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_counts(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.percentile(values, 99), (990, 1000, 10))
        self.assertEqual(stats.percentile(values, 50), (500, 1000, 500))
        self.assertEqual(stats.percentile(values, 100), (1000, 1000, 0))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 50), (3.0, 5, 2))
        self.assertEqual(stats.percentile(values, 90), (5.0, 5, 0))

    def test_small_sample_has_few_beyond(self):
        # 100 samples leave a single one beyond p99: too few to trust.
        _, n, beyond = stats.percentile(list(range(100)), 99)
        self.assertEqual((n, beyond), (100, 1))

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)

    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)


class WindowP99Test(unittest.TestCase):
    def test_median_of_window_p99s(self):
        times, values = [], []
        # Three one-second windows of 1000 samples; window w holds
        # w*1000 + 1 .. w*1000 + 1000, so its p99 is w*1000 + 990.
        for w in range(3):
            for i in range(1000):
                times.append(w + i / 1000.0)
                values.append(w * 1000 + i + 1)
        self.assertEqual(stats.window_p99(times, values, 1.0), (1990, 3, 1000))

    def test_one_bad_window_does_not_move_the_median(self):
        times, values = [], []
        for w in range(5):
            for i in range(1000):
                times.append(w + i / 1000.0)
                values.append(1000.0 if (w == 2 and i >= 900) else 1.0)
        median_p99, windows, _ = stats.window_p99(times, values, 1.0)
        self.assertEqual((median_p99, windows), (1.0, 5))

    def test_short_windows_are_left_out(self):
        times = [0.1] * 1000 + [1.5] * 10
        values = [2.0] * 1000 + [99.0] * 10
        self.assertEqual(stats.window_p99(times, values, 1.0), (2.0, 1, 1000))
        with self.assertRaises(ValueError):
            stats.window_p99([0.0] * 10, [1.0] * 10, 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            ("setup", -1, 0.0, 10.0),
            ("load", 0, 1.0, 4.0),
            ("create", 0, 5.0, 9.0),
        ]
        self.assertEqual(stats.self_times(spans),
                         {"setup": 3.0, "load": 3.0, "create": 4.0})

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            ("round", -1, 0.0, 10.0),
            ("train", 0, 2.0, 8.0),
            ("rmse", 1, 3.0, 5.0),
        ]
        self.assertEqual(stats.self_times(spans),
                         {"round": 4.0, "train": 4.0, "rmse": 2.0})

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            ("parent", -1, 0.0, 10.0),
            ("a", 0, 1.0, 6.0),
            ("b", 0, 4.0, 12.0),  # overlaps a and runs past the parent
        ]
        self.assertEqual(stats.self_times(spans)["parent"], 1.0)

    def test_repeated_names_are_summed(self):
        spans = [("epoch", -1, 0.0, 1.5), ("epoch", -1, 2.0, 3.0)]
        self.assertEqual(stats.self_times(spans), {"epoch": 2.5})


class EventLoopResidualTest(unittest.TestCase):
    def test_residual(self):
        self.assertAlmostEqual(
            stats.event_loop_residual(0.84, 0.50, 0.06, 0.01), 0.27)


if __name__ == "__main__":
    unittest.main()
