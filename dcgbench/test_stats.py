"""Tests of the benchmark's arithmetic: `python3 dcgbench/test_stats.py`."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_summary_matches_statistics_quantiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        s = stats.summary(xs)
        self.assertEqual(s, {"n": 7, "median": med, "q1": q1, "q3": q3})
        self.assertEqual(s["median"], 4.0)

    def test_one_sample_is_its_own_median_and_quartiles(self):
        self.assertEqual(stats.summary([2.5]), {"n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5})

    def test_empty(self):
        self.assertEqual(stats.summary([])["n"], 0)


class HarrellDavis(unittest.TestCase):
    def test_incomplete_beta_closed_forms(self):
        for x in (0.0, 0.1, 0.5, 0.9, 1.0):
            self.assertAlmostEqual(stats.betainc(1, 1, x), x)
            self.assertAlmostEqual(stats.betainc(3, 1, x), x**3)
            self.assertAlmostEqual(stats.betainc(2, 2, x), 3 * x**2 - 2 * x**3)
        self.assertAlmostEqual(stats.betainc(240.5, 240.5, 0.5), 0.5)

    def test_weights_by_hand(self):
        # n = 3, p = 0.5: Beta(2, 2) weights, I_x(2,2) = 3x^2 - 2x^3, so
        # the last order statistic weighs 1 - I_{2/3}(2,2) = 7/27.
        self.assertAlmostEqual(stats.hd_quantile([0, 0, 1], 0.5), 7 / 27)
        self.assertAlmostEqual(stats.hd_quantile([4, 1], 0.5), 2.5)
        self.assertEqual(stats.hd_quantile([2.5], 0.9), 2.5)

    def test_symmetric_sample_median_is_its_centre(self):
        xs = [1.0, 2.0, 3.0, 10.0, 17.0, 18.0, 19.0]
        self.assertAlmostEqual(stats.hd_quantile(xs, 0.5), 10.0)

    def test_moves_continuously_across_clustered_values(self):
        # Round trips on 20 ms steps: moving one sample from the 60 ms
        # step to the 80 ms step moves the estimate a little, where the
        # sample median would jump by a whole step.
        base = [60.0] * 240 + [80.0] * 240
        shifted = [60.0] * 239 + [80.0] * 241
        self.assertEqual(statistics.median(shifted) - statistics.median(base), 10.0)
        self.assertLess(stats.hd_quantile(shifted, 0.5) - stats.hd_quantile(base, 0.5), 1.0)


class TailPercentile(unittest.TestCase):
    def test_p90_with_enough_tail(self):
        xs = list(range(1, 201))  # 200 samples: 20 beyond p90
        v, pct = stats.tail_percentile(xs, 90.0)
        self.assertEqual(pct, 90.0)
        self.assertAlmostEqual(v, stats.hd_quantile(xs, 0.9))
        self.assertAlmostEqual(v, 180.9, delta=0.5)

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        xs = list(range(1, 51))  # 50 samples: p90 would leave 5 beyond
        v, pct = stats.tail_percentile(xs, 90.0)
        self.assertAlmostEqual(pct, 80.0)
        self.assertAlmostEqual(v, stats.hd_quantile(xs, 0.8))

    def test_never_below_the_median(self):
        v, pct = stats.tail_percentile([1, 2, 3, 4, 5], 90.0)
        self.assertEqual((v, pct), (3.0, 50.0))

    def test_unordered_input(self):
        xs = [float(x) for x in range(100, 0, -1)]
        self.assertEqual(stats.tail_percentile(xs, 90.0), stats.tail_percentile(sorted(xs), 90.0))


class ErrorRate(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(stats.error_rate(200, 0), 0.0)
        self.assertEqual(stats.error_rate(200, 5), 0.025)
        self.assertEqual(stats.error_rate(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in [(0, 0), (5, 6), (5, -1)]:
            with self.assertRaises(ValueError):
                stats.error_rate(attempted, failed)


class SelfTime(unittest.TestCase):
    RECS = [
        {"k": "span", "id": 1, "parent": 0, "task": 1, "name": "core.drive", "t0": 0, "t1": 1000},
        {"k": "agg", "id": 2, "parent": 1, "task": 1, "name": "sim.step", "ns": 600, "n": 10},
        {"k": "agg", "id": 3, "parent": 2, "task": 1, "name": "workloads.gen", "ns": 100, "n": 40},
        {"k": "span", "id": 4, "parent": 1, "task": 1, "name": "sim.new", "t0": 10, "t1": 60},
        {"k": "count", "task": 1, "name": "core.drive.cycles", "v": 10},
        {"k": "span", "id": 5, "parent": 0, "task": 0, "name": "suite.pool", "t0": 0, "t1": 2000},
        {"k": "span", "id": 6, "parent": 5, "task": 1, "name": "suite.task", "t0": 0, "t1": 2000},
        {"k": "span", "id": 7, "parent": 5, "task": 2, "name": "suite.task", "t0": 0, "t1": 1000},
        {"k": "count", "task": 0, "name": "suite.workers", "v": 2},
    ]

    def test_self_time_subtracts_direct_children_only(self):
        L = stats.Layers(self.RECS)
        self.assertEqual(L.self_total("core.drive"), 1000 - 600 - 50)
        self.assertEqual(L.self_total("sim.step"), 600 - 100)
        self.assertEqual(L.self_total("workloads.gen"), 100)
        self.assertEqual(L.per_unit("core.drive", L.count("core.drive.cycles")), 35.0)
        self.assertEqual(L.per_unit("workloads.gen", L.agg_n("workloads.gen")), 2.5)
        self.assertEqual(L.median_self("sim.new", 1.0), 50.0)

    def test_no_work_reads_zero(self):
        L = stats.Layers(self.RECS)
        self.assertEqual(L.per_unit("trace.decode", 0), 0.0)
        self.assertEqual(L.median_self("server.frame", 1e3), 0.0)

    def test_busy_fraction(self):
        L = stats.Layers(self.RECS)
        self.assertEqual(L.busy_fraction(), (2000 + 1000) / (2000 * 2))


if __name__ == "__main__":
    unittest.main()
