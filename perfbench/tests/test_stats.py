"""Selftest of the benchmark's statistics on synthetic two-block data.

Run from the repository root:  python3 -m unittest discover perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import stats  # noqa: E402


class GmeanOfMedians(unittest.TestCase):
    def test_two_blocks(self):
        fast = [1.0, 0.9, 1.1, 5.0, 1.0]   # median 1.0 despite the outlier
        slow = [4.0, 4.2, 3.8, 4.0, 40.0]  # median 4.0
        self.assertAlmostEqual(stats.gmean_of_medians([fast, slow]), 2.0)

    def test_order_of_blocks_does_not_matter(self):
        a, b = [2.0, 2.0, 2.0], [8.0, 8.0, 8.0]
        self.assertAlmostEqual(stats.gmean_of_medians([a, b]),
                               stats.gmean_of_medians([b, a]))
        self.assertAlmostEqual(stats.gmean_of_medians([a, b]), 4.0)


class NearestRank(unittest.TestCase):
    def test_ranks(self):
        values = [float(v) for v in range(20, 0, -1)]  # 20..1, unsorted
        self.assertEqual(stats.nearest_rank(values, 0.95), (19.0, 19, 20))
        self.assertEqual(stats.nearest_rank(values, 0.50), (10.0, 10, 20))
        self.assertEqual(stats.nearest_rank(values, 1.00), (20.0, 20, 20))
        self.assertEqual(stats.nearest_rank(values, 0.0), (1.0, 1, 20))

    def test_rank_is_ceiling(self):
        values = [float(v) for v in range(1, 41)]
        # 0.95 * 40 = 38 exactly: no rounding up past an integer rank.
        self.assertEqual(stats.nearest_rank(values, 0.95)[1], 38)
        self.assertEqual(stats.nearest_rank(values[:30], 0.95)[1], 29)


class BlockGuard(unittest.TestCase):
    names = ["fast", "slow"]

    def test_rank_on_the_edge_between_distinct_blocks_fails(self):
        # Two equal blocks: p50 lands on the last sample of the fast block,
        # next to a block whose median is twice as large.
        fast, slow = [1.0] * 10, [2.0] * 10
        g = stats.block_guard([fast, slow], self.names, 0.50, 0.10)
        self.assertEqual(g["problem"], "fast")
        self.assertEqual(g["edge_distance"], 1)
        self.assertEqual(g["neighbor"], "slow")
        self.assertAlmostEqual(g["neighbor_gap"], 1.0)
        self.assertFalse(g["ok"])

    def test_rank_inside_a_block_passes(self):
        fast, slow = [1.0] * 10, [2.0] * 10
        g = stats.block_guard([fast, slow], self.names, 0.25, 0.10)
        self.assertEqual(g["problem"], "fast")
        self.assertEqual(g["edge_distance"], 5)
        self.assertTrue(g["ok"])

    def test_edge_between_close_blocks_passes(self):
        near, also_near = [1.0] * 10, [1.05] * 10
        g = stats.block_guard([near, also_near], self.names, 0.50, 0.10)
        self.assertEqual(g["edge_distance"], 1)
        self.assertAlmostEqual(g["neighbor_gap"], 0.05)
        self.assertTrue(g["ok"])

    def test_blocks_are_laid_out_by_median(self):
        # The slow block is listed first; the rank still lands in "fast".
        slow, fast = [2.0] * 10, [1.0] * 10
        g = stats.block_guard([slow, fast], ["slow", "fast"], 0.30, 0.10)
        self.assertEqual(g["problem"], "fast")

    def test_pooled_percentile_needs_ten_samples_beyond(self):
        fast, slow = [1.0] * 10, [2.0] * 10
        value, g = stats.pooled_percentile([fast, slow], self.names, 0.95,
                                           0.10)
        self.assertEqual(value, 2.0)
        self.assertEqual(g["beyond"], 1)
        self.assertFalse(g["ok"])
        value, g = stats.pooled_percentile([fast * 10, slow * 10],
                                           self.names, 0.75, 0.10)
        self.assertEqual(value, 2.0)
        self.assertEqual(g["beyond"], 50)
        self.assertTrue(g["ok"])
        self.assertTrue(math.isclose(g["value"], 2.0))


if __name__ == "__main__":
    unittest.main()
