#!/usr/bin/env python3
"""Tests for the arithmetic of compare.py.

  python3 perfbench/test_compare.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from compare import change_wins, relative_move, summarize, verdict  # noqa: E402


class Summaries(unittest.TestCase):
    def test_quartiles_and_spread(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual(s["median"], 5.5)
        # statistics.quantiles' default ("exclusive") method.
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["spread"], 5.5 / 5.5)

    def test_single_value_has_no_spread(self):
        s = summarize([4.0])
        self.assertEqual((s["q1"], s["median"], s["q3"], s["spread"]), (4.0, 4.0, 4.0, 0.0))


class Pairs(unittest.TestCase):
    def test_wins_respect_direction_and_ignore_ties(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        change = [9.0, 10.0, 11.0, 8.0]
        self.assertEqual(change_wins(parent, change, "lower"), 0.5)
        self.assertEqual(change_wins(parent, change, "higher"), 0.25)

    def test_relative_move_is_positive_when_worse(self):
        self.assertAlmostEqual(relative_move(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(relative_move(100.0, 110.0, "higher"), -0.10)
        self.assertEqual(relative_move(0.0, 5.0, "lower"), 0.0)


class Verdicts(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]

    def test_gain_needs_nine_tenths_of_pairs_and_a_move_past_the_spread(self):
        change = [v - 10.0 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "gain")
        # Lower-is-better metric moving up by 20%: worse than the bound.
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "regression")

    def test_gain_is_not_met_when_more_operations_fail(self):
        change = [v - 10.0 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1, 0, 1), "not met")
        self.assertEqual(verdict(self.parent, change, "lower", 0.1, 2, 2), "gain")
        # A regression stays a regression whatever failed.
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1, 0, 1), "regression")

    def test_move_inside_the_parents_spread_is_unresolved(self):
        change = [v + 0.1 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "unresolved")

    def test_small_clear_move_within_bound(self):
        change = [v + 5.0 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "within bound")

    def test_noisy_parent_is_unresolved_unless_every_run_is_better(self):
        noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0]
        change = [v + 45.0 for v in noisy]
        self.assertEqual(verdict(noisy, change, "higher", 0.1), "unresolved")
        change = [200.0] * 10
        self.assertEqual(verdict(noisy, change, "higher", 0.1), "gain")


if __name__ == "__main__":
    unittest.main()
