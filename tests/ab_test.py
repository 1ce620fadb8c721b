"""Verdict and exit rules of scripts/ab.py, on hand-made pair values.

    python3 tests/ab_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts"))
import ab  # noqa: E402

# Ten base runs with median 100 and IQR 2 (quartiles 99 and 101).
BASE = [96.0, 98.0, 99.0, 99.0, 100.0, 100.0, 101.0, 101.0, 102.0, 104.0]


def run(attempted, failed):
    return {"attempted": attempted, "failed": failed, "correct": failed == 0, "metrics": {}}


class Verdicts(unittest.TestCase):
    def test_quartiles_of_base(self):
        self.assertEqual(ab.quartiles(BASE), (99.0, 100.0, 101.0))

    def test_worse_beyond_the_bound(self):
        change = [x * 1.3 for x in BASE]
        v, wins, pairs = ab.verdict(BASE, change, 0.25, lower_is_better=True)
        self.assertEqual((v, wins, pairs), ("worse", 0, 10))
        v, _, _ = ab.verdict(BASE, [x * 0.7 for x in BASE], 0.25, lower_is_better=False)
        self.assertEqual(v, "worse")

    def test_worse_within_the_bound_is_same(self):
        v, _, _ = ab.verdict(BASE, [x * 1.2 for x in BASE], 0.25, lower_is_better=True)
        self.assertEqual(v, "same")

    def test_unresolved_when_base_spread_exceeds_the_bound(self):
        # IQR/median 0.02 against a bound of 0.01.
        v, _, _ = ab.verdict(BASE, list(BASE), 0.01, lower_is_better=True)
        self.assertEqual(v, "unresolved")
        # Even a change far worse than the bound stays unresolved.
        v, _, _ = ab.verdict(BASE, [x * 2 for x in BASE], 0.01, lower_is_better=True)
        self.assertEqual(v, "unresolved")

    def test_not_unresolved_when_every_change_run_beats_every_base_run(self):
        change = [x - 10.0 for x in BASE]  # max 94 < min 96
        v, wins, _ = ab.verdict(BASE, change, 0.01, lower_is_better=True)
        self.assertEqual((v, wins), ("better", 10))
        v, _, _ = ab.verdict(BASE, [x + 10.0 for x in BASE], 0.01, lower_is_better=False)
        self.assertEqual(v, "better")

    def test_better_at_nine_of_ten_wins_beyond_the_base_iqr(self):
        change = [x - 3.0 for x in BASE]
        change[0] = BASE[0] + 1.0  # the one lost pair
        v, wins, _ = ab.verdict(BASE, change, 0.25, lower_is_better=True)
        self.assertEqual((v, wins), ("better", 9))

    def test_nine_wins_within_the_base_iqr_is_same(self):
        change = [x - 1.0 for x in BASE]
        change[0] = BASE[0] + 1.0
        v, wins, _ = ab.verdict(BASE, change, 0.25, lower_is_better=True)
        self.assertEqual((v, wins), ("same", 9))

    def test_same_at_eight_of_ten_wins(self):
        change = [x - 3.0 for x in BASE]
        change[0] = BASE[0] + 1.0
        change[9] = BASE[9] + 1.0
        v, wins, _ = ab.verdict(BASE, change, 0.25, lower_is_better=True)
        self.assertEqual((v, wins), ("same", 8))

    def test_ties_count_for_neither_side(self):
        v, wins, _ = ab.verdict(BASE, list(BASE), 0.25, lower_is_better=True)
        self.assertEqual((v, wins), ("same", 0))

    def test_missing_values_drop_their_pair(self):
        change = [x - 3.0 for x in BASE]
        change[0] = None
        v, wins, pairs = ab.verdict(BASE, change, 0.25, lower_is_better=True)
        self.assertEqual((v, wins, pairs), ("better", 9, 9))


class ExitStatus(unittest.TestCase):
    def test_zero_when_nothing_is_worse(self):
        runs = [run(1000, 0)] * 10
        self.assertEqual(ab.exit_status(["same", "better", "unresolved"], runs, runs), 0)

    def test_one_on_a_worse_row(self):
        runs = [run(1000, 0)] * 10
        self.assertEqual(ab.exit_status(["same", "worse"], runs, runs), 1)

    def test_one_on_a_higher_failed_share(self):
        base = [run(1000, 1)] * 10
        self.assertEqual(ab.exit_status(["same"], base, [run(1000, 2)] * 10), 1)
        self.assertEqual(ab.exit_status(["same"], base, [run(1000, 1)] * 10), 0)
        self.assertEqual(ab.exit_status(["same"], base, [run(2000, 2)] * 10), 0)

    def test_one_on_more_runs_without_a_result(self):
        base = [run(1000, 0)] * 10
        self.assertEqual(ab.exit_status(["same"], base, base[:9] + [None]), 1)


if __name__ == "__main__":
    unittest.main()
