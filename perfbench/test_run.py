"""Tests of run.py's output checks: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import unittest

from run import count_failed


def report(*digests, ok=True):
    return {"cells": [{"id": f"w/c{i}", "digest": d, "ok": ok} for i, d in enumerate(digests)]}


class CountFailed(unittest.TestCase):
    def test_agreeing_runs_pass(self):
        self.assertEqual(count_failed([report("a", "b"), report("a", "b")], None), (4, 0))

    def test_perturbed_digest_is_a_failed_cell(self):
        self.assertEqual(count_failed([report("a", "b"), report("a", "x")], None), (4, 1))

    def test_golden_mismatch_fails_every_run_of_the_cell(self):
        golden = {"w/c0": "a", "w/c1": "golden"}
        self.assertEqual(count_failed([report("a", "b"), report("a", "b")], golden), (4, 2))

    def test_golden_match_passes(self):
        self.assertEqual(count_failed([report("a", "b")], {"w/c0": "a", "w/c1": "b"}), (2, 0))

    def test_cell_reporting_not_ok_fails(self):
        self.assertEqual(count_failed([report("a", ok=False)], None), (1, 1))

    def test_failed_process_counts_as_a_failed_attempt(self):
        self.assertEqual(count_failed([report("a"), None], None), (2, 1))


if __name__ == "__main__":
    unittest.main()
