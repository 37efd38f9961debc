#!/usr/bin/env python3
"""Tests of the benchmark itself: a single flipped output byte must be
counted as a failure.

    python3 perfbench/test_run.py            # all tests (about 2 minutes)
    python3 perfbench/test_run.py CheckTest  # the checker alone, instant

The end-to-end tests run perfbench/run.py at seed 42, whose digests are
committed, with the driver's --flip option corrupting one byte of one
output in every unit, and expect "correct": false, a failed count of one
per unit, and exit status 1.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def fake_unit(workload, run_id, digests):
    return {"run_id": run_id,
            "outputs": [{"name": n, "digest": digests[n], "ok": None}
                        for n in run.EXPECTED_OUTPUTS[workload]]}


class CheckTest(unittest.TestCase):
    """run.check() on hand-made units: no driver needed."""

    def committed(self, workload):
        digests = run.committed_digests(workload, 42)
        self.assertEqual(set(digests), set(run.EXPECTED_OUTPUTS[workload]),
                         "seed 42 must have committed digests")
        return digests

    def test_clean_units_pass(self):
        digests = self.committed("repro")
        units = [fake_unit("repro", "u%d" % i, digests) for i in range(3)]
        attempted, failed, _ = run.check("repro", 42, units)
        self.assertEqual((attempted, failed), (45, 0))

    def test_flipped_digest_in_one_unit_fails_once(self):
        digests = self.committed("fleet")
        units = [fake_unit("fleet", "u%d" % i, digests) for i in range(3)]
        flipped = units[1]["outputs"][0]
        flipped["digest"] = ("0" if flipped["digest"][0] != "0" else "1") + \
            flipped["digest"][1:]
        attempted, failed, problems = run.check("fleet", 42, units)
        self.assertEqual((attempted, failed), (6, 1))
        self.assertIn("u1: shards", problems[0])

    def test_driver_verdict_counts(self):
        digests = self.committed("query")
        unit = fake_unit("query", "u0", digests)
        unit["outputs"][-1]["ok"] = False
        self.assertEqual(run.check("query", 42, [unit])[1], 1)

    def test_unrecorded_seed_compares_units(self):
        digests = {n: "%064x" % i for i, n in
                   enumerate(run.EXPECTED_OUTPUTS["repro"])}
        digests.update(run.committed_digests("repro", 10**9))
        units = [fake_unit("repro", "u%d" % i, digests) for i in range(2)]
        self.assertEqual(run.check("repro", 10**9, units)[1], 0)
        units[1]["outputs"][9]["digest"] = "f" * 64  # fig1 differs
        self.assertEqual(run.check("repro", 10**9, units)[1], 1)

    def test_missing_output_fails(self):
        digests = self.committed("repro")
        unit = fake_unit("repro", "u0", digests)
        del unit["outputs"][0]
        self.assertEqual(run.check("repro", 42, [unit])[1], 1)


class FlipTest(unittest.TestCase):
    """run.py end to end with one output byte flipped by the driver."""

    def run_flipped(self, workload, flip):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "42", "--seconds", "1", "--flip", str(flip)],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return proc.returncode, result

    def assert_one_failure_per_unit(self, workload, flip, per_unit):
        code, result = self.run_flipped(workload, flip)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        units = result["attempted"] // per_unit
        self.assertGreaterEqual(units, 1)
        self.assertEqual(result["failed"], units)

    def test_repro_table(self):
        self.assert_one_failure_per_unit("repro", 3, 15)  # Table 4

    def test_fleet_shards(self):
        self.assert_one_failure_per_unit("fleet", 0, 2)  # first shard

    def test_query_result(self):
        self.assert_one_failure_per_unit("query", 0, 15)  # a query result

    def test_query_fold(self):
        self.assert_one_failure_per_unit("query", 14, 15)  # the analysis pass


if __name__ == "__main__":
    unittest.main()
