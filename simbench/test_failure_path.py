#!/usr/bin/env python3
"""Failure-path tests: a failed simulation is counted, never fatal.

Runs the benchmark binary named by $SIMBENCH_EXE (ctest sets it) on
  * a real model defect: TPC-C on sparc64vBase(16) with the preset seed
    at 120 k records per CPU panics with "inclusion broken";
  * an injected fault: every core stops committing at cycle 20000, so
    the watchdog panics.
Each must come back as a result with the failures counted, exit code 0.
"""

import json
import os
import subprocess
import unittest

EXE = os.environ.get("SIMBENCH_EXE", "")


def bench(*args):
    p = subprocess.run([EXE, "--seconds", "1", "--trace", "0", *args],
                       capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError("exit %d: %s" % (p.returncode, p.stderr[-2000:]))
    return p.stdout, json.loads(p.stdout.strip().splitlines()[-1])


@unittest.skipUnless(EXE, "set SIMBENCH_EXE to the simbench binary")
class FailurePath(unittest.TestCase):
    def test_real_defect_is_counted(self):
        out, r = bench("--workload", "tpcc_smp16_repro", "--seed", "0")
        self.assertIn("inclusion broken", out)
        self.assertFalse(r["correct"])
        # The shortened reference check passes; every timed run fails.
        self.assertGreaterEqual(r["failed"], 1)
        self.assertEqual(r["failed"], r["attempted"] - 1)
        self.assertLess(r["metrics"]["ok_rate"]["value"], 1.0)

    def test_injected_stall_is_counted(self):
        out, r = bench("--workload", "specint_up", "--seed", "1",
                       "--inject-fault=stall:20000")
        self.assertIn("watchdog", out)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertEqual(r["failed"], r["attempted"])
        self.assertEqual(r["metrics"]["ok_rate"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
