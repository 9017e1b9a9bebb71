#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and checks that the simulator
workload is deterministic: two runs at one seed print identical counts and
virtual latencies, traced and untraced, and a different seed gives
different inputs.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Host-time metrics: these legitimately differ between two runs.
HOST_TIMED = ("setup_s", "cpu_us_per_txn", "wire.", "host.", "trace.overhead",
              "trace.reconciled", "bench.cpu_raw_us_per_txn",
              "bench.calib_slice_us")


def sim_run(binary, seed, trace):
    """The run's result and its deterministic figures: metrics not timed on
    the host, plus the virtual-time summary line."""
    out = subprocess.run(
        [str(binary), "--workload", "sim-mix", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    figures = {k: v["value"] for k, v in result["metrics"].items()
               if not k.startswith(HOST_TIMED)}
    figures["virtual"] = [l for l in lines if l.startswith("# virtual time:")]
    return result, figures


class SimMixDeterminism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_same_seed_same_counts_and_latencies(self):
        for trace in (0, 1):
            a, ma = sim_run(self.binary, 7, trace)
            b, mb = sim_run(self.binary, 7, trace)
            self.assertTrue(a["correct"] and b["correct"])
            self.assertEqual(a["attempted"], b["attempted"])
            self.assertEqual(a["failed"], b["failed"])
            self.assertEqual(ma, mb)
            self.assertEqual(len(ma["virtual"]), 1)
            if trace:
                self.assertGreater(ma["net.frames_per_txn"], 0)

    def test_seed_changes_inputs(self):
        _, m7 = sim_run(self.binary, 7, 1)
        _, m8 = sim_run(self.binary, 8, 1)
        self.assertNotEqual(m7, m8)


if __name__ == "__main__":
    unittest.main()
