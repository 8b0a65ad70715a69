#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_perfbench.py

Covers the span self-time arithmetic (the perfbench_selftest binary),
exact counts repeating bit for bit across two invocations, a non-zero
exit when an op fails, and a refused run when the library source is
missing. Builds through run.py, so it shares run.py's build directory.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

EXACT_END_TO_END = ["persistent_pct", "inter_bytes_per_miss"]
EXACT_PER_LAYER = [
    "fidelity.paper_gap_pp", "sim.events", "sim.windows", "net.messages", "net.msgs_per_miss",
    "net.intra_bytes_per_miss", "core.relays_per_miss", "core.escalations",
    "core.transient_yield", "directory.forwards_per_miss",
]


def bench(*args):
    """Run run.py from the repository root; (exit code, last JSON or None)."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, result


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = run.build_dir()
        os.makedirs(out, exist_ok=True)
        assert run.build(out), "build failed"
        cls.out = out

    def test_span_self_time_arithmetic(self):
        p = subprocess.run([os.path.join(self.out, "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)

    def test_exact_counts_repeat_across_invocations(self):
        for trace, names in (("0", EXACT_END_TO_END), ("1", EXACT_PER_LAYER)):
            runs = [bench("--workload", "sharded", "--seed", "3",
                          "--seconds", "1", "--trace", trace)
                    for _ in range(2)]
            for code, result in runs:
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
            a, b = (r["metrics"] for _, r in runs)
            for name in names:
                self.assertEqual(a[name]["value"], b[name]["value"], name)
                self.assertNotEqual(a[name]["value"], 0, name)

    def test_failed_op_exits_nonzero(self):
        code, result = bench("--workload", "sharded", "--seconds", "1",
                             "--trace", "0", "--horizon-ns", "1000")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], result["failed"])

    def test_refuses_without_library_source(self):
        with tempfile.TemporaryDirectory(dir=self.out) as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "b"))
            p = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", "figures", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=tmp, env=env, capture_output=True,
                               text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
