"""Self-tests of the benchmark.  Run from the root of the source tree:

    python3 perfbench/selftest.py

They take about a minute: the trace test runs one round of every workload
twice.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def _first(ops, kind, faulty=False):
    return next(op for op in ops if op.kind == kind and (op.fault is not None) == faulty)


class CheckerRejects(unittest.TestCase):
    """The output checks accept the program's output and reject the same
    output perturbed in its ninth digit or replaced by NaN."""

    @classmethod
    def setUpClass(cls):
        warnings.simplefilter("ignore")
        cls.point = workloads.build("pointwise", 7, ROOT)
        cls.kernel = workloads.build("kernel_identities", 7, ROOT)

    def test_series_value(self):
        op = _first(self.point, "ml_eval")
        out = op.call()
        self.assertIsNone(op.check(out))
        for bad in (out.value * (1 + 1e-9), math.nan):
            self.assertIsNotNone(op.check(dataclasses.replace(out, value=bad)))

    def test_complex_overlap(self):
        op = _first(self.point, "overlap")
        out = op.call()
        self.assertIsNone(op.check(out))
        self.assertIsNotNone(op.check(out * (1 + 1e-9)))
        self.assertIsNotNone(op.check(complex(math.nan, 0.0)))

    def test_photon_probabilities(self):
        op = _first(self.point, "photon_distribution")
        out = op.call()
        self.assertIsNone(op.check(out))
        probs = np.array(out.probs)
        i = int(np.argmax(probs))
        for bad in (probs[i] * (1 + 1e-9), math.nan):
            changed = probs.copy()
            changed[i] = bad
            self.assertIsNotNone(op.check(dataclasses.replace(out, probs=changed)))

    def test_kernel_value(self):
        op = _first(self.kernel, "meijer_g_weight")
        out = op.call()
        self.assertIsNone(op.check(out))
        self.assertIsNotNone(op.check(out * (1 + 1e-9)))
        self.assertIsNotNone(op.check(math.nan))

    def test_known_fault_is_rejected(self):
        op = _first(self.kernel, "meijer_g_weight", faulty=True)
        self.assertIsNotNone(op.check(op.call()))


def _scratch():
    """A temporary directory under perfbench/out/, which git ignores."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


def _worker(name, seed, trace, out_dir):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--root", ROOT, "--out", out_dir],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TraceIsTransparent(unittest.TestCase):
    """One round traced returns outputs bit-identical to one round untraced."""

    def test_digests_match(self):
        with _scratch() as tmp:
            for name in workloads.NAMES:
                with self.subTest(workload=name):
                    plain = _worker(name, 11, 0, tmp)
                    traced = _worker(name, 11, 1, tmp)
                    self.assertEqual(plain["digest"], traced["digest"])
                    self.assertTrue(plain["correct"] and traced["correct"])
                    self.assertGreater(sum(traced["layers"].values()), 0.0)


class RefusesWithoutProgram(unittest.TestCase):
    """In a tree holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero and prints no result."""

    def test_exit_code(self):
        with _scratch() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pointwise",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  capture_output=True, text=True, cwd=tmp, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
