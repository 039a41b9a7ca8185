"""Self-test of the benchmark: oracles, output contract, bare checkout.

    python3 perfbench/selftest.py            # about three minutes on 2 cores
    python3 perfbench/selftest.py OracleTest # the oracles alone, instant

Tiny runs (``--seconds 1``) of every workload, untraced and traced, must
each print a last line that parses into every declared metric with its
declared unit, plus ``attempted`` and ``failed`` counts.  The naive DTW
and LCSS recurrences are checked on cases small enough to work out by
hand.  A copy holding only ``BENCHMARK.json`` and the benchmark's files
must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common
import oracles

DECLARED = json.loads((common.ROOT / "BENCHMARK.json").read_text())


class OracleTest(unittest.TestCase):
    def test_dtw_dependent_by_hand(self):
        # Costs (a_i - b_j)^2 for a = 0,1,2 and b = 0,2; the cheapest
        # path 0-0, 1-0, 2-2 accumulates 0 + 1 + 0.
        self.assertEqual(oracles.dtw_dependent([[0], [1], [2]], [[0], [2]]), 1.0)
        self.assertEqual(oracles.dtw_dependent([[0, 0]], [[3, 4]]), 5.0)
        self.assertEqual(oracles.dtw_dependent([[1, 2], [3, 4]], [[1, 2], [3, 4]]), 0.0)

    def test_dtw_independent_by_hand(self):
        # Dimension 0 aligns exactly; dimension 1 (0,3 vs 0,1) costs 4.
        self.assertEqual(
            oracles.dtw_independent([[0, 0], [1, 3]], [[0, 0], [1, 1]]), 2.0
        )

    def test_lcss_by_hand(self):
        self.assertEqual(oracles.lcss_dependent([[0], [1], [2], [3]], [[0], [2], [3]], 0.1), 0.0)
        self.assertEqual(oracles.lcss_dependent([[0], [1]], [[5], [6]], 0.1), 1.0)
        self.assertAlmostEqual(
            oracles.lcss_dependent([[0], [1], [2]], [[0.05], [5], [2.05]], 0.1), 1 / 3
        )
        # Dependent matching needs every dimension within epsilon.
        self.assertEqual(
            oracles.lcss_dependent([[0, 0], [1, 1]], [[0, 0.5], [1, 1]], 0.1), 0.5
        )

    def test_norms_by_hand(self):
        A = [[1, 2], [3, 4]]
        zero = [[0, 0], [0, 0]]
        self.assertAlmostEqual(oracles.l21(A, zero), math.sqrt(10) + math.sqrt(20))
        self.assertEqual(oracles.l11(A, zero), 10.0)

    def test_knn_and_matrix_properties(self):
        D = [[0, 1, 5], [1, 0, 2], [5, 2, 0]]
        self.assertEqual(oracles.knn_accuracy(D, ["a", "a", "b"]), 2 / 3)
        self.assertEqual(oracles.knn_bounds(D, ["a", "a", "b"]), (2, 2))
        tie = [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
        self.assertEqual(oracles.knn_bounds(tie, ["a", "a", "b"]), (1, 2))
        self.assertEqual(oracles.matrix_faults(D), [])
        self.assertIn("not symmetric", oracles.matrix_faults([[0, 1], [2, 0]]))
        self.assertIn("non-zero diagonal", oracles.matrix_faults([[1, 1], [1, 0]]))
        self.assertIn("negative entries", oracles.matrix_faults([[0, -1], [-1, 0]]))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class ContractTest(unittest.TestCase):
    def check_output(self, workload: str, trace: int) -> None:
        done = run_bench(common.ROOT, workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for entry in declared:
            got = result["metrics"][entry["name"]]
            self.assertEqual(got["unit"], entry["unit"], entry["name"])
            self.assertTrue(math.isfinite(got["value"]), entry["name"])
            if not trace:
                self.assertGreater(got["value"], 0, entry["name"])

    def test_workloads(self):
        for workload in (w["name"] for w in DECLARED["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_output(workload, trace)

    def test_bare_copy_fails_without_result(self):
        common.OUT_DIR.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=common.OUT_DIR))
        try:
            shutil.copy(common.ROOT / "BENCHMARK.json", bare)
            for path in DECLARED["paths"]:
                shutil.copytree(
                    common.ROOT / path, bare / path,
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            done = run_bench(bare, DECLARED["workloads"][0]["name"], 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
