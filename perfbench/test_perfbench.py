"""Self-tests of the benchmark, on tiny versions of its workloads.

Run from the repository root:

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "stress-n200": workloads.Workload("stress", 12, min_ops=2, cases=3, trips_per_op=2),
    "exhaustive-n6": workloads.Workload("exhaustive", 4, min_ops=1, cases=2, trips_per_op=2),
}


def units(metrics: list[dict] | dict) -> dict[str, str]:
    if isinstance(metrics, dict):
        return {name: m["unit"] for name, m in metrics.items()}
    return {m["name"]: m["unit"] for m in metrics}


def reverse_c4(path: Path) -> None:
    """Reverse C4 after its king, keeping its vertex set: criterion 6's edge corruption."""
    obj = json.loads(path.read_text())
    c4 = obj["cycles"][1]
    obj["cycles"][1] = c4[:1] + c4[:0:-1]
    path.write_text(json.dumps(obj))


class TinyRunTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        names = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(set(workloads.WORKLOADS), names)
        self.assertEqual(set(TINY), names)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        wanted = units(SPEC["end_to_end"])
        del wanted["setup_s"]  # timed by run.py across fresh processes
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                result = workloads.measure(workload, seed=3, seconds=0, traced=False)
                self.assertEqual(units(result["metrics"]), wanted)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_emits_every_per_layer_metric(self):
        wanted = units(SPEC["per_layer"])
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                result = workloads.measure(workload, seed=3, seconds=0, traced=True)
                self.assertEqual(units(result["metrics"]), wanted)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["metrics"]["oracle.pairs"]["value"], 0)

    def test_exhaustive_counts_match_the_readme(self):
        result = workloads.measure(TINY["exhaustive-n6"], seed=1, seconds=0, traced=True)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["oracle.tournaments"]["value"], 64)
        self.assertEqual(result["metrics"]["oracle.strong"]["value"], 24)
        self.assertEqual(result["metrics"]["oracle.pairs"]["value"], 72)

    def test_corrupted_certificate_is_a_failure_not_a_timing(self):
        workload = TINY["stress-n200"]
        result = workloads.measure(workload, seed=3, seconds=0, traced=False, tamper=reverse_c4)
        # Every verify step fails, and so does the closing dumps(loads(...)) check.
        self.assertEqual(result["failed"], workload.min_ops * workload.trips_per_op + 1)
        self.assertEqual(result["metrics"]["chain_s"]["value"], 0.0)
        self.assertEqual(result["metrics"]["verify_s"]["value"], 0.0)

    def test_inputs_depend_only_on_the_seed(self):
        with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".perfbench-") as tmp:
            a, _ = workloads.prepare(TINY["stress-n200"], 5, Path(tmp))
            b, _ = workloads.prepare(TINY["stress-n200"], 5, Path(tmp))
        self.assertEqual([c.rows for c in a], [c.rows for c in b])

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".perfbench-") as tmp:
            shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(workloads.ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "stress-n200",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
