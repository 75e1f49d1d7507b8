"""Write BENCH_<label>.json: the end-to-end benchmark, repeated, as medians and quartiles.

Run from the repository root:

    python3 tools/bench.py LABEL

For each of RUNS rounds it runs `perfbench/run.py --trace 0` once per workload
in BENCHMARK.json, for that file's `run_seconds`, with the seed alternating
between 1 and 2 from round to round. Every run must print `"correct": true`.
The file records, per workload and end-to-end metric, the median, the first
and third quartiles, the run count and every run's value, and also the
commit, whether `src/` differs from it, and the `src/` line count. Progress
goes to standard error, one line per run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
SEEDS = (1, 2)


def _run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    lines = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout
    meta, result = map(json.loads, lines.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run was not correct: {result}")
    return meta["meta"], {name: m["value"] for name, m in result["metrics"].items()}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values), "values": values}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    (label,) = argv
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    meta = {}
    for i in range(RUNS):
        seed = SEEDS[i % len(SEEDS)]
        for workload in workloads:
            meta, metrics = _run(workload, seed, spec["run_seconds"])
            for name, value in metrics.items():
                values[workload].setdefault(name, []).append(value)
            print(f"run {i + 1}/{RUNS} {workload} seed {seed}: {metrics}", file=sys.stderr)
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"]).returncode != 0
    bench = {
        "label": label,
        "commit": meta["commit"],
        "src_differs_from_commit": dirty,
        "src_lines": meta["src_lines"],
        "python": meta["python"],
        "nproc": meta["nproc"],
        "run_seconds": spec["run_seconds"],
        "workloads": {
            workload: {name: _summary(v) for name, v in sorted(metrics.items())}
            for workload, metrics in values.items()
        },
    }
    Path(f"BENCH_{label}.json").write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
