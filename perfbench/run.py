"""Benchmark for kingchain: build-and-verify throughput, certificate round trips, per-layer times.

Run from the repository root:

    python3 perfbench/run.py --workload stress-n200 --seed 1 --seconds 45 --trace 0

The workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/workloads.py. Each run starts a fresh child process for the
measurement, so its peak RSS belongs to that run alone, and with `--trace 0`
starts the child a few more times with `--setup-only` to time set-up
(interpreter start, imports and input generation). The program is imported
from `src/` of the directory the benchmark runs in; without it the run fails.

The last line of standard output is the result,
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`; the line
before it records the Python version, core count, commit and `src/` line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
RUN_LIMIT_S = 170


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _src_lines(root: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (root / "src").rglob("*.py"))


def _setup_seconds(command: list[str], root: Path) -> float:
    """Wall time of one set-up child, from start to exit.

    `Popen.wait` with a timeout polls in steps of up to 50 ms, which would
    round the time; this waits without one and lets a watchdog kill a
    child that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "kingchain" / "__init__.py").is_file():
        print(f"error: no kingchain sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    child = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        setup_s = []
        if not args.trace:
            setup_s = [_setup_seconds(child + ["--setup-only"], root) for _ in range(SETUP_REPEATS)]
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        proc = subprocess.run(
            child, cwd=root, check=True, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup_s:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != wanted:
        print(f"error: metrics {sorted(got.items())} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
        "src_lines": _src_lines(root),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
