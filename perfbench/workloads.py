"""Workloads of the kingchain benchmark; one measured run per process.

`run.py` starts this file once per measured run, so `ru_maxrss` is the
high-water mark of that run alone, and a few more times with `--setup-only`
to time set-up. The last line of standard output is one JSON object with
`attempted`, `failed` and `metrics`.

Workloads (closed loop, one client, no worker pool):

  stress-n200    oracle.random_stress(200, 1, s) per trial: every king of one
                 random strong tournament is built and verified. Construction
                 and verification at medium order dominate.
  exhaustive-n6  oracle.exhaustive_check(6, jobs=1): 32,768 tournaments and
                 89,280 tiny pairs, so per-call overhead dominates.

Between operations each workload also runs `kingchain chain --king auto
--certificate` and then `kingchain verify`, in-process, on tournaments of its
own order; those round trips give `chain_s` and `verify_s`, where text
parsing, unpacking and certificate JSON dominate. Interleaving them with the
operations spreads both over the same stretch of the run. Inputs come only
from `--seed`: the round-trip tournaments are drawn here, one fair coin per
pair, so a change to `core.random_strong_tournament` cannot change them.

End-to-end times are medians over the run: `pairs_per_s` over operations,
`chain_s` and `verify_s` over round trips.

With `--trace 1` each operation is run untraced and then replayed through
the public functions of core, analysis, hamilton, chain and oracle, timing
every call; the round trips time the cli layer. The replay checks that it
rebuilds exactly `build_chain`'s chain, and end-to-end metrics never come
from it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kingchain import analysis, chain, cli, core, hamilton, oracle  # noqa: E402

if not Path(core.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"kingchain was imported from {core.__file__}, not from {ROOT / 'src'}")

# (tournaments, strong, pairs) per order, from the README table.
EXHAUSTIVE_COUNTS = {
    3: (8, 2, 6),
    4: (64, 24, 72),
    5: (1024, 544, 1880),
    6: (32768, 22320, 89280),
}

TIMED_LAYERS = (
    "core.unpack",
    "core.parse_text",
    "core.from_edge_list",
    "analysis.kings",
    "analysis.is_strong",
    "analysis.king_context",
    "analysis.condensation",
    "hamilton.hamiltonian_path",
    "hamilton.path_ending_at",
    "chain.find_exit_edge",
    "chain.spine_path",
    "chain.build_ladder",
    "chain.extend",
    "chain.build_chain",
    "chain.dumps_certificate",
    "chain.loads_certificate",
    "oracle.verify_chain",
    "oracle.brute_kings",
    "cli.chain",
    "cli.verify",
)

COUNTERS = (
    "analysis.blocks",
    "analysis.last_block_size",
    "chain.spine_len",
    "chain.extensions",
    "chain.certificate_bytes",
    "oracle.tournaments",
    "oracle.strong",
    "oracle.pairs",
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "stress" or "exhaustive"
    order: int
    min_ops: int  # untraced operations per run, even past the deadline
    cases: int  # distinct round-trip tournaments, used in turn
    trips_per_op: int  # round trips after each operation


WORKLOADS = {
    "stress-n200": Workload("stress", 200, min_ops=3, cases=9, trips_per_op=3),
    "exhaustive-n6": Workload("exhaustive", 6, min_ops=2, cases=101, trips_per_op=50),
}


# --- inputs -----------------------------------------------------------------


def _reach(rows: list[int], start: int) -> int:
    seen = frontier = 1 << start
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown |= rows[low.bit_length() - 1]
        frontier = grown & ~seen
        seen |= frontier
    return seen


def _is_strong(rows: list[int]) -> bool:
    n = len(rows)
    full = (1 << n) - 1
    in_rows = [full & ~row & ~(1 << v) for v, row in enumerate(rows)]
    return _reach(rows, 0) == full and _reach(in_rows, 0) == full


def random_strong_rows(n: int, rng: random.Random) -> list[int]:
    """Out-neighbour masks of a strong tournament: one fair coin per pair, redrawn until strong."""
    while True:
        rows = [0] * n
        for u in range(n - 1):
            for v in range(u + 1, n):
                if rng.getrandbits(1):
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
        if _is_strong(rows):
            return rows


def tournament_text(rows: list[int]) -> str:
    """The README text format: n, then one "u v" line per edge ascending by (u, v)."""
    n = len(rows)
    lines = [str(n)]
    for u, row in enumerate(rows):
        lines.extend(f"{u} {v}" for v in range(n) if row >> v & 1)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Case:
    """One round-trip input: the tournament's text file and its out-neighbour masks."""

    rows: list[int]
    text_path: Path
    cert_path: Path


def prepare(workload: Workload, seed: int, workdir: Path) -> tuple[list[Case], random.Random]:
    """Draw and write the round-trip inputs; the returned generator then draws trial seeds."""
    rng = random.Random(seed)
    cases = []
    for i in range(workload.cases):
        rows = random_strong_rows(workload.order, rng)
        text_path = workdir / f"t{i}.txt"
        text_path.write_text(tournament_text(rows), encoding="utf-8")
        cases.append(Case(rows, text_path, workdir / f"c{i}.json"))
    return cases, rng


# --- accounting -------------------------------------------------------------


@dataclass
class Run:
    traced: bool
    attempted: int = 0
    failed: int = 0
    pairs_per_s: list[float] = field(default_factory=list)
    chain_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    spans: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)
    untraced_s: float = 0.0
    replay_s: float = 0.0

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failure is reported and never dropped."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, layer: str, fn: Callable, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.spans[layer].append(time.perf_counter() - start)
        return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


# --- the round trip ---------------------------------------------------------


class _Discard(io.TextIOBase):
    """Standard output sink for the CLI calls; the benchmark writes nothing outside its checkout."""

    def write(self, text: str) -> int:
        return len(text)


def _certificate_matches(case: Case) -> bool:
    try:
        obj = json.loads(case.cert_path.read_text(encoding="utf-8"))
        rows = [0] * obj["n"]
        for u, v in obj["tournament"]:
            rows[u] |= 1 << v
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return False
    return rows == case.rows


def round_trip(run: Run, case: Case, tamper: Callable[[Path], None] | None = None) -> None:
    """`kingchain chain` then `kingchain verify`; times both unless a check fails."""
    args = ["chain", "--input", str(case.text_path), "--king", "auto", "--certificate", str(case.cert_path)]
    sink = _Discard()
    gc.collect()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        built = cli.main(args)
        chain_s = time.perf_counter() - start
    if tamper is not None:
        tamper(case.cert_path)
    gc.collect()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        verified = cli.main(["verify", "--certificate", str(case.cert_path)])
        verify_s = time.perf_counter() - start
    ok = run.check(built == 0, f"chain exit {built} on {case.text_path.name}")
    ok = run.check(verified == 0, f"verify exit {verified} on {case.text_path.name}") and ok
    ok = run.check(_certificate_matches(case), f"certificate tournament differs from {case.text_path.name}") and ok
    if ok:
        run.chain_s.append(chain_s)
        run.verify_s.append(verify_s)


def check_certificate_round_trip(run: Run, case: Case) -> None:
    text = case.cert_path.read_text(encoding="utf-8")
    t, built = chain.loads_certificate(text)
    run.check(chain.dumps_certificate(t, built) == text, "loads/dumps certificate round trip")


# --- the traced replay ------------------------------------------------------


def _brute_kings(t: core.Tournament) -> tuple[int, ...]:
    everyone = range(t.n)
    return tuple(v for v in everyone if oracle.brute_is_king_of_induced(t, v, everyone))


def _is_hamiltonian_path(t: core.Tournament, path: tuple[int, ...]) -> bool:
    return sorted(path) == list(range(t.n)) and all(
        t.out_masks[a] >> b & 1 for a, b in zip(path, path[1:])
    )


def _extend(t: core.Tournament, ctx, cycles: list, inserts: list) -> None:
    current = cycles[-1]
    while len(current) < t.n:
        current, record = chain.extend_cycle(t, ctx, current)
        cycles.append(current)
        inserts.append(record)


def replay_pair(run: Run, t: core.Tournament, k: int) -> chain.CycleChain:
    """Rebuild the chain for king k stage by stage, then check it against build_chain."""
    ctx = run.call("analysis.king_context", analysis.king_context, t, k)
    blocks = run.call("analysis.condensation", analysis.condensation, t, ctx.out_set)
    exit_edge = run.call("chain.find_exit_edge", chain.find_exit_edge, t, ctx, blocks)
    spine = run.call("chain.spine_path", chain.spine_path, t, ctx, blocks, exit_edge)
    front = [v for block in blocks[:-1] for v in block]
    lead = run.call("hamilton.hamiltonian_path", hamilton.hamiltonian_path, t, front) if front else ()
    rear = run.call("hamilton.path_ending_at", hamilton.path_ending_at, t, blocks[-1], exit_edge.tail)
    cycles, inserts = run.call("chain.build_ladder", chain.build_ladder, ctx, spine, exit_edge)
    ladder = len(cycles)
    run.call("chain.extend", _extend, t, ctx, cycles, inserts)
    replayed = chain.CycleChain(
        king=k,
        cycles=tuple(cycles),
        insertions=tuple(inserts),
        context=ctx,
        blocks=blocks,
        exit_edge=exit_edge,
        spine=spine,
    )
    built = run.call("chain.build_chain", chain.build_chain, t, k)
    report = run.call("oracle.verify_chain", oracle.verify_chain, t, built)
    run.counts["oracle.pairs"] += 1
    run.counts["analysis.blocks"] += len(blocks)
    run.counts["analysis.last_block_size"] += len(blocks[-1])
    run.counts["chain.spine_len"] += len(spine)
    run.counts["chain.extensions"] += len(cycles) - ladder
    run.check(lead + rear == spine, f"hamilton paths differ from spine_path, king {k}")
    run.check(replayed == built, f"replayed chain differs from build_chain, king {k}")
    run.check(report.passed, f"verify_chain failed, king {k}: {report.first_failure}")
    return built


def replay_instance(run: Run, text: str) -> None:
    """Trace one tournament from its text through every layer, for every king."""
    started = time.perf_counter()
    values = [int(token) for token in text.split()]
    n, edges = values[0], list(zip(values[1::2], values[2::2]))
    t = run.call("core.parse_text", core.parse_text, text)
    run.check(run.call("core.from_edge_list", core.from_edge_list, n, edges) == t, "from_edge_list")
    run.check(run.call("core.unpack", core.Tournament, n, t.bits) == t, "Tournament unpack")
    run.counts["oracle.tournaments"] += 1
    if run.call("analysis.is_strong", analysis.is_strong, t):
        run.counts["oracle.strong"] += 1
        fast = run.call("analysis.kings", analysis.kings, t)
        brute = run.call("oracle.brute_kings", _brute_kings, t)
        run.check(fast == brute, "kings differ from the oracle's")
        # The out-set of a king of a large random tournament is one strong block,
        # so spine_path never asks for a plain path there; this call measures
        # the layer at the workload's order on every workload.
        path = run.call("hamilton.hamiltonian_path", hamilton.hamiltonian_path, t, range(n))
        run.check(_is_hamiltonian_path(t, path), "hamiltonian_path")
        built = [replay_pair(run, t, k) for k in brute]
        certificate = run.call("chain.dumps_certificate", chain.dumps_certificate, t, built[0])
        run.counts["chain.certificate_bytes"] += len(certificate.encode())
        loaded = run.call("chain.loads_certificate", chain.loads_certificate, certificate)
        run.check(loaded == (t, built[0]), "loads_certificate(dumps_certificate(...))")
    run.replay_s += time.perf_counter() - started


# --- operations -------------------------------------------------------------


def _king_count(t: core.Tournament) -> int:
    masks = t.out_masks
    full = (1 << t.n) - 1
    count = 0
    for v, row in enumerate(masks):
        cover = row | 1 << v
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            cover |= masks[low.bit_length() - 1]
        count += cover == full
    return count


def stress_op(run: Run, n: int, seed: int) -> None:
    gc.collect()
    start = time.perf_counter()
    summary = oracle.random_stress(n, 1, seed)
    wall = time.perf_counter() - start
    run.untraced_s += wall
    run.attempted += summary.pairs
    run.failed += summary.failures
    instance = core.random_strong_tournament(n, seed)
    counted = run.check(summary.pairs == _king_count(instance), f"stress pairs for seed {seed}")
    if summary.failures == 0 and counted:
        run.pairs_per_s.append(summary.pairs / wall)
    if run.traced:
        replay_instance(run, core.export(instance, "text"))


def exhaustive_op(run: Run, n: int) -> None:
    gc.collect()
    start = time.perf_counter()
    summary = oracle.exhaustive_check(n, jobs=1)
    wall = time.perf_counter() - start
    run.untraced_s += wall
    run.attempted += summary.pairs
    run.failed += summary.failures
    counts = (summary.tournaments, summary.strong_tournaments, summary.pairs)
    counted = run.check(counts == EXHAUSTIVE_COUNTS[n], f"exhaustive n={n} counts {counts}")
    if summary.failures == 0 and counted:
        run.pairs_per_s.append(summary.pairs / wall)
    if run.traced:
        before = run.counts.copy()
        for bits in range(1 << core.pair_count(n)):
            replay_instance(run, core.export(core.Tournament(n, bits), "text"))
        replayed = tuple(run.counts[key] - before[key] for key in ("oracle.tournaments", "oracle.strong", "oracle.pairs"))
        run.check(replayed == EXHAUSTIVE_COUNTS[n], f"replayed exhaustive n={n} counts {replayed}")


# --- one run ----------------------------------------------------------------


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    tamper: Callable[[Path], None] | None = None,
) -> dict:
    """Run one workload for `seconds` (at least `min_ops` operations) and summarise it.

    `tamper`, applied to each certificate between the chain and verify steps,
    lets the self-tests corrupt certificates.
    """
    run = Run(traced)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cases, rng = prepare(workload, seed, Path(tmp))
        turns = itertools.cycle(cases)
        min_ops = 1 if traced else workload.min_ops
        deadline = time.perf_counter() + seconds
        ops = 0
        while ops < min_ops or time.perf_counter() < deadline:
            if workload.kind == "stress":
                stress_op(run, workload.order, rng.randrange(1 << 31))
            else:
                exhaustive_op(run, workload.order)
            ops += 1
            for _ in range(workload.trips_per_op):
                case = next(turns)
                round_trip(run, case, tamper)
        check_certificate_round_trip(run, case)
    if traced:
        metrics = layer_metrics(run)
    else:
        metrics = {
            "pairs_per_s": {"value": _median(run.pairs_per_s), "unit": "1/s"},
            "chain_s": {"value": _median(run.chain_s), "unit": "s"},
            "verify_s": {"value": _median(run.verify_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    return {"attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def layer_metrics(run: Run) -> dict:
    spans = dict(run.spans, **{"cli.chain": run.chain_s, "cli.verify": run.verify_s})
    metrics = {}
    for layer in TIMED_LAYERS:
        samples = spans.get(layer)
        if not samples:
            raise RuntimeError(f"traced run recorded no {layer} call")
        metrics[f"{layer}_ms"] = {"value": 1000 * statistics.median(samples), "unit": "ms"}
        metrics[f"{layer}_ms.p90"] = {"value": 1000 * _p90(samples), "unit": "ms"}
        metrics[f"{layer}_ms.n"] = {"value": len(samples), "unit": "count"}
    for name in COUNTERS:
        metrics[name] = {"value": run.counts[name], "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": run.replay_s / run.untraced_s, "unit": "ratio"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help="prepare the inputs and exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            prepare(workload, args.seed, Path(tmp))
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
