"""Independent verification of cycle-chain certificates.

The certificate checks here are written from the definitions and the
one-vertex splice induction, and never call the construction code or the
structural-query helpers. They share only data types with the construction:
the tournament container, the chain's records, and `chain.SplicedCycles`,
read as its C3 and records and spliced here, so a disagreement between
construction and verification is meaningful.

The two harnesses drive the full pipeline: `exhaustive_check` walks every
labeled tournament of a small order, `random_stress` checks the first
strong draws counting from a seed, at any order, so no trial repeats a draw.
Both report failure counts that are expected to be zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import operator
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .analysis import is_strong
from .chain import CycleChain, SplicedCycles, build_chain, dumps_certificate
from .core import (
    Tournament,
    enumerate_all,
    export,
    pair_count,
    strong_tournaments,
)
from .errors import (
    KingNotInSubsetError,
    MalformedCertificateError,
    OrderOutOfRangeError,
    TournamentError,
)

EXHAUSTIVE_MIN_ORDER = 3
EXHAUSTIVE_MAX_ORDER = 7


# A binary digit as an itertools.compress selector: the byte 0 is false. The
# oracle keeps its own table, so it shares no code with the king queries.
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _vertex_mask(verts: Iterable[int]) -> int:
    members = 0
    for w in verts:
        members |= 1 << w
    return members


def _two_step_reach(out_masks: tuple[int, ...], king: int, members: int) -> int:
    # Literal king definition: the mask of the king, its out-neighbors and
    # everything beaten by one of its out-neighbors among `members`, a vertex
    # mask. The king rules `members` iff that covers them. The union runs in
    # C: the binary digits of the out-neighbors in `members`, lowest first,
    # select their out-masks.
    km = out_masks[king]
    selectors = bin(members & km)[:1:-1].encode().translate(_SELECTORS)
    return functools.reduce(operator.or_, itertools.compress(out_masks, selectors), km | 1 << king)


def brute_is_king_of_induced(t: Tournament, king: int, subset: Iterable[int]) -> bool:
    """Check the king definition inside the induced subtournament: reach in at most two steps."""
    verts = sorted(set(subset))
    if king not in verts:
        raise KingNotInSubsetError(f"vertex {king} not in subset")
    members = _vertex_mask(verts)
    return not members & ~_two_step_reach(t.out_masks, king, members)


def _is_directed_cycle(out_masks: tuple[int, ...], cyc: Sequence[int]) -> bool:
    # Distinct vertices, length >= 3, every consecutive edge including the wrap.
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return False
    prev = cyc[-1]
    for v in cyc:
        if not out_masks[prev] >> v & 1:
            return False
        prev = v
    return True


def _brute_kings(t: Tournament) -> list[int]:
    out_masks = t.out_masks
    everyone = (1 << t.n) - 1
    return [v for v in range(t.n) if not everyone & ~_two_step_reach(out_masks, v, everyone)]


@dataclass(frozen=True)
class CycleCheck:
    """Result of the per-cycle checks for the cycle of expected length `length`."""

    length: int
    is_cycle: bool
    correct_length: bool
    contains_king: bool
    king_of_induced: bool

    @property
    def passed(self) -> bool:
        return (
            self.is_cycle
            and self.correct_length
            and self.contains_king
            and self.king_of_induced
        )


@dataclass(frozen=True)
class VerificationReport:
    """Per-cycle and per-insertion verdicts plus the aggregate outcome."""

    cycle_checks: tuple[CycleCheck, ...]
    insertion_checks: tuple[bool, ...]
    passed: bool
    first_failure: str | None


@functools.cache
def _passed_checks(n: int) -> tuple[CycleCheck, ...]:
    # Checks are immutable, so the passing checks of each order are shared:
    # building a frozen dataclass per cycle cost as much as the rest of a
    # chain's verification at n = 200. One tuple of n - 2 checks per order
    # verified.
    return tuple(CycleCheck(length, True, True, True, True) for length in range(3, n + 1))


def _cycle_fault(check: CycleCheck, king: int, size: int) -> str:
    want = check.length
    if not check.is_cycle:
        return f"C{want}: not a directed cycle of the tournament"
    if not check.correct_length:
        return f"C{want}: length {size}, expected {want}"
    if not check.contains_king:
        return f"C{want}: king {king} missing"
    return f"C{want}: {king} is not a king of the induced subtournament"


def _insertion_fault(
    out_masks: tuple[int, ...], prev: Sequence[int], rec: Sequence[int], members: int, grown: int
) -> str | None:
    # Literal checks of one record against the vertex masks of its two cycles.
    x, y, z = rec
    size = len(prev)
    if not any(prev[i] == x and prev[(i + 1) % size] == y for i in range(size)):
        return f"({x}, {y}) not consecutive"
    if not (out_masks[x] >> z & 1 and out_masks[z] >> y & 1):
        return f"edges via {z} missing"
    if members >> z & 1:
        return f"vertex {z} not fresh"
    if grown != members | 1 << z:
        return f"vertex sets do not differ by exactly {{{z}}}"
    return None


def _replays(
    out_masks: tuple[int, ...], king: int, c3: Sequence[int], records: Sequence[tuple]
) -> bool:
    # The paper's induction, on a successor array. C3 is a directed 3-cycle
    # through the king, which rules it (king -> a -> b). Each record then
    # splices a fresh z into the edge (x, y) of the cycle so far, where
    # x -> z -> y: a directed cycle one longer, holding the king, whose
    # vertex set grows by z. The king still rules it iff z is in the king's
    # two-step reach, which grows by z's out-set when the king beats z.
    n = len(out_masks)
    c3_ok = len(c3) == 3 and king in c3 and all(0 <= v < n for v in c3)
    if not (c3_ok and _is_directed_cycle(out_masks, c3)):
        return False
    # Off the cycle succ holds None, so succ[x] == y also says x is on it.
    succ: list[int | None] = [None] * n
    for u, v in zip(c3, c3[1:] + c3[:1]):
        succ[u] = v
    km = out_masks[king]
    members = _vertex_mask(c3)
    reached = _two_step_reach(out_masks, king, members)
    for x, y, z in records:
        if not (
            0 <= x < n
            and 0 <= z < n
            and succ[x] == y
            and out_masks[x] >> z & 1
            and out_masks[z] >> y & 1
            and not members >> z & 1
            and reached >> z & 1
        ):
            return False
        members |= 1 << z
        if km >> z & 1:
            reached |= out_masks[z]
        succ[x], succ[z] = z, y
    return True


def _tuples(cycles: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    # As tuples, so a list cycle compares like one; a view is spliced from C3 and records.
    if type(cycles) is not SplicedCycles:
        return tuple(map(tuple, cycles))
    out = [tuple(cycles.c3)]
    for j, (x, _, z) in enumerate(cycles.records, 3):
        if x not in out[-1]:
            raise MalformedCertificateError(f"C{j}->C{j + 1}: vertex {x} not on C{j}")
        i = out[-1].index(x) + 1
        out.append(out[-1][:i] + (z,) + out[-1][i:])
    return tuple(out)


def _unspliced(cycles: Sequence[tuple], records: Sequence[tuple]) -> int | None:
    # Index of the first link whose later cycle is not the one before with z
    # spliced in right after x, or None. Asked only once every x is on the
    # cycle before it.
    for j, (prev, cyc, (x, _, z)) in enumerate(zip(cycles, cycles[1:], records)):
        i = prev.index(x) + 1
        if cyc != prev[:i] + (z,) + prev[i:]:
            return j
    return None


def verify_chain(t: Tournament, chain: CycleChain) -> VerificationReport:
    """Recheck every certificate clause against the tournament.

    Per cycle: it is a directed cycle of t, has the right length, contains
    the king, and the king rules its induced subtournament. Per consecutive
    pair: the recorded edge (x, y) is consecutive in the earlier cycle, the
    edges x -> z and z -> y exist, z is fresh, and the later cycle's vertex
    set is exactly the earlier one's plus z; once all of those hold, each
    later cycle is the earlier one with z spliced in right after x.

    The paper's induction decides a pass, and the literal checks only
    explain a failure. A chain whose C3 is a directed 3-cycle through the
    king, and whose every record splices a fresh z from the king's two-step
    reach between x and y, where x -> z -> y, passes every clause once each
    later cycle is that splice of the earlier one. The records replay on the
    oracle's own successor array. Cycles that are a `SplicedCycles` over the
    chain's own `insertions`, as `build_chain` gives, are that splice by
    definition, so the replay alone decides and no cycle tuple is read;
    any other cycles must also equal the splice, tuple by tuple. Any other
    chain gets every clause checked literally, end to end and the splice
    last, so every verdict and message is the literal one. At n = 1000 a
    failing chain (C4 reversed) costs about 0.14 s, a passing loaded one
    6.7 ms and a passing built one 0.6 ms. A vertex outside the order raises
    `MalformedCertificateError` naming the first such cycle vertex, or
    failing that the first such insertion vertex.
    """
    n = t.n
    k = chain.king
    cycles = chain.cycles
    records = chain.insertions
    if n < 3:
        raise MalformedCertificateError(f"no chain exists for order {n}")
    if not 0 <= k < n:
        raise MalformedCertificateError(f"king {k} outside order {n}")
    if len(cycles) != n - 2:
        raise MalformedCertificateError(
            f"expected {n - 2} cycles for order {n}, certificate has {len(cycles)}"
        )
    if len(records) != len(cycles) - 1:
        raise MalformedCertificateError(
            f"{len(cycles)} cycles need {len(cycles) - 1} insertions, "
            f"certificate has {len(records)}"
        )
    out_masks = t.out_masks
    if type(cycles) is SplicedCycles and cycles.records is records:
        passed = _replays(out_masks, k, cycles.c3, records)
    else:
        cycles = _tuples(cycles)
        passed = _replays(out_masks, k, cycles[0], records) and _unspliced(cycles, records) is None
    if passed:
        return VerificationReport(_passed_checks(n), (True,) * len(records), True, None)

    cycles = _tuples(cycles)
    for what, items in (("cycle", cycles), ("insertion", records)):
        for v in itertools.chain(*items):
            if not 0 <= v < n:
                raise MalformedCertificateError(f"{what} vertex {v} outside order {n}")
    checks, masks = [], []
    for want, cyc in enumerate(cycles, 3):
        members = _vertex_mask(cyc)
        masks.append(members)
        ruled = k in cyc and not members & ~_two_step_reach(out_masks, k, members)
        checks.append(
            CycleCheck(want, _is_directed_cycle(out_masks, cyc), len(cyc) == want, k in cyc, ruled)
        )
    links = zip(cycles, records, masks, masks[1:])
    faults = [_insertion_fault(out_masks, *link) for link in links]
    failures = [_cycle_fault(c, k, len(cyc)) for c, cyc in zip(checks, cycles) if not c.passed]
    failures += [f"C{j + 3}->C{j + 4}: {f}" for j, f in enumerate(faults) if f is not None]
    first_failure = failures[0] if failures else None
    linked = [f is None for f in faults]
    # With every literal clause holding, the replay failed on an unspliced cycle.
    j = None if failures else _unspliced(cycles, records)
    if j is not None:
        x, _, z = records[j]
        linked[j] = False
        first_failure = f"C{j + 3}->C{j + 4}: C{j + 4} is not C{j + 3} with {z} spliced after {x}"
    return VerificationReport(tuple(checks), tuple(linked), first_failure is None, first_failure)


@dataclass(frozen=True)
class Counterexample:
    """Reproduction bundle for a failure that should be impossible (a bug, not bad input)."""

    index: int
    n: int
    king: int
    stage: str  # "build" or "verify"
    detail: str
    tournament_text: str
    certificate: dict[str, Any] | None

    def dump(self, directory: str | Path) -> tuple[Path, Path]:
        """Write the tournament text, and every other field as a JSON bundle; returns both paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stem = f"counterexample_n{self.n}_i{self.index}_k{self.king}"
        text_path = directory / f"{stem}.txt"
        json_path = directory / f"{stem}.json"
        text_path.write_text(self.tournament_text)
        bundle = {key: value for key, value in vars(self).items() if key != "tournament_text"}
        json_path.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
        return text_path, json_path


@dataclass(frozen=True)
class ExhaustiveSummary:
    """Counts from one exhaustive run; equality ignores timing and job count."""

    n: int
    tournaments: int
    strong_tournaments: int
    pairs: int
    failures: int
    counterexample: Counterexample | None
    jobs: int = field(compare=False, default=1)
    elapsed_seconds: float = field(compare=False, default=0.0)

    def to_text(self) -> str:
        lines = [
            f"n={self.n}",
            f"tournaments={self.tournaments}",
            f"strong={self.strong_tournaments}",
            f"pairs={self.pairs}",
            f"failures={self.failures}",
            f"jobs={self.jobs}",
            f"elapsed_seconds={self.elapsed_seconds:.3f}",
        ]
        if self.counterexample is not None:
            lines.append(f"counterexample_index={self.counterexample.index}")
        return "\n".join(lines) + "\n"


def _check_kings(
    t: Tournament, index: int
) -> tuple[int, int, Counterexample | None, list[float], list[float]]:
    """Build and verify the chain of every king of t, for both sweeps.

    Returns the pair and failure counts, the first failing king's
    counterexample (filed under `index`), the time of every build and the
    time of every verification.
    """
    pairs = failures = 0
    first: Counterexample | None = None
    build_times: list[float] = []
    verify_times: list[float] = []
    for king in _brute_kings(t):
        pairs += 1
        started = time.perf_counter()
        try:
            chain = build_chain(t, king)
        except TournamentError as exc:
            stage, detail, certificate = "build", f"{type(exc).__name__}: {exc}", None
        else:
            built = time.perf_counter()
            build_times.append(built - started)
            report = verify_chain(t, chain)
            verify_times.append(time.perf_counter() - built)
            if report.passed:
                continue
            stage, detail = "verify", report.first_failure
            certificate = json.loads(dumps_certificate(t, chain))
        failures += 1
        if first is None:
            first = Counterexample(index, t.n, king, stage, detail, export(t, "text"), certificate)
    return pairs, failures, first, build_times, verify_times


def _scan_range(args: tuple[int, int, int]) -> tuple[int, int, int, Counterexample | None]:
    """Worker: check every strong tournament with index in [start, stop), to the end.

    Returns the strong, pair and failure counts and the lowest-index counterexample.
    """
    n, start, stop = args
    strong = pairs = failures = 0
    found: Counterexample | None = None
    for t in filter(is_strong, enumerate_all(n, start, stop)):
        strong += 1
        checked, failed, first, _, _ = _check_kings(t, t.bits)
        pairs += checked
        failures += failed
        found = found or first
    return strong, pairs, failures, found


def exhaustive_check(n: int, jobs: int = 1) -> ExhaustiveSummary:
    """Build and verify a chain for every king of every strong tournament of order n.

    The sweep runs to its end even when something fails: `failures` counts
    every failing (tournament, king) pair, and the counterexample (never
    expected) is the one with the lowest enumeration index. With jobs > 1
    the enumeration index range is split into disjoint chunks scanned by
    worker processes, at most one per CPU, and counts merge by addition, so
    every count and the counterexample are the same for any job count.
    """
    if not EXHAUSTIVE_MIN_ORDER <= n <= EXHAUSTIVE_MAX_ORDER:
        raise OrderOutOfRangeError(
            f"exhaustive check supports {EXHAUSTIVE_MIN_ORDER} <= n <= "
            f"{EXHAUSTIVE_MAX_ORDER}, got {n}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    total = 1 << pair_count(n)
    started = time.perf_counter()
    if jobs == 1:
        results = [_scan_range((n, 0, total))]
    else:
        bounds = [total * i // jobs for i in range(jobs + 1)]
        chunks = [(n, bounds[i], bounds[i + 1]) for i in range(jobs)]
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_scan_range, chunks)
    strong = sum(r[0] for r in results)
    pairs = sum(r[1] for r in results)
    failures = sum(r[2] for r in results)
    # Chunks ascend by index, so the first counterexample found is the lowest.
    counterexample = next((r[3] for r in results if r[3] is not None), None)
    return ExhaustiveSummary(
        n=n,
        tournaments=total,
        strong_tournaments=strong,
        pairs=pairs,
        failures=failures,
        counterexample=counterexample,
        jobs=jobs,
        elapsed_seconds=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class StressSummary:
    """Counts from one randomized run; equality ignores timing."""

    n: int
    trials: int
    seed: int
    pairs: int
    failures: int
    first_failure: str | None
    build_seconds_p50: float = field(compare=False, default=0.0)
    build_seconds_p90: float = field(compare=False, default=0.0)
    build_seconds_max: float = field(compare=False, default=0.0)
    verify_seconds_p50: float = field(compare=False, default=0.0)
    verify_seconds_p90: float = field(compare=False, default=0.0)
    verify_seconds_max: float = field(compare=False, default=0.0)
    elapsed_seconds: float = field(compare=False, default=0.0)

    def to_text(self) -> str:
        lines = [
            f"n={self.n}",
            f"trials={self.trials}",
            f"seed={self.seed}",
            f"pairs={self.pairs}",
            f"failures={self.failures}",
            f"build_seconds_p50={self.build_seconds_p50:.6f}",
            f"build_seconds_p90={self.build_seconds_p90:.6f}",
            f"build_seconds_max={self.build_seconds_max:.6f}",
            f"verify_seconds_p50={self.verify_seconds_p50:.6f}",
            f"verify_seconds_p90={self.verify_seconds_p90:.6f}",
            f"verify_seconds_max={self.verify_seconds_max:.6f}",
            f"elapsed_seconds={self.elapsed_seconds:.3f}",
        ]
        if self.first_failure is not None:
            lines.append(f"first_failure={self.first_failure}")
        return "\n".join(lines) + "\n"


def random_stress(n: int, trials: int, seed: int) -> StressSummary:
    """Stress the pipeline on seeded random strong tournaments.

    Trial i runs the full build-and-verify pipeline for every king of the
    i-th strong draw from the seed (`core.strong_tournaments`), so no trial
    repeats a draw. Repeating a call reproduces the exact same instances and
    verdicts; only the timing fields vary.
    """
    if n < 3:
        raise OrderOutOfRangeError(f"random stress needs n >= 3, got {n}")
    started = time.perf_counter()
    pairs = failures = 0
    first_failure: str | None = None
    build_times: list[float] = []
    verify_times: list[float] = []
    for trial, t in enumerate(itertools.islice(strong_tournaments(n, seed), trials)):
        checked, failed, first, builds, verifies = _check_kings(t, trial)
        pairs += checked
        failures += failed
        build_times += builds
        verify_times += verifies
        if first_failure is None and first is not None:
            first_failure = f"trial {trial} king {first.king}: {first.detail}"
    build_times.sort()
    verify_times.sort()

    def percentile(times: list[float], q: float) -> float:
        if not times:
            return 0.0
        return times[min(len(times) - 1, int(q * len(times)))]

    return StressSummary(
        n=n,
        trials=trials,
        seed=seed,
        pairs=pairs,
        failures=failures,
        first_failure=first_failure,
        build_seconds_p50=percentile(build_times, 0.50),
        build_seconds_p90=percentile(build_times, 0.90),
        build_seconds_max=percentile(build_times, 1.0),
        verify_seconds_p50=percentile(verify_times, 0.50),
        verify_seconds_p90=percentile(verify_times, 0.90),
        verify_seconds_max=percentile(verify_times, 1.0),
        elapsed_seconds=time.perf_counter() - started,
    )
