"""Tests for the brute-force checker and the exhaustive/random harnesses."""

import collections
import dataclasses
import itertools
import json
import os
import random

import pytest

import kingchain.analysis
import kingchain.chain
import kingchain.cli
import kingchain.hamilton
import kingchain.oracle
from kingchain import (
    Insertion,
    Tournament,
    build_chain,
    dumps_certificate,
    enumerate_all,
    exhaustive_check,
    export,
    is_strong,
    kings,
    loads_certificate,
    random_strong_tournament,
    random_tournament,
    verify_chain,
)
from kingchain.chain import SplicedCycles
from kingchain.errors import (
    InternalContradictionError,
    KingNotInSubsetError,
    MalformedCertificateError,
    OrderOutOfRangeError,
)
from kingchain.core import pair_count
from kingchain.oracle import Counterexample, _brute_kings, brute_is_king_of_induced, random_stress

from brute import _two_step_misses, brute_cycles, brute_kings, brute_strong, brute_verify_chain


def corrupted(chain, **replacements):
    return dataclasses.replace(chain, **replacements)


@pytest.fixture
def serial_pool(monkeypatch):
    """Run the exhaustive chunks in this process; returns the pool sizes asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return [fn(chunk) for chunk in chunks]

    monkeypatch.setattr(kingchain.oracle.multiprocessing, "Pool", SerialPool)
    return sizes


def inject_failures(monkeypatch, fails):
    """Make the sweeps' build_chain fail wherever fails(t, king) says so.

    "build" raises from the build; "verify" reverses C3, which only the
    verification catches; anything else builds the real chain.
    """
    real = kingchain.oracle.build_chain

    def build(t, king):
        stage = fails(t, king)
        if stage == "build":
            raise InternalContradictionError("injected")
        chain = real(t, king)
        if stage == "verify":
            chain = corrupted(chain, cycles=(chain.cycles[0][::-1],) + chain.cycles[1:])
        return chain

    monkeypatch.setattr(kingchain.oracle, "build_chain", build)


class TestBruteIsKingOfInduced:
    def test_three_cycle(self, three_cycle):
        assert brute_is_king_of_induced(three_cycle, 0, [0, 1, 2])

    def test_t4a_subchain(self, t4a):
        assert brute_is_king_of_induced(t4a, 1, [0, 1, 3])

    def test_t4a_non_king(self, t4a):
        assert not brute_is_king_of_induced(t4a, 3, [0, 1, 2, 3])

    def test_king_not_in_subset(self, t4a):
        with pytest.raises(KingNotInSubsetError):
            brute_is_king_of_induced(t4a, 1, [0, 2, 3])


    def test_random_subsets_match_the_reference(self):
        # A transitive tournament's sink beats nobody, so it rules only itself.
        rng = random.Random(31)
        draws = [random_tournament(n, rng.randint(0, 10**6)) for n in (1, 3, 5, 8, 20, 60, 200)]
        draws += [Tournament(n, (1 << pair_count(n)) - 1) for n in (1, 4, 30)]
        for t in draws:
            for _ in range(40):
                king = rng.randrange(t.n)
                subset = {king, *rng.sample(range(t.n), rng.randint(0, t.n - 1))}
                _, missed = _two_step_misses(t.out_masks, king, sorted(subset))
                assert brute_is_king_of_induced(t, king, subset) == (not missed)
        sink = Tournament(5, (1 << pair_count(5)) - 1)
        assert brute_is_king_of_induced(sink, 4, [4])
        assert not brute_is_king_of_induced(sink, 4, [3, 4])


class TestBruteKings:
    """The sweeps count their pairs by `_brute_kings`; hold it to the set-based reference."""

    def test_every_tournament_of_orders_one_to_six(self):
        for n in range(1, 7):
            for t in enumerate_all(n):
                assert _brute_kings(t) == list(brute_kings(t))

    def test_seeded_draws_up_to_order_200(self):
        for n in (7, 12, 40, 100, 200):
            for seed in range(3):
                t = random_tournament(n, seed)
                assert _brute_kings(t) == list(brute_kings(t))

    def test_order_one_and_a_sink(self):
        assert _brute_kings(Tournament(1, 0)) == [0]
        # In the transitive tournament 0 beats everyone and n - 1 beats nobody.
        for n in (2, 3, 7, 200):
            t = Tournament(n, (1 << pair_count(n)) - 1)
            assert t.out_masks[n - 1] == 0
            assert _brute_kings(t) == [0] == list(brute_kings(t))


class TestVerifyChain:
    def test_t4a_all_pass(self, t4a):
        report = verify_chain(t4a, build_chain(t4a, 1))
        assert report.passed
        assert report.first_failure is None
        assert all(c.passed for c in report.cycle_checks)
        assert all(report.insertion_checks)

    def test_reversed_cycle_fails_only_cycle_check(self, t4a):
        chain = build_chain(t4a, 1)
        bad = corrupted(chain, cycles=(chain.cycles[0], (1, 0, 3, 2)))
        report = verify_chain(t4a, bad)
        assert not report.passed
        check = report.cycle_checks[1]
        assert not check.is_cycle
        assert check.correct_length and check.contains_king and check.king_of_induced
        assert report.cycle_checks[0].passed
        assert report.insertion_checks == (True,)
        assert "not a directed cycle" in report.first_failure

    def test_stale_insertion_vertex_fails_only_linkage(self, t4a):
        chain = build_chain(t4a, 1)
        bad = corrupted(chain, insertions=(Insertion(x=1, y=3, z=0),))
        report = verify_chain(t4a, bad)
        assert not report.passed
        assert all(c.passed for c in report.cycle_checks)
        assert report.insertion_checks == (False,)
        assert report.first_failure.startswith("C3->C4")

    def test_wrong_length_fails_length_check(self, t4a):
        # Shrinking a cycle necessarily also breaks the vertex-set linkage:
        # a simple cycle's length is its vertex count.
        chain = build_chain(t4a, 1)
        bad = corrupted(chain, cycles=(chain.cycles[0], (1, 3, 0)))
        report = verify_chain(t4a, bad)
        assert not report.passed
        check = report.cycle_checks[1]
        assert not check.correct_length
        assert check.is_cycle and check.contains_king and check.king_of_induced
        assert report.cycle_checks[0].passed
        assert report.insertion_checks == (False,)

    def test_missing_king_detected(self, t4a):
        chain = build_chain(t4a, 1)
        bad = corrupted(chain, cycles=((2, 3, 0), chain.cycles[1]))
        report = verify_chain(t4a, bad)
        check = report.cycle_checks[0]
        assert not check.contains_king
        assert not check.king_of_induced
        # The king spliced in as z: every record holds, and C3 still lacks it.
        t = Tournament(4, 4)
        bad = corrupted(
            build_chain(t, 2), cycles=((0, 3, 1), (0, 3, 2, 1)), insertions=(Insertion(3, 1, 2),)
        )
        report = verify_chain(t, bad)
        assert report == brute_verify_chain(t, bad)
        assert report.first_failure == "C3: king 2 missing"

    def test_malformed_wrong_cycle_count(self, t4a):
        chain = build_chain(t4a, 1)
        with pytest.raises(MalformedCertificateError):
            verify_chain(t4a, corrupted(chain, cycles=chain.cycles[:1]))

    def test_malformed_wrong_insertion_count(self, t4a):
        chain = build_chain(t4a, 1)
        with pytest.raises(MalformedCertificateError):
            verify_chain(t4a, corrupted(chain, insertions=()))

    def test_malformed_vertex_out_of_range(self, t4a):
        chain = build_chain(t4a, 1)
        bad = corrupted(chain, cycles=(chain.cycles[0], (1, 9, 3, 0)))
        with pytest.raises(MalformedCertificateError):
            verify_chain(t4a, bad)

    def test_malformed_king_out_of_range(self, t4a):
        chain = build_chain(t4a, 1)
        with pytest.raises(MalformedCertificateError):
            verify_chain(t4a, corrupted(chain, king=7))

    def test_malformed_order_below_three(self, t4a):
        # A zero-cycle certificate for a tiny tournament must not pass vacuously.
        from kingchain import from_edge_list

        tiny = from_edge_list(2, [(0, 1)])
        chain = build_chain(t4a, 1)
        with pytest.raises(MalformedCertificateError):
            verify_chain(tiny, corrupted(chain, cycles=(), insertions=()))

    def test_mutation_sensitivity_random(self):
        # Swapping two non-king vertices of one cycle must trip the cycle
        # check or the linkage check; dropping the last cycle vertex must
        # trip the length check.
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(4, 14)
            t = random_strong_tournament(n, rng.randint(0, 10**6))
            chain = build_chain(t, kings(t)[0])
            j = rng.randrange(len(chain.cycles))
            cyc = list(chain.cycles[j])

            shrunk = list(chain.cycles)
            shrunk[j] = tuple(cyc[:-1])
            report = verify_chain(t, corrupted(chain, cycles=tuple(shrunk)))
            assert not report.cycle_checks[j].correct_length
            assert not report.passed

            if len(cyc) >= 4:
                swapped = list(chain.cycles)
                swapped[j] = (cyc[0], cyc[2], cyc[1]) + tuple(cyc[3:])
                report = verify_chain(t, corrupted(chain, cycles=tuple(swapped)))
                assert not report.passed


def tampered(t, chain, rng):
    """Seeded single-field corruptions of a valid chain, one of each kind."""
    cycles, records = chain.cycles, chain.insertions
    j = rng.randrange(len(cycles))
    cyc = list(cycles[j])
    a, b = rng.sample(range(len(cyc)), 2)
    cyc[a], cyc[b] = cyc[b], cyc[a]
    r = rng.randrange(1, len(cyc))
    for kind, cycle in [
        ("swapped", cyc),
        ("reversed", cycles[j][::-1]),
        ("rotated", cycles[j][r:] + cycles[j][:r]),
        ("substituted", cycles[j][:a] + (rng.randrange(t.n),) + cycles[j][a + 1 :]),
    ]:
        yield kind, corrupted(chain, cycles=cycles[:j] + (tuple(cycle),) + cycles[j + 1 :])
    yield "lists", corrupted(chain, cycles=[list(c) for c in cycles[:j]] + [cyc] + list(cycles[j + 1 :]))
    # Every vertex of C3 rules it, so the next cycles test the king's reach.
    yield "other king", corrupted(chain, king=rng.choice(cycles[0][1:]))
    if records:
        i = rng.randrange(len(records))
        x, y, z = records[i]
        stale = rng.choice(cycles[i])
        for kind, rec in [("stale z", Insertion(x, y, stale)), ("swapped x/y", Insertion(y, x, z))]:
            yield kind, corrupted(chain, insertions=records[:i] + (rec,) + records[i + 1 :])
        # A record and cycle that agree on a splice the tournament may refuse:
        # any vertex, fresh or not, after any cycle vertex, mostly recorded
        # with its true successor.
        prev = cycles[i]
        slot = rng.randrange(len(prev)) + 1
        new_z = rng.randrange(t.n)
        new_y = prev[slot % len(prev)] if rng.random() < 0.7 else rng.choice(prev)
        yield "respliced", corrupted(
            chain,
            cycles=cycles[: i + 1] + (prev[:slot] + (new_z,) + prev[slot:],) + cycles[i + 2 :],
            insertions=records[:i] + (Insertion(prev[slot - 1], new_y, new_z),) + records[i + 1 :],
        )
        # The record as built, and z spliced into another slot that takes it:
        # a directed cycle on the right vertex set that is not the splice.
        size = len(prev)
        others = [
            s for s in range(1, size + 1)
            if prev[s - 1] != x
            and t.out_masks[prev[s - 1]] >> z & 1
            and t.out_masks[z] >> prev[s % size] & 1
        ]
        if others:
            s = rng.choice(others)
            yield "other slot", corrupted(
                chain, cycles=cycles[: i + 1] + (prev[:s] + (z,) + prev[s:],) + cycles[i + 2 :]
            )


def viewed(chain, c3, records):
    """The chain with C3 and records by hand, its cycles a view over both as
    `build_chain` lays them out."""
    return corrupted(chain, cycles=SplicedCycles(c3, records), insertions=records)


def view_tampered(t, chain, rng):
    """Seeded faults in a built chain's C3 or records, its cycles still their view."""
    c3, records, cycles = chain.cycles.c3, chain.insertions, chain.cycles
    yield "reversed C3", viewed(chain, c3[::-1], records)
    yield "C3 off the order", viewed(chain, c3[:2] + (t.n,), records)
    # A C3 vertex that is not a king of t rules C3 but not the whole order,
    # so some record splices a z outside its two-step reach.
    royal = kings(t)
    commoners = [v for v in c3 if v not in royal]
    if commoners:
        yield "z out of reach", corrupted(chain, king=rng.choice(commoners))
    if records:
        i = rng.randrange(len(records))
        x, y, z = records[i]
        on, off = set(cycles[i]), sorted(set(range(t.n)) - set(cycles[i]))
        for kind, rec in [
            ("stale z", Insertion(x, y, rng.choice(sorted(on)))),
            ("wrong y", Insertion(x, rng.choice(sorted(on - {y})), z)),
            ("x off the cycle", Insertion(rng.choice(off + [t.n]), y, z)),
            ("z off the order", Insertion(x, y, rng.choice([-1, t.n]))),
        ]:
            yield kind, viewed(chain, c3, records[:i] + (rec,) + records[i + 1 :])


def spliced_records(t, cycle, order):
    """Records splicing `order` into `cycle`, each into the first edge from
    its start that takes it."""
    cycle, records = list(cycle), []
    for z in order:
        slot = next(
            i for i in range(1, len(cycle) + 1)
            if t.out_masks[cycle[i - 1]] >> z & 1 and t.out_masks[z] >> cycle[i % len(cycle)] & 1
        )
        records.append(Insertion(cycle[slot - 1], cycle[slot % len(cycle)], z))
        cycle.insert(slot, z)
    return tuple(records)


def outcome(verify, t, chain):
    try:
        return verify(t, chain)
    except MalformedCertificateError as exc:
        return f"MalformedCertificateError: {exc}"


class TestVerifyChainMatchesLiteral:
    """The inductive verifier against the literal one in tests/brute.py."""

    def assert_same(self, t, chain, rng):
        assert verify_chain(t, chain) == brute_verify_chain(t, chain)
        kinds = set()
        for kind, bad in tampered(t, chain, rng):
            assert outcome(verify_chain, t, bad) == outcome(brute_verify_chain, t, bad), kind
            kinds.add(kind)
        return kinds

    def test_small_orders(self):
        # Every king for n <= 5, and 600 random draws at n = 6.
        rng = random.Random(41)
        sample = (Tournament(6, rng.getrandbits(15)) for _ in range(600))
        kinds = set()
        for t in filter(is_strong, itertools.chain(*map(enumerate_all, (3, 4, 5)), sample)):
            for k in kings(t):
                kinds |= self.assert_same(t, build_chain(t, k), rng)
        assert len(kinds) == 10

    def test_random_orders(self):
        rng = random.Random(42)
        for _ in range(40):
            t = random_strong_tournament(rng.randint(7, 80), rng.randint(0, 10**6))
            for k in rng.sample(kings(t), 2):
                self.assert_same(t, build_chain(t, k), rng)

    def test_out_of_range_vertices_named_alike(self, t4a):
        chain = build_chain(t4a, 1)
        c3, c4 = chain.cycles
        rec = chain.insertions[0]
        cases = [
            (t4a, corrupted(chain, cycles=(c3, (1, 2, 3, -1)))),
            (t4a, corrupted(chain, cycles=((1, 3, 4), (1, 2, 3, 9)))),
            (t4a, corrupted(chain, cycles=(c3, (1, 2, 3, 4)), insertions=(rec._replace(z=5),))),
            (t4a, corrupted(chain, insertions=(rec._replace(x=-2),))),
            (t4a, corrupted(chain, cycles=((), c4))),
        ]
        # At order 12, an offender in C3, the last cycle or the last record,
        # alone or after a failing C5.
        t = random_strong_tournament(12, 3)
        chain = build_chain(t, kings(t)[0])
        cycles, records = chain.cycles, chain.insertions
        reversed_c5 = cycles[:2] + (cycles[2][::-1],) + cycles[3:]
        last = cycles[-1][:-1] + (12,)
        stray_z = records[:-1] + (records[-1]._replace(z=-1),)
        cases += [
            (t, corrupted(chain, cycles=(cycles[0][:2] + (-1,),) + cycles[1:])),
            (t, corrupted(chain, cycles=cycles[:-1] + (last,))),
            (t, corrupted(chain, cycles=reversed_c5[:-1] + (last,))),
            (t, corrupted(chain, cycles=reversed_c5[:-1] + (last,), insertions=stray_z)),
            (t, corrupted(chain, cycles=reversed_c5, insertions=stray_z)),
        ]
        for t, bad in cases:
            assert outcome(verify_chain, t, bad) == outcome(brute_verify_chain, t, bad)

    def test_valid_chains_pass_by_induction_alone(self, monkeypatch):
        # The literal checks only explain a failure: a valid chain never
        # reaches them, however its king's reach grows. A built chain's
        # cycles view shares its records, so the replay alone decides: the
        # given-cycles comparison never runs, and no cycle tuple is built.
        def boom(*args):
            raise AssertionError("a built chain was checked past its records")

        monkeypatch.setattr(kingchain.oracle, "_insertion_fault", boom)
        monkeypatch.setattr(kingchain.oracle, "_unspliced", boom)
        monkeypatch.setattr(SplicedCycles, "_derive", boom)
        rng = random.Random(43)
        draws = [(rng.randint(6, 60), rng.randint(0, 10**6)) for _ in range(20)]
        sample = itertools.starmap(random_strong_tournament, draws)
        for t in filter(is_strong, itertools.chain(enumerate_all(4), enumerate_all(5), sample)):
            for k in kings(t):
                assert verify_chain(t, build_chain(t, k)).passed

    def test_hand_made_views_named_alike(self, monkeypatch):
        # Cycles that are a view over the chain's own records are judged by
        # the replay; when it fails, the literal checks name the fault.
        def boom(*args):
            raise AssertionError("a view over the chain's records was compared tuple by tuple")

        monkeypatch.setattr(kingchain.oracle, "_unspliced", boom)
        rng = random.Random(44)
        kinds = collections.Counter()
        draws = [(rng.randint(4, 40), rng.randint(0, 10**6)) for _ in range(60)]
        sample = itertools.starmap(random_strong_tournament, draws)
        for t in itertools.chain(filter(is_strong, enumerate_all(5)), sample):
            for k in kings(t):
                chain = build_chain(t, k)
                for kind, bad in view_tampered(t, chain, rng):
                    assert type(bad.cycles) is SplicedCycles
                    assert bad.cycles.records is bad.insertions
                    report = outcome(verify_chain, t, bad)
                    assert report == outcome(brute_verify_chain, t, bad), kind
                    assert isinstance(report, str) or not report.passed, kind
                    kinds[kind] += 1
        assert len(kinds) == 7

    def test_view_over_other_records_is_read_as_tuples(self):
        # Records from another valid splice order replay by themselves, but
        # the view's cycles follow its own records: only a view over the
        # chain's own records may skip its tuples.
        rng = random.Random(45)
        checked = 0
        for _ in range(30):
            t = random_strong_tournament(rng.randint(6, 40), rng.randint(0, 10**6))
            chain = build_chain(t, rng.choice(kings(t)))
            d = len(chain.context.out_set)
            rest = [v for v in chain.context.in_set if v != chain.exit_edge.head]
            if len(rest) < 2:
                continue
            backwards = spliced_records(t, chain.cycles[d - 1], rest[::-1])
            records = chain.insertions[: d - 1] + backwards
            assert verify_chain(t, viewed(chain, chain.cycles.c3, records)).passed
            bad = corrupted(chain, insertions=records)
            report = verify_chain(t, bad)
            assert report == brute_verify_chain(t, bad)
            assert not report.passed
            checked += 1
        assert checked > 20

    def test_unspliced_cycle_fails(self):
        # README's example: C6 is a directed cycle on the right vertex set
        # and (a)-(e) all hold, but it is not C5 spliced, so its link fails.
        t = random_strong_tournament(6, 0)
        chain = build_chain(t, 0)
        assert chain.cycles[2:] == ((0, 3, 2, 5, 1), (0, 3, 2, 4, 5, 1))
        assert chain.insertions[2] == Insertion(2, 5, 4)
        bad = corrupted(chain, cycles=chain.cycles[:3] + ((0, 2, 4, 3, 5, 1),))
        report = verify_chain(t, bad)
        assert report == brute_verify_chain(t, bad)
        assert not report.passed
        assert report.first_failure == "C5->C6: C6 is not C5 with 4 spliced after 2"
        assert all(check.passed for check in report.cycle_checks)
        assert report.insertion_checks == (True, True, False)
        _, loaded = loads_certificate(dumps_certificate(t, bad))
        assert verify_chain(t, loaded) == report


class TestOracleIndependence:
    def test_verification_never_calls_construction_code(self, t4a, monkeypatch):
        # A built chain replays its records; a loaded one holds its cycles. A
        # failing view, and a view over records other than the chain's, are
        # spliced by the oracle itself, never through the view's _derive.
        chain = build_chain(t4a, 1)
        _, loaded = loads_certificate(dumps_certificate(t4a, chain))
        c3, records = chain.cycles.c3, chain.insertions
        reversed_c3 = viewed(chain, c3[::-1], records)
        literal = corrupted(reversed_c3, cycles=brute_cycles(c3[::-1], records))
        other_records = corrupted(chain, cycles=SplicedCycles(c3, tuple(list(records))))
        (x, y, z), = records
        off_c3 = corrupted(chain, cycles=SplicedCycles(c3, (Insertion(z, y, x),)))

        def boom(*args, **kwargs):
            raise AssertionError("oracle verification must not call this")

        for mod, name in [
            (kingchain.analysis, "is_king"),
            (kingchain.analysis, "kings"),
            (kingchain.analysis, "is_strong"),
            (kingchain.analysis, "condensation"),
            (kingchain.analysis, "king_context"),
            (kingchain.hamilton, "hamiltonian_path"),
            (kingchain.hamilton, "path_ending_at"),
            (kingchain.chain, "build_chain"),
            (kingchain.chain, "extend_cycle"),
            (kingchain.chain, "find_exit_edge"),
            (kingchain.chain, "spine_path"),
            (kingchain.chain, "build_ladder"),
            (kingchain.chain, "_splice"),
            (kingchain.chain.SplicedCycles, "_derive"),
            (kingchain.oracle, "build_chain"),
            (kingchain.oracle, "is_strong"),
        ]:
            monkeypatch.setattr(mod, name, boom)

        assert brute_is_king_of_induced(t4a, 1, [0, 1, 3])
        assert verify_chain(t4a, chain).passed
        assert verify_chain(t4a, loaded).passed
        report = verify_chain(t4a, reversed_c3)
        assert not report.passed and report == verify_chain(t4a, literal)
        assert verify_chain(t4a, other_records).passed
        with pytest.raises(MalformedCertificateError) as info:
            verify_chain(t4a, off_c3)
        assert str(info.value) == f"C3->C4: vertex {z} not on C3"


class TestExhaustiveCheck:
    def test_order_three_by_hand(self):
        summary = exhaustive_check(3)
        assert summary.tournaments == 8
        assert summary.strong_tournaments == 2
        assert summary.pairs == 6
        assert summary.failures == 0
        assert summary.counterexample is None

    def test_order_four(self):
        summary = exhaustive_check(4)
        assert (summary.tournaments, summary.strong_tournaments) == (64, 24)
        assert summary.pairs == 72
        assert summary.failures == 0

    def test_jobs_do_not_change_counts(self):
        assert exhaustive_check(4, jobs=1) == exhaustive_check(4, jobs=3)

    def test_order_out_of_range(self):
        with pytest.raises(OrderOutOfRangeError):
            exhaustive_check(2)
        with pytest.raises(OrderOutOfRangeError):
            exhaustive_check(8)

    def test_jobs_below_one(self):
        with pytest.raises(ValueError):
            exhaustive_check(4, jobs=0)

    def test_summary_text(self):
        text = exhaustive_check(3).to_text()
        assert "tournaments=8" in text
        assert "strong=2" in text
        assert "failures=0" in text
        assert text.endswith("\n")

    def test_jobs_capped_at_cpu_count(self, serial_pool):
        cpus = os.cpu_count() or 1
        summary = exhaustive_check(4, jobs=cpus + 1)
        assert serial_pool and max(serial_pool) <= cpus
        assert summary.jobs <= cpus
        assert summary == exhaustive_check(4, jobs=1)

    def test_failing_sweep_counts_do_not_depend_on_jobs(self, monkeypatch, serial_pool):
        # Build failures on every third index, verify failures for king 0 on
        # the next: a sweep runs to its end, so every chunk split agrees.
        def fails(t, king):
            if t.bits % 3 == 0:
                return "build"
            return "verify" if t.bits % 3 == 1 and king == 0 else None

        inject_failures(monkeypatch, fails)
        monkeypatch.setattr(kingchain.oracle.os, "cpu_count", lambda: 4)
        serial = exhaustive_check(5, jobs=1)
        split = exhaustive_check(5, jobs=4)
        assert serial_pool == [4] and split.jobs == 4
        assert split == serial
        assert (serial.tournaments, serial.strong_tournaments, serial.pairs) == (1024, 544, 1880)

        failing = [
            (t.bits, king)
            for t in kingchain.enumerate_all(5)
            if brute_strong(t)
            for king in brute_kings(t)
            if fails(t, king)
        ]
        assert serial.failures == len(failing) > 0
        index, king = failing[0]
        cx = serial.counterexample
        assert (cx.index, cx.king) == (index, king)
        assert cx.stage == fails(kingchain.Tournament(5, index), king)


class TestRandomStress:
    def test_zero_failures(self):
        summary = random_stress(10, trials=20, seed=1)
        assert summary.failures == 0
        assert summary.first_failure is None
        assert summary.pairs >= summary.trials

    def test_repeatable(self):
        # Timing fields are excluded from equality; verdicts must match.
        assert random_stress(8, trials=10, seed=5) == random_stress(8, trials=10, seed=5)

    def test_order_below_three(self):
        with pytest.raises(OrderOutOfRangeError):
            random_stress(2, trials=1, seed=0)

    def test_trials_check_distinct_consecutive_strong_draws(self, monkeypatch):
        # Trial i checks the i-th strong draw among random_tournament(6, 1),
        # random_tournament(6, 2), ...; no draw is checked twice.
        real = kingchain.oracle._check_kings
        checked = []

        def record(t, index):
            checked.append(t.bits)
            return real(t, index)

        monkeypatch.setattr(kingchain.oracle, "_check_kings", record)
        random_stress(6, trials=20, seed=1)
        draws = (random_tournament(6, seed) for seed in itertools.count(1))
        assert checked == [t.bits for t in itertools.islice(filter(brute_strong, draws), 20)]

    def test_text_output(self):
        text = random_stress(6, trials=3, seed=2).to_text()
        assert "failures=0" in text
        lines = text.splitlines()
        keys = [line.split("=")[0] for line in lines]
        stages = [f"{stage}_seconds_{q}" for stage in ("build", "verify") for q in ("p50", "p90", "max")]
        assert keys[keys.index("failures") + 1 : keys.index("elapsed_seconds")] == stages
        values = dict(line.split("=") for line in lines)
        for stage in ("build", "verify"):
            p50, p90, top = (float(values[f"{stage}_seconds_{q}"]) for q in ("p50", "p90", "max"))
            assert 0 < p50 <= p90 <= top

    @pytest.mark.parametrize(
        "stage, first_failure",
        [
            ("build", "trial 1 king 1: InternalContradictionError: injected"),
            ("verify", "trial 1 king 1: C3: not a directed cycle of the tournament"),
        ],
    )
    def test_injected_failure_text(self, monkeypatch, stage, first_failure):
        # Every king 1 fails. Trial 0 (seed 0's draw) has no king 1, trials 1
        # and 2 (the draws of seeds 3 and 4) have one each, and the sweep runs
        # every trial.
        inject_failures(monkeypatch, lambda t, king: stage if king == 1 else None)
        summary = random_stress(6, trials=3, seed=0)
        assert summary.first_failure == first_failure
        assert (summary.pairs, summary.failures) == (14, 2)
        assert summary.to_text().endswith(f"\nfirst_failure={first_failure}\n")

    def test_every_build_failing_gives_zero_timings(self, monkeypatch):
        # No build finishes, so no time is recorded, and every percentile is 0.
        inject_failures(monkeypatch, lambda t, king: "build")
        summary = random_stress(6, trials=2, seed=0)
        assert (summary.pairs, summary.failures) == (9, 9)
        values = dict(line.split("=", 1) for line in summary.to_text().splitlines())
        for stage in ("build", "verify"):
            for q in ("p50", "p90", "max"):
                assert values[f"{stage}_seconds_{q}"] == "0.000000"


class TestCounterexampleDump:
    def test_dump_files(self, t4a, tmp_path):
        cx = Counterexample(
            index=41,
            n=4,
            king=1,
            stage="verify",
            detail="C4: synthetic failure for the dump test",
            tournament_text="4\n0 1\n1 2\n1 3\n2 0\n2 3\n3 0\n",
            certificate={"n": 4},
        )
        text_path, json_path = cx.dump(tmp_path)
        assert text_path.read_text().startswith("4\n")
        bundle = json.loads(json_path.read_text())
        assert bundle["index"] == 41
        assert bundle["stage"] == "verify"
        assert bundle["certificate"] == {"n": 4}

    def test_cli_exhaustive_files_the_failing_certificate(self, monkeypatch, tmp_path, capsys):
        # Reverse C3 for the lowest king of the lowest-index strong
        # tournament of order 4: the sweep reports that pair, and its bundle
        # holds the certificate of the chain that failed, as the writer writes it.
        t = next(t for t in enumerate_all(4) if brute_strong(t))
        king = brute_kings(t)[0]
        inject_failures(monkeypatch, lambda u, k: "verify" if (u, k) == (t, king) else None)
        monkeypatch.chdir(tmp_path)
        assert kingchain.cli.main(["exhaustive", "--n", "4"]) == 1
        out, err = capsys.readouterr()
        assert "failures=1" in out.splitlines()
        assert f"counterexample_index={t.bits}" in out.splitlines()
        stem = f"counterexample_n4_i{t.bits}_k{king}"
        assert err == f"counterexample written to {stem}.txt and {stem}.json\n"
        assert (tmp_path / f"{stem}.txt").read_text() == export(t, "text")
        bundle = json.loads((tmp_path / f"{stem}.json").read_text())
        assert (bundle["stage"], bundle["king"]) == ("verify", king)
        chain = build_chain(t, king)
        failed = corrupted(chain, cycles=(chain.cycles[0][::-1],) + chain.cycles[1:])
        text = json.dumps(bundle["certificate"], indent=2, sort_keys=True) + "\n"
        assert text == dumps_certificate(t, failed)
        report = verify_chain(*loads_certificate(text))
        assert not report.passed
        assert report.first_failure == bundle["detail"]
