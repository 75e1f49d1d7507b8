"""Tests for the cycle-chain construction and its certificate format."""

import dataclasses
import gc
import itertools
import json
import random
import tracemalloc

import pytest

from kingchain import (
    ExitEdge,
    Insertion,
    KingContext,
    build_chain,
    condensation,
    dumps_certificate,
    enumerate_all,
    find_exit_edge,
    from_edge_list,
    is_strong,
    king_context,
    kings,
    loads_certificate,
    path_ending_at,
    random_strong_tournament,
    verify_chain,
)
from kingchain.chain import SplicedCycles, _splice, build_ladder, extend_cycle, spine_path
from kingchain.core import _MATRIX_CUT
from kingchain.errors import (
    CycleAlreadySpanningError,
    DuplicatePairError,
    InternalContradictionError,
    MalformedCertificateError,
    MissingPairError,
    NotAKingError,
    NotStrongError,
    OrderTooSmallError,
)
from kingchain.hamilton import hamiltonian_path

from brute import (
    adjacency,
    brute_cycles,
    brute_exit_edge,
    brute_records,
    brute_kings,
    brute_strong,
    certificate_json,
    near_transitive,
)

CERTIFICATE_KEYS = {"n", "king", "cycles", "insertions", "tournament"}


def context_and_blocks(t, k):
    ctx = king_context(t, k)
    return ctx, condensation(t, ctx.out_set)


def every_strong_pair():
    """Every king of every strong tournament of order 3-6: 91,238 pairs."""
    for n in range(3, 7):
        for t in filter(is_strong, enumerate_all(n)):
            yield from ((t, k) for k in kings(t))


def near_transitive_pairs(rng, trials, max_n):
    """Every king of the strong ones among `trials` near-transitive tournaments,
    whose out-sets have many blocks."""
    for _ in range(trials):
        n = rng.randint(3, max_n)
        t = from_edge_list(n, near_transitive(n, 0.9, rng))
        if is_strong(t):
            yield from ((t, k) for k in kings(t))


class TestFindExitEdge:
    def test_three_cycle_forced(self, three_cycle):
        ctx, blocks = context_and_blocks(three_cycle, 0)
        assert find_exit_edge(three_cycle, ctx, blocks) == ExitEdge(tail=1, head=2)

    def test_t4a(self, t4a):
        ctx, blocks = context_and_blocks(t4a, 1)
        assert find_exit_edge(t4a, ctx, blocks) == ExitEdge(tail=3, head=0)

    def test_exit_edge_wellformed(self):
        rng = random.Random(21)
        randoms = [
            random_strong_tournament(rng.randint(3, 25), rng.randint(0, 10**6)) for _ in range(80)
        ]
        pairs = itertools.chain(
            every_strong_pair(),
            ((t, k) for t in randoms for k in kings(t)),
            near_transitive_pairs(rng, 160, 40),
        )
        last = adj = None
        for t, k in pairs:
            if t is not last:
                last, adj = t, adjacency(t)
            ctx, blocks = context_and_blocks(t, k)
            exit_edge = find_exit_edge(t, ctx, blocks)
            assert exit_edge.tail in blocks[-1]
            assert exit_edge.head in ctx.in_set
            assert t.out_masks[exit_edge.tail] >> exit_edge.head & 1
            assert t.out_masks[exit_edge.head] >> k & 1
            assert (exit_edge.tail, exit_edge.head) == brute_exit_edge(t, k, adj)


class TestSpinePath:
    def test_three_cycle(self, three_cycle):
        ctx, blocks = context_and_blocks(three_cycle, 0)
        exit_edge = find_exit_edge(three_cycle, ctx, blocks)
        assert spine_path(three_cycle, ctx, blocks, exit_edge) == (1,)

    def test_t4a(self, t4a):
        ctx, blocks = context_and_blocks(t4a, 1)
        exit_edge = find_exit_edge(t4a, ctx, blocks)
        assert spine_path(t4a, ctx, blocks, exit_edge) == (2, 3)

    def test_spans_out_set_and_ends_at_exit_tail(self):
        rng = random.Random(22)
        for _ in range(80):
            n = rng.randint(3, 25)
            t = random_strong_tournament(n, rng.randint(0, 10**6))
            k = kings(t)[0]
            ctx, blocks = context_and_blocks(t, k)
            exit_edge = find_exit_edge(t, ctx, blocks)
            spine = spine_path(t, ctx, blocks, exit_edge)
            assert sorted(spine) == list(ctx.out_set)
            assert spine[-1] == exit_edge.tail
            for u, v in zip(spine, spine[1:]):
                assert t.out_masks[u] >> v & 1

    def test_is_a_front_path_then_a_last_block_path(self):
        # Rédei's rule toward the tail never defers an earlier-block vertex,
        # which beats the whole last block, so the spine splits at that block.
        # The benchmark's traced replay checks the same split; at n=200 the
        # out-set is one block, so only small and near-transitive inputs test it.
        pairs = itertools.chain(
            every_strong_pair(), near_transitive_pairs(random.Random(29), 300, 60)
        )
        for t, k in pairs:
            ctx, blocks = context_and_blocks(t, k)
            exit_edge = find_exit_edge(t, ctx, blocks)
            front = [v for block in blocks[:-1] for v in block]
            lead = hamiltonian_path(t, front) if front else ()
            rear = path_ending_at(t, blocks[-1], exit_edge.tail)
            assert spine_path(t, ctx, blocks, exit_edge) == lead + rear


class TestBuildLadder:
    def test_three_cycle_single_rung(self, three_cycle):
        ctx, blocks = context_and_blocks(three_cycle, 0)
        cycles, inserts = build_ladder(ctx, (1,), ExitEdge(tail=1, head=2))
        assert cycles == [(0, 1, 2)]
        assert inserts == []

    def test_t4a(self, t4a):
        ctx, _ = context_and_blocks(t4a, 1)
        cycles, inserts = build_ladder(ctx, (2, 3), ExitEdge(tail=3, head=0))
        assert cycles == [(1, 3, 0), (1, 2, 3, 0)]
        assert inserts == [Insertion(x=1, y=3, z=2)]

    def test_first_rung_is_the_exit_triangle(self):
        rng = random.Random(23)
        for _ in range(40):
            t = random_strong_tournament(rng.randint(3, 20), rng.randint(0, 10**6))
            k = kings(t)[0]
            ctx, blocks = context_and_blocks(t, k)
            exit_edge = find_exit_edge(t, ctx, blocks)
            spine = spine_path(t, ctx, blocks, exit_edge)
            cycles, inserts = build_ladder(ctx, spine, exit_edge)
            assert cycles[0] == (k, exit_edge.tail, exit_edge.head)
            assert len(cycles) == len(spine)
            assert len(inserts) == len(cycles) - 1
            assert [len(c) for c in cycles] == list(range(3, len(spine) + 3))


class TestExtendCycle:
    def test_already_spanning(self, t4a):
        ctx, _ = context_and_blocks(t4a, 1)
        with pytest.raises(CycleAlreadySpanningError):
            extend_cycle(t4a, ctx, (1, 2, 3, 0))

    def test_cycle_must_start_at_the_king(self, t4a):
        ctx, _ = context_and_blocks(t4a, 1)
        with pytest.raises(ValueError) as info:
            extend_cycle(t4a, ctx, (3, 0, 1))
        assert str(info.value) == "cycle must start at the king"

    def test_no_slot_for_a_vertex_every_cycle_vertex_beats(self):
        t = from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        with pytest.raises(InternalContradictionError) as info:
            extend_cycle(t, KingContext(0, (1, 3), (2,)), (0, 1, 2))
        assert str(info.value) == "no insertion slot for vertex 3"

    def test_postcondition(self):
        rng = random.Random(24)
        for _ in range(60):
            n = rng.randint(4, 20)
            t = random_strong_tournament(n, rng.randint(0, 10**6))
            k = kings(t)[0]
            ctx, blocks = context_and_blocks(t, k)
            exit_edge = find_exit_edge(t, ctx, blocks)
            spine = spine_path(t, ctx, blocks, exit_edge)
            cycles, _ = build_ladder(ctx, spine, exit_edge)
            cycle = cycles[-1]
            if len(cycle) == n:
                continue
            grown, rec = extend_cycle(t, ctx, cycle)
            assert len(grown) == len(cycle) + 1
            assert set(grown) == set(cycle) | {rec.z}
            assert rec.z == min(set(range(n)) - set(cycle))
            assert grown[0] == k
            assert t.out_masks[rec.x] >> rec.z & 1 and t.out_masks[rec.z] >> rec.y & 1

    def test_repeated_calls_rebuild_build_chain(self):
        # build_chain splices the in-set minus the exit head in ascending
        # order, and extend_cycle splices the lowest missing vertex. From the
        # ladder's last cycle on, both must give the same cycles and records.
        # Both walk the same successor-array splice, so the records are also
        # held to a walk over a cycle list, in the same splice order.
        pairs = itertools.chain(
            every_strong_pair(), near_transitive_pairs(random.Random(28), 300, 60)
        )
        checked = extended = 0
        last = adj = None
        for t, k in pairs:
            if t is not last:
                last, adj = t, adjacency(t)
            chain = build_chain(t, k)
            head = chain.exit_edge.head
            order = chain.spine[-2::-1] + tuple(v for v in chain.context.in_set if v != head)
            assert chain.insertions == brute_records(t, k, chain.cycles.c3, order, adj)
            d = len(chain.context.out_set)
            cycles, inserts = list(chain.cycles[:d]), list(chain.insertions[: d - 1])
            while len(cycles[-1]) < t.n:
                cycle, rec = extend_cycle(t, chain.context, cycles[-1])
                cycles.append(cycle)
                inserts.append(rec)
            assert (tuple(cycles), tuple(inserts)) == (chain.cycles, chain.insertions)
            checked += 1
            extended += t.n - 2 - d
        assert checked > 91238
        assert extended > checked


class TestSplice:
    def test_spine_records_take_the_kings_edge(self):
        # The king beats every spine vertex, and each spine vertex beats the
        # one after it, so the spine's records are written without a walk.
        pairs = itertools.chain(
            every_strong_pair(), near_transitive_pairs(random.Random(30), 300, 60)
        )
        for t, k in pairs:
            chain = build_chain(t, k)
            spine = chain.spine
            ladder = tuple((k, spine[i + 1], spine[i]) for i in range(len(spine) - 2, -1, -1))
            assert chain.insertions[: len(spine) - 1] == ladder
            assert {type(record) for record in chain.insertions} <= {Insertion}

    def test_walks_each_vertex_in_turn(self, t4a):
        # C3 = (1, 3, 0) as successors; 2 goes between 1 and 3.
        succ = [1, 3, 0, 0]
        assert _splice(t4a.out_masks, succ, 1, 3, [2]) == [Insertion(1, 3, 2)]
        assert succ == [1, 2, 3, 0]
        assert _splice(t4a.out_masks, [1, 3, 0, 0], 1, 3, []) == []

    def test_no_slot_for_a_vertex_every_cycle_vertex_beats(self):
        t = from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        with pytest.raises(InternalContradictionError) as info:
            _splice(t.out_masks, [1, 2, 0, 0], 0, 3, [3])
        assert str(info.value) == "no insertion slot for vertex 3"


class TestBuildChain:
    def test_three_cycle(self, three_cycle):
        chain = build_chain(three_cycle, 0)
        assert chain.cycles == ((0, 1, 2),)
        assert chain.insertions == ()

    def test_t4a_worked_example(self, t4a):
        chain = build_chain(t4a, 1)
        assert chain.cycles == ((1, 3, 0), (1, 2, 3, 0))
        assert chain.insertions == (Insertion(x=1, y=3, z=2),)
        assert chain.blocks == ((2,), (3,))
        assert chain.exit_edge == ExitEdge(tail=3, head=0)
        assert chain.spine == (2, 3)

    def test_not_strong(self, transitive_triangle):
        with pytest.raises(NotStrongError):
            build_chain(transitive_triangle, 0)
        # The exit-edge search is the only strong test on the way: every king
        # of every tournament with n = 3..6 that is not strong must hit it.
        pairs = 0
        for n in range(3, 7):
            for t in enumerate_all(n):
                if brute_strong(t):
                    continue
                for k in brute_kings(t):
                    pairs += 1
                    with pytest.raises(NotStrongError):
                        build_chain(t, k)
        assert pairs == 21406

    def test_not_a_king(self, t4a):
        with pytest.raises(NotAKingError):
            build_chain(t4a, 3)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            build_chain(from_edge_list(1, []), 0)

    def test_structure_invariants(self):
        rng = random.Random(25)
        for _ in range(50):
            n = rng.randint(3, 25)
            t = random_strong_tournament(n, rng.randint(0, 10**6))
            for k in kings(t):
                chain = build_chain(t, k)
                d = len(chain.context.out_set)
                assert [len(c) for c in chain.cycles] == list(range(3, n + 1))
                for cyc in chain.cycles:
                    assert cyc[0] == k
                for prev, nxt, rec in zip(
                    chain.cycles, chain.cycles[1:], chain.insertions
                ):
                    assert set(nxt) == set(prev) | {rec.z}
                    assert rec.z not in prev
                # Every cycle from the end of the ladder on holds the whole
                # out-set next to the king.
                hull = set(chain.context.out_set) | {k}
                for cyc in chain.cycles[d - 1 :]:
                    assert hull <= set(cyc)

    def test_deterministic_certificates(self):
        rng = random.Random(26)
        for _ in range(20):
            n = rng.randint(3, 20)
            t = random_strong_tournament(n, rng.randint(0, 10**6))
            k = kings(t)[0]
            first = build_chain(t, k)
            second = build_chain(t, k)
            assert first == second
            assert dumps_certificate(t, first) == dumps_certificate(t, second)

    def test_annotations_are_the_public_stages(self):
        # build_chain runs the stages on the out-set it split off, unchecked;
        # its annotations are what the checked public stages give.
        pairs = itertools.chain(
            every_strong_pair(), near_transitive_pairs(random.Random(32), 300, 60)
        )
        for t, k in pairs:
            chain = build_chain(t, k)
            ctx, blocks = context_and_blocks(t, k)
            exit_edge = find_exit_edge(t, ctx, blocks)
            assert chain.context == ctx
            assert chain.blocks == blocks
            assert chain.exit_edge == exit_edge
            assert chain.spine == spine_path(t, ctx, blocks, exit_edge)

    def test_large_near_transitive_orders_reach_the_rare_branches(self):
        # Uniform draws at large n give a one-block out-set whose lowest vertex
        # is the exit tail. Near-transitive ones give out-sets of several blocks
        # and other tails, so the counts hold the test to those branches.
        rng = random.Random(0)
        pairs = multi_block = other_tail = 0
        for n in (100, 200, 300):
            for p in (0.97, 0.98, 0.99):
                t = from_edge_list(n, near_transitive(n, p, rng))
                if not is_strong(t):
                    continue
                for k in kings(t):
                    chain = build_chain(t, k)
                    assert verify_chain(t, chain).passed
                    pairs += 1
                    multi_block += len(chain.blocks) > 1
                    other_tail += chain.exit_edge.tail != chain.blocks[-1][0]
        assert pairs > 0 and multi_block > 0 and other_tail > 0


class TestSplicedCycles:
    """build_chain's cycles view against the slice-based brute_cycles."""

    @staticmethod
    def chains():
        for n in (3, 4, 5):
            for t in filter(is_strong, enumerate_all(n)):
                yield from (build_chain(t, k) for k in kings(t))
        rng = random.Random(30)
        for _ in range(30):
            t = random_strong_tournament(rng.randint(6, 60), rng.randint(0, 10**6))
            yield build_chain(t, kings(t)[0])

    def test_reads_as_the_tuple_of_its_splices(self):
        for chain in self.chains():
            view = chain.cycles
            assert type(view) is SplicedCycles and view.records is chain.insertions
            want = brute_cycles(view.c3, chain.insertions)
            size = len(want)
            assert len(view) == size
            assert [*view] == [*want]
            assert [view[i] for i in range(-size, size)] == [want[i] for i in range(-size, size)]
            with pytest.raises(IndexError):
                view[size]
            parts = (slice(3), slice(1, None), slice(None, None, -1), slice(-2, None), slice(4, 1))
            for part in parts:
                assert type(view[part]) is tuple and view[part] == want[part]
            assert view[:3] + ((0,),) == want[:3] + ((0,),)
            assert view == want and want == view and not view != want
            assert view != list(want) and view != want[:-1] + ((0,),)
            assert hash(view) == hash(want)
            # The certificate is a frozen dataclass: it compares and hashes
            # like the same chain holding plain tuples.
            plain = dataclasses.replace(chain, cycles=want)
            assert chain == plain and plain == chain and hash(chain) == hash(plain)

    def test_hand_made_records(self):
        # A record whose z is already on the cycle splices it in again; the
        # oracle, not the view, judges the records.
        c3, records = (0, 1, 2), (Insertion(0, 1, 3), Insertion(2, 0, 1), Insertion(1, 3, 4))
        view = SplicedCycles(c3, records)
        want = ((0, 1, 2), (0, 3, 1, 2), (0, 3, 1, 2, 1), (0, 3, 1, 4, 2, 1))
        assert view == brute_cycles(c3, records) == want
        assert view == SplicedCycles(c3, records) and view != SplicedCycles(c3, records[:2])

    def test_length_reads_no_cycle(self):
        view = SplicedCycles((0, 1, 2), (Insertion(0, 1, 3), Insertion(7, 0, 4)))
        assert len(view) == 3
        with pytest.raises(MalformedCertificateError) as info:
            view[0]
        assert str(info.value) == "C4->C5: vertex 7 not on C4"

    def test_iterates_without_indexing(self, monkeypatch):
        # The Sequence mixin would iterate by indexing until IndexError.
        t = random_strong_tournament(30, 1)
        chain = build_chain(t, kings(t)[0])

        def boom(*args):
            raise AssertionError("iterated by indexing")

        monkeypatch.setattr(SplicedCycles, "__getitem__", boom)
        assert tuple(chain.cycles) == brute_cycles(chain.cycles.c3, chain.insertions)


class TestCertificate:
    def test_keys(self, t4a):
        obj = json.loads(dumps_certificate(t4a, build_chain(t4a, 1)))
        assert set(obj) == CERTIFICATE_KEYS

    def test_round_trip(self, t4a):
        chain = build_chain(t4a, 1)
        text = dumps_certificate(t4a, chain)
        t_back, chain_back = loads_certificate(text)
        assert t_back == t4a
        assert chain_back == chain
        assert dumps_certificate(t_back, chain_back) == text

    def test_round_trip_random(self):
        rng = random.Random(27)
        for _ in range(20):
            n = rng.randint(3, 15)
            t = random_strong_tournament(n, rng.randint(0, 10**6))
            chain = build_chain(t, kings(t)[0])
            t_back, chain_back = loads_certificate(dumps_certificate(t, chain))
            assert (t_back, chain_back) == (t, chain)

    def test_dumps_matches_stdlib_layout(self):
        # The writer's reference: the stdlib's indent=2, sorted-key rendering
        # of brute.certificate_json. Covers n=3 (no insertions), near-transitive
        # out-sets with several blocks, and random orders up to 200.
        rng = random.Random(29)
        cases = [t for t in enumerate_all(3) if is_strong(t)]
        while len(cases) < 60:
            n = rng.randint(4, 30)
            t = from_edge_list(n, near_transitive(n, 0.85, rng))
            if is_strong(t):
                cases.append(t)
        cases += [random_strong_tournament(n, rng.randint(0, 10**6)) for n in (4, 7, 16, 45, 120, 200)]
        multi_block = 0
        for t in cases:
            for k in kings(t)[:3]:  # a strong 3-vertex tournament has 3 kings
                chain = build_chain(t, k)
                multi_block += len(chain.blocks) > 1
                reference = json.dumps(certificate_json(t, chain), indent=2, sort_keys=True) + "\n"
                assert dumps_certificate(t, chain) == reference
        assert multi_block > 0

    def test_equality_is_the_claim(self, t4a):
        # King, cycles and insertions are compared and hashed; the construction
        # annotations are not, so a loaded chain, which has none, equals the
        # chain it was written from.
        for t in (t4a, random_strong_tournament(12, 1)):
            chain = build_chain(t, kings(t)[0])
            for annotation in ("context", "blocks", "exit_edge", "spine"):
                bare = dataclasses.replace(chain, **{annotation: None})
                assert bare == chain and hash(bare) == hash(chain)
            x, y, z = chain.insertions[-1]
            for claim in (
                {"king": chain.king + 1},
                {"insertions": chain.insertions[:-1] + (Insertion(x, y, z + 1),)},
                {"cycles": (chain.cycles[0][::-1], *chain.cycles[1:])},
            ):
                assert dataclasses.replace(chain, **claim) != chain
            loaded = loads_certificate(dumps_certificate(t, chain))[1]
            assert loaded == chain and hash(loaded) == hash(chain)
            assert (loaded.context, loaded.blocks, loaded.exit_edge, loaded.spine) == (None,) * 4

    @pytest.mark.parametrize("reverse_c4", [False, True])
    def test_older_certificates_with_construction_fields_still_verify(self, reverse_c4):
        # Certificates once also carried A, B, reid_blocks, a_star, b_star and
        # spine, which no check reads. Such a file, with these fields true or
        # junk, loads as the claim alone: it verifies with the report of the
        # claim's own file, and writes back as that file.
        t = random_strong_tournament(8, 1)
        chain = build_chain(t, kings(t)[0])
        if reverse_c4:
            cycles = list(chain.cycles)
            cycles[1] = cycles[1][:1] + cycles[1][:0:-1]
            chain = dataclasses.replace(chain, cycles=tuple(cycles))
        text = dumps_certificate(t, chain)
        report = verify_chain(*loads_certificate(text))
        assert report.passed is not reverse_c4
        true_fields = {
            "A": list(chain.context.out_set),
            "B": list(chain.context.in_set),
            "reid_blocks": [list(block) for block in chain.blocks],
            "a_star": chain.exit_edge.tail,
            "b_star": chain.exit_edge.head,
            "spine": list(chain.spine),
        }
        junk = {"A": [99], "B": {}, "reid_blocks": [{}], "a_star": 1.5, "b_star": None, "spine": ["x"]}
        for fields in (true_fields, junk):
            older = dict(json.loads(text), **fields)
            t_back, chain_back = loads_certificate(json.dumps(older, indent=2, sort_keys=True) + "\n")
            assert verify_chain(t_back, chain_back) == report
            assert dumps_certificate(t_back, chain_back) == text

    def test_vertices_outside_the_order_write_back_as_themselves(self, t4a):
        # The writer's name table covers 0..n-1; a negative or larger vertex
        # of a loaded certificate is still written as its own number, in a
        # cycle and in an insertion record alike.
        cert = json.loads(dumps_certificate(t4a, build_chain(t4a, 1)))
        cert["cycles"][0][1] = -1
        cert["cycles"][1][2] = 99
        cert["insertions"][0].update(x=-1, z=7)
        text = json.dumps(cert, indent=2, sort_keys=True) + "\n"
        assert dumps_certificate(*loads_certificate(text)) == text

    def test_loads_leaves_the_collector_as_it_found_it(self, t4a):
        # The collector sleeps through the JSON parse only, and a collector
        # that was off stays off, also when the text is not JSON.
        text = dumps_certificate(t4a, build_chain(t4a, 1))
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                loads_certificate(text)
                assert gc.isenabled() is enabled
                with pytest.raises(MalformedCertificateError):
                    loads_certificate("not json")
                assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_oversized_order_allocates_by_the_input(self, t4a):
        # The tournament's edge count is compared with C(n, 2) before anything
        # of size n is made; a matrix for n = 10^6 would not fit in memory.
        cert = json.loads(dumps_certificate(t4a, build_chain(t4a, 1)))
        cert["n"] = 1000000
        text = json.dumps(cert)
        tracemalloc.start()
        try:
            with pytest.raises(MissingPairError) as info:
                loads_certificate(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "pair {0, 4} was never oriented"
        assert peak < 1 << 20

    @pytest.mark.parametrize("order", [4, 30])
    def test_edge_shape_errors_name_the_unpacking(self, t4a, order):
        # On both sides of Tournament's unpack cut, the grid declines a first
        # edge that is not a pair and from_edge_list's loop names it.
        assert 4 < _MATRIX_CUT <= 30
        t = t4a if order == 4 else random_strong_tournament(order, 1)
        good = json.loads(dumps_certificate(t, build_chain(t, kings(t)[0])))
        for edge, message in (
            ([0, 1, 2], "too many values to unpack (expected 2)"),
            ([0], "not enough values to unpack (expected 2, got 1)"),
            ([], "not enough values to unpack (expected 2, got 0)"),
        ):
            bad = json.loads(json.dumps(good))
            bad["tournament"][0] = edge
            with pytest.raises(MalformedCertificateError) as info:
                loads_certificate(json.dumps(bad))
            assert str(info.value) == f"certificate missing or mistyped field: {message}"

    def test_edge_faults_are_named_in_input_order(self, t4a):
        # The edges are checked once, by from_edge_list, one at a time: a
        # repeated pair ahead of a wrong-length edge is the fault named.
        cert = json.loads(dumps_certificate(t4a, build_chain(t4a, 1)))
        edges = cert["tournament"]
        edges[1] = list(edges[0])
        edges[5] = [*edges[5], 0]
        u, v = sorted(edges[0])
        with pytest.raises(DuplicatePairError) as info:
            loads_certificate(json.dumps(cert))
        assert str(info.value) == f"pair {{{u}, {v}}} oriented more than once"

    @pytest.mark.parametrize("order", [6, 200])
    def test_edge_vertices_must_be_integers(self, order):
        # At every order the edges go straight to the grid, whose dicts would
        # find true and 1.0 under 1; the type check rejects them first.
        t = random_strong_tournament(order, 1)
        good = json.loads(dumps_certificate(t, build_chain(t, kings(t)[0])))
        i = next(i for i, edge in enumerate(good["tournament"]) if 1 in edge)
        for value in (True, 1.0):
            bad = json.loads(json.dumps(good))
            edge = bad["tournament"][i]
            edge[edge.index(1)] = value
            with pytest.raises(MalformedCertificateError) as info:
                loads_certificate(json.dumps(bad))
            assert str(info.value) == (
                "certificate orders and vertices must be integers, in JSON arrays"
            )

    def test_loads_rejects_garbage(self, t4a):
        with pytest.raises(MalformedCertificateError):
            loads_certificate("not json")
        with pytest.raises(MalformedCertificateError):
            loads_certificate("[1, 2, 3]")
        with pytest.raises(MalformedCertificateError):
            loads_certificate('{"n": 3}')
        # Nested too deeply for the decoder, and an integer past the digit limit.
        with pytest.raises(MalformedCertificateError):
            loads_certificate("[" * 100000)
        with pytest.raises(MalformedCertificateError):
            loads_certificate('{"n": ' + "9" * 5000 + "}")
        good = json.loads(dumps_certificate(t4a, build_chain(t4a, 1)))
        for edit in (
            lambda c: c.update(n=True),
            lambda c: c.update(n=4.0),
            lambda c: c.update(king=1.0),
            lambda c: c.update(king="1"),
            lambda c: c["cycles"][0].__setitem__(1, "3"),
            lambda c: c["cycles"][1].__setitem__(0, True),
            lambda c: c["insertions"][0].update(z=2.0),
            lambda c: c["tournament"][0].__setitem__(1, "1"),
            # An empty object iterates like an empty array, and was written back as one.
            lambda c: c.update(insertions={}),
            lambda c: c["cycles"].__setitem__(1, {}),
            # Each field of the claim is required.
            *(lambda c, key=key: c.pop(key) for key in sorted(CERTIFICATE_KEYS)),
        ):
            bad = json.loads(json.dumps(good))
            edit(bad)
            with pytest.raises(MalformedCertificateError):
                loads_certificate(json.dumps(bad))
