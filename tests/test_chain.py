"""Tests for the cycle-chain construction and its certificate format."""

import json
import random

import pytest

from kingchain import (
    ExitEdge,
    Insertion,
    build_chain,
    build_ladder,
    certificate_json,
    condensation,
    dumps_certificate,
    extend_cycle,
    find_exit_edge,
    from_edge_list,
    is_strong,
    king_context,
    kings,
    loads_certificate,
    random_strong_tournament,
    spine_path,
)
from kingchain.errors import (
    CycleAlreadySpanningError,
    MalformedCertificateError,
    NotAKingError,
    NotStrongError,
    OrderTooSmallError,
)

from brute import brute_exit_edge, near_transitive

CERTIFICATE_KEYS = {
    "n", "king", "A", "B", "reid_blocks", "a_star", "b_star",
    "spine", "cycles", "insertions", "tournament",
}


def context_and_blocks(t, k):
    ctx = king_context(t, k)
    return ctx, condensation(t, ctx.out_set)


class TestFindExitEdge:
    def test_three_cycle_forced(self, three_cycle):
        ctx, blocks = context_and_blocks(three_cycle, 0)
        assert find_exit_edge(three_cycle, ctx, blocks) == ExitEdge(tail=1, head=2)

    def test_t4a(self, t4a):
        ctx, blocks = context_and_blocks(t4a, 1)
        assert find_exit_edge(t4a, ctx, blocks) == ExitEdge(tail=3, head=0)

    def test_exit_edge_wellformed(self):
        # Near-transitive inputs put the exit tail deeper inside the last
        # block, where the search order decides which tail comes first.
        rng = random.Random(21)
        for trial in range(240):
            if trial < 80:
                t = random_strong_tournament(rng.randint(3, 25), rng.randint(0, 10**6))
            else:
                n = rng.randint(3, 40)
                t = from_edge_list(n, near_transitive(n, 0.9, rng))
                if not is_strong(t):
                    continue
            for k in kings(t):
                ctx, blocks = context_and_blocks(t, k)
                exit_edge = find_exit_edge(t, ctx, blocks)
                assert exit_edge.tail in blocks[-1]
                assert exit_edge.head in ctx.in_set
                assert t.beats(exit_edge.tail, exit_edge.head)
                assert t.beats(exit_edge.head, k)
                # Shortest-path minimality: a direct edge from the scan start
                # into the in-set forces the degenerate two-edge shape.
                start = blocks[-1][0]
                if any(t.beats(start, b) for b in ctx.in_set):
                    assert exit_edge.tail == start
                assert (exit_edge.tail, exit_edge.head) == brute_exit_edge(t, k, start)


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
                assert t.beats(u, v)


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
            assert t.beats(rec.x, rec.z) and t.beats(rec.z, rec.y)


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
                d = chain.context.out_degree
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


class TestCertificate:
    def test_keys(self, t4a):
        obj = certificate_json(t4a, build_chain(t4a, 1))
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

    def test_loads_rejects_garbage(self, t4a):
        with pytest.raises(MalformedCertificateError):
            loads_certificate("not json")
        with pytest.raises(MalformedCertificateError):
            loads_certificate("[1, 2, 3]")
        with pytest.raises(MalformedCertificateError):
            loads_certificate('{"n": 3}')
        good = certificate_json(t4a, build_chain(t4a, 1))
        for edit in (
            lambda c: c.update(n=True),
            lambda c: c.update(n=4.0),
            lambda c: c.update(king=1.0),
            lambda c: c.update(king="1"),
            lambda c: c["cycles"][0].__setitem__(1, "3"),
            lambda c: c["cycles"][1].__setitem__(0, True),
            lambda c: c["insertions"][0].update(z=2.0),
            lambda c: c["tournament"][0].__setitem__(1, "1"),
        ):
            bad = json.loads(json.dumps(good))
            edit(bad)
            with pytest.raises(MalformedCertificateError):
                loads_certificate(json.dumps(bad))
