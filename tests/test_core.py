"""Tests for tournament construction, generation, enumeration, and export."""

import itertools
import json
import random

import pytest

from kingchain import (
    Tournament,
    enumerate_all,
    export,
    from_edge_list,
    parse_text,
    random_strong_tournament,
    random_tournament,
)
from kingchain.core import mask_to_vertices, pair_count, pair_index
from kingchain.errors import (
    DuplicatePairError,
    MissingPairError,
    OrderTooLargeError,
    OrderTwoImpossibleError,
    SelfLoopError,
    VertexOutOfRangeError,
)

from brute import brute_strong


class TestPairIndexing:
    def test_pair_count(self):
        assert [pair_count(n) for n in range(1, 6)] == [0, 1, 3, 6, 10]

    def test_lexicographic_order(self):
        n = 5
        expected = list(itertools.combinations(range(n), 2))
        got = sorted(range(pair_count(n)))
        assert [pair_index(u, v, n) for u, v in expected] == got

    def test_symmetric(self):
        assert pair_index(3, 1, 5) == pair_index(1, 3, 5)


class TestFromEdgeList:
    def test_three_cycle(self):
        t = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        assert t.beats(0, 1) and t.beats(1, 2) and t.beats(2, 0)
        assert not t.beats(1, 0)

    def test_transitive_triangle(self):
        t = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert list(t.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_missing_pair(self):
        with pytest.raises(MissingPairError, match=r"\{0, 2\}"):
            from_edge_list(3, [(0, 1), (1, 2)])

    def test_duplicate_pair(self):
        with pytest.raises(DuplicatePairError):
            from_edge_list(3, [(0, 1), (1, 0), (1, 2), (2, 0)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            from_edge_list(3, [(0, 0), (0, 1), (1, 2), (2, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            from_edge_list(3, [(0, 3), (0, 1), (1, 2)])

    def test_single_vertex(self):
        t = from_edge_list(1, [])
        assert t.n == 1 and t.bits == 0


class TestRandomTournament:
    def test_single_vertex(self):
        assert random_tournament(1, 99).n == 1

    def test_deterministic(self):
        assert random_tournament(5, 7) == random_tournament(5, 7)
        assert random_tournament(5, 7).bits == random_tournament(5, 7).bits

    def test_seed_is_free(self):
        # Different seeds are allowed to collide; only determinism is promised.
        random_tournament(5, 8)


class TestRandomStrongTournament:
    def test_order_three_is_one_of_the_two_cycles(self):
        strong_bits = {t.bits for t in enumerate_all(3) if brute_strong(t)}
        assert len(strong_bits) == 2
        for seed in range(20):
            assert random_strong_tournament(3, seed).bits in strong_bits

    def test_order_two_impossible(self):
        with pytest.raises(OrderTwoImpossibleError):
            random_strong_tournament(2, 1)

    def test_postcondition_and_determinism(self):
        t = random_strong_tournament(10, 1)
        assert brute_strong(t)
        assert t == random_strong_tournament(10, 1)

    def test_single_vertex(self):
        assert random_strong_tournament(1, 3).n == 1


class TestEnumerateAll:
    def test_counts(self):
        assert sum(1 for _ in enumerate_all(2)) == 2
        assert sum(1 for _ in enumerate_all(3)) == 8
        assert sum(1 for _ in enumerate_all(4)) == 64

    def test_distinct_and_indexed(self):
        seen = {t.bits for t in enumerate_all(3)}
        assert seen == set(range(8))

    def test_strong_count_order_four(self):
        assert sum(1 for t in enumerate_all(4) if brute_strong(t)) == 24

    def test_range_split(self):
        whole = [t.bits for t in enumerate_all(4)]
        parts = [t.bits for t in enumerate_all(4, 0, 20)]
        parts += [t.bits for t in enumerate_all(4, 20, 64)]
        assert parts == whole

    def test_order_too_large(self):
        with pytest.raises(OrderTooLargeError):
            list(enumerate_all(9))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            list(enumerate_all(3, 5, 3))


class TestExport:
    def test_text_exact(self, three_cycle):
        assert export(three_cycle, "text") == "3\n0 1\n1 2\n2 0\n"

    def test_text_round_trip(self, t4a):
        assert parse_text(export(t4a, "text")) == t4a

    def test_round_trip_random(self):
        for seed in range(100):
            t = random_tournament(random.Random(seed).randint(1, 15), seed)
            assert parse_text(export(t, "text")) == t

    def test_json(self, t4a):
        obj = json.loads(export(t4a, "json"))
        assert obj["n"] == 4
        assert len(obj["edges"]) == 6
        assert [0, 1] in obj["edges"]

    def test_dot(self, three_cycle):
        dot = export(three_cycle, "dot")
        assert dot.startswith("digraph")
        assert "0 -> 1;" in dot and "2 -> 0;" in dot
        assert dot.rstrip().endswith("}")

    def test_unknown_format(self, three_cycle):
        with pytest.raises(ValueError):
            export(three_cycle, "yaml")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_text("")
        with pytest.raises(ValueError):
            parse_text("3\n0 x\n")
        with pytest.raises(ValueError):
            parse_text("3\n0 1\n1 2\n2\n")
        with pytest.raises(MissingPairError):
            parse_text("3\n0 1\n1 2\n")


class TestTournamentValue:
    def test_immutable(self, t4a):
        with pytest.raises(AttributeError):
            t4a.n = 5

    def test_mask_to_vertices(self):
        assert mask_to_vertices(0b101001) == (0, 3, 5)
        assert mask_to_vertices(0) == ()

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            Tournament(3, 8)
        with pytest.raises(ValueError):
            Tournament(0, 0)

    def test_out_degree_sum(self):
        t = random_tournament(12, 5)
        assert sum(t.out_degree(v) for v in range(t.n)) == pair_count(t.n)
