"""Tests for strong connectivity, condensation, and king queries."""

import itertools
import random

import pytest

from kingchain import (
    condensation,
    enumerate_all,
    from_edge_list,
    is_king,
    is_strong,
    king_context,
    kings,
    random_strong_tournament,
    random_tournament,
)
from kingchain.errors import (
    EmptySubsetError,
    NotAKingError,
    OrderTooSmallError,
    VertexOutOfRangeError,
)

from brute import (
    brute_components,
    brute_kings,
    brute_strong,
    brute_strong_subset,
    near_transitive,
)


class TestIsStrong:
    def test_three_cycle(self, three_cycle):
        assert is_strong(three_cycle)

    def test_transitive_triangle(self, transitive_triangle):
        assert not is_strong(transitive_triangle)

    def test_t4a(self, t4a):
        assert is_strong(t4a)

    def test_tiny_orders(self):
        assert is_strong(from_edge_list(1, []))
        assert not is_strong(from_edge_list(2, [(0, 1)]))

    def test_matches_brute_exhaustively(self):
        for n in range(1, 7):
            for t in enumerate_all(n):
                assert is_strong(t) == brute_strong(t)

    def test_matches_brute_at_order_200(self):
        # Uniform draws are strong. In a split draw the vertices below the cut,
        # relabelled at random, beat all the others, so it is not.
        rng = random.Random(31)
        draws = [random_tournament(200, seed) for seed in range(3)]
        for cut in (1, 100, 199):
            perm = rng.sample(range(200), 200)
            pairs = itertools.combinations(range(200), 2)
            edges = [(u, v) if u < cut <= v or rng.random() < 0.5 else (v, u) for u, v in pairs]
            draws.append(from_edge_list(200, [(perm[u], perm[v]) for u, v in edges]))
        verdicts = [is_strong(t) for t in draws]
        assert verdicts == [brute_strong(t) for t in draws]
        assert True in verdicts and False in verdicts


class TestCondensation:
    def test_strong_is_single_block(self, three_cycle):
        assert condensation(three_cycle, [0, 1, 2]) == ((0, 1, 2),)

    def test_transitive_is_singletons(self, transitive_triangle):
        assert condensation(transitive_triangle, [0, 1, 2]) == ((0,), (1,), (2,))

    def test_t4a_out_set_of_king_one(self, t4a):
        assert condensation(t4a, [2, 3]) == ((2,), (3,))

    def test_empty_subset(self, t4a):
        with pytest.raises(EmptySubsetError):
            condensation(t4a, [])

    def test_subset_out_of_range(self, three_cycle):
        with pytest.raises(VertexOutOfRangeError):
            condensation(three_cycle, [0, 5])

    def test_blocks_match_brute_components(self):
        # Near-transitive inputs have many blocks, so block order matters.
        rng = random.Random(4)
        for trial in range(600):
            n = rng.randint(1, 12)
            if trial < 150:
                t = random_tournament(n, rng.randint(0, 10**6))
            else:
                t = from_edge_list(n, near_transitive(n, (0.8, 0.9, 1.0)[trial % 3], rng))
            subset = [v for v in range(n) if rng.random() < 0.7] or [0]
            blocks = condensation(t, subset)
            assert sorted(map(set, blocks), key=min) == sorted(
                brute_components(t, subset), key=min
            )
            for i, earlier in enumerate(blocks):
                for later in blocks[i + 1 :]:
                    assert all(t.out_masks[u] >> v & 1 for u in earlier for v in later)

    def test_cross_edges_point_forward(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 14)
            t = random_tournament(n, rng.randint(0, 10**6))
            blocks = condensation(t, range(n))
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    for u in blocks[i]:
                        for v in blocks[j]:
                            assert t.out_masks[u] >> v & 1

    def test_no_block_of_size_two(self):
        for n in range(1, 6):
            for t in enumerate_all(n):
                assert all(len(b) != 2 for b in condensation(t, range(n)))

    def test_blocks_are_strong_and_partition(self):
        rng = random.Random(6)
        for _ in range(80):
            n = rng.randint(1, 12)
            t = random_tournament(n, rng.randint(0, 10**6))
            blocks = condensation(t, range(n))
            assert sorted(v for b in blocks for v in b) == list(range(n))
            for b in blocks:
                assert brute_strong_subset(t, b)


class TestKings:
    def test_three_cycle_all_kings(self, three_cycle):
        assert kings(three_cycle) == (0, 1, 2)

    def test_transitive_source_only(self, transitive_triangle):
        assert kings(transitive_triangle) == (0,)
        assert is_king(transitive_triangle, 0)
        assert not is_king(transitive_triangle, 2)

    def test_t4a(self, t4a):
        assert kings(t4a) == (0, 1, 2)
        assert not is_king(t4a, 3)

    def test_out_of_range(self, t4a):
        with pytest.raises(VertexOutOfRangeError):
            is_king(t4a, -1)

    def test_matches_brute_exhaustively(self):
        for n in range(1, 6):
            for t in enumerate_all(n):
                assert kings(t) == brute_kings(t)

    def test_never_empty_and_contains_max_out_degree(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 40)
            t = random_tournament(n, rng.randint(0, 10**6))
            ks = kings(t)
            assert ks
            best = max(range(n), key=t.out_degree)
            assert best in ks


class TestKingContext:
    def test_three_cycle(self, three_cycle):
        ctx = king_context(three_cycle, 0)
        assert (ctx.out_set, ctx.in_set, len(ctx.out_set)) == ((1,), (2,), 1)

    def test_t4a(self, t4a):
        ctx = king_context(t4a, 1)
        assert ctx.out_set == (2, 3)
        assert ctx.in_set == (0,)
        assert len(ctx.out_set) == 2

    def test_not_a_king(self, t4a):
        with pytest.raises(NotAKingError):
            king_context(t4a, 3)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            king_context(from_edge_list(1, []), 0)

    def test_partition_and_in_set_coverage(self):
        # In a strong tournament both sides are nonempty and every in-set
        # vertex is beaten by some out-set vertex.
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(3, 20)
            t = random_strong_tournament(n, rng.randint(0, 10**6))
            for k in kings(t):
                ctx = king_context(t, k)
                assert set(ctx.out_set) | set(ctx.in_set) | {k} == set(range(n))
                assert not set(ctx.out_set) & set(ctx.in_set)
                assert ctx.out_set and ctx.in_set
                for b in ctx.in_set:
                    assert any(t.out_masks[a] >> b & 1 for a in ctx.out_set)
