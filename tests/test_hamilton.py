"""Tests for Hamiltonian path and cycle construction."""

import hashlib
import itertools
import random

import pytest

from kingchain import (
    enumerate_all,
    from_edge_list,
    hamiltonian_cycle,
    hamiltonian_path,
    path_ending_at,
    random_tournament,
)
from kingchain.errors import (
    EmptySubsetError,
    InternalContradictionError,
    NotStrongSubsetError,
    OrderTwoSubsetError,
    TargetNotInSubsetError,
    TournamentError,
)
from kingchain.hamilton import splice_slot

from brute import brute_strong_subset


# sha256 of hamiltonian_cycle's output or exception class name on every
# nonempty subset of every tournament of each order, and on 3,000 seeded random
# subsets with n <= 60. Frozen from the code before the mask-tracked growth;
# a refactor must reproduce them.
CYCLE_DIGESTS = {
    1: "a0c83a831e4a1cbcbe67282d5da1f03dae9057a635686e12936747b3f0c7bc9d",
    2: "b1994d01df29355e977c432f730025a01a521ccb7d2aeaee230f01bcef2054da",
    3: "448630bf3186afbacf591d0ebf420b8bd0b641af69cea3699c7115e18a96f37e",
    4: "ed1e2b99b010de8efcbe994b1584905ec854d2728459e9fd7df569592b451bd0",
    5: "f4281324457667db078f2442588ce4063dff816c3646475471e730b10ddb2eec",
    "random": "648f1e0a4b18c7ed0203d96487aaf60f8b0aacb44fdc1ad6884750c27fafabac",
}

# Digests of the same calls for hamiltonian_path, frozen from the code before
# Rédei's single insertion rule replaced the prepend, internal and append slots.
PATH_DIGESTS = {
    1: "a0c83a831e4a1cbcbe67282d5da1f03dae9057a635686e12936747b3f0c7bc9d",
    2: "89aff938c5c78407ef08979db3c8b1163d644c6a2f01aa319fe8a710c27e55b4",
    3: "23c21e4921011b6f6b0a09ab803b2593ed39bcc50691df0f7bec1f1830556695",
    4: "ea647ad2c2bb74e1e88330fc69f998a9aabfa6a52d641ed04f086249b3d0de8d",
    5: "eb9e8135e0b29502227b383f111c8fbb778989323ef565db8c1d54cc173a27b7",
    "random": "c138e32c551cc680078165fce6437116e05e0aef3d467dbc9b7bc7d5e94985a0",
}


def digest(fn, calls):
    h = hashlib.sha256()
    for t, subset in calls:
        try:
            out = repr(fn(t, subset))
        except TournamentError as exc:
            out = type(exc).__name__
        h.update(f"{t.n} {t.bits} {subset} {out}\n".encode())
    return h.hexdigest()


def every_subset(n):
    for t in enumerate_all(n):
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                yield t, subset


def random_subsets(count):
    rng = random.Random(4)
    for _ in range(count):
        n = rng.randint(1, 60)
        t = random_tournament(n, rng.randrange(10**6))
        keep = rng.random()
        yield t, tuple(v for v in range(n) if rng.random() < keep)


def assert_valid_path(t, path, subset):
    assert sorted(path) == sorted(set(subset))
    for u, v in zip(path, path[1:]):
        assert t.beats(u, v), f"{u} -> {v} missing in path {path}"


def assert_valid_cycle(t, cycle, subset):
    assert len(cycle) >= 3
    assert sorted(cycle) == sorted(set(subset))
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        assert t.beats(u, v), f"{u} -> {v} missing in cycle {cycle}"


class TestHamiltonianPath:
    def test_transitive_triangle_unique_path(self, transitive_triangle):
        assert hamiltonian_path(transitive_triangle, [0, 1, 2]) == (0, 1, 2)

    def test_three_cycle(self, three_cycle):
        path = hamiltonian_path(three_cycle, [0, 1, 2])
        assert_valid_path(three_cycle, path, [0, 1, 2])

    def test_singleton(self, t4a):
        assert hamiltonian_path(t4a, [2]) == (2,)

    def test_empty(self, t4a):
        with pytest.raises(EmptySubsetError):
            hamiltonian_path(t4a, [])

    def test_deterministic(self):
        t = random_tournament(20, 3)
        assert hamiltonian_path(t, range(20)) == hamiltonian_path(t, range(20))

    def test_random_subsets(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 40)
            t = random_tournament(n, rng.randint(0, 10**6))
            subset = [v for v in range(n) if rng.random() < 0.6] or [0]
            assert_valid_path(t, hamiltonian_path(t, subset), subset)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_frozen_every_subset(self, n):
        assert digest(hamiltonian_path, every_subset(n)) == PATH_DIGESTS[n]

    def test_frozen_random_subsets(self):
        assert digest(hamiltonian_path, random_subsets(3000)) == PATH_DIGESTS["random"]


class TestHamiltonianCycle:
    def test_three_cycle(self, three_cycle):
        assert hamiltonian_cycle(three_cycle, [0, 1, 2]) == (0, 1, 2)

    def test_singleton(self, t4a):
        assert hamiltonian_cycle(t4a, [3]) == (3,)

    def test_t4a_spanning(self, t4a):
        cycle = hamiltonian_cycle(t4a, range(4))
        assert_valid_cycle(t4a, cycle, range(4))

    def test_order_two(self, t4a):
        with pytest.raises(OrderTwoSubsetError):
            hamiltonian_cycle(t4a, [0, 1])

    def test_not_strong(self, transitive_triangle):
        with pytest.raises(NotStrongSubsetError):
            hamiltonian_cycle(transitive_triangle, [0, 1, 2])
        # Every nonempty subset of every tournament with n <= 5: growth either
        # spans the subset or gets stuck, and it gets stuck exactly when the
        # subset is not strong.
        for n in range(1, 6):
            for t in enumerate_all(n):
                for size in range(1, n + 1):
                    for subset in itertools.combinations(range(n), size):
                        if not brute_strong_subset(t, subset):
                            with pytest.raises(NotStrongSubsetError):
                                hamiltonian_cycle(t, subset)
                        elif size == 1:
                            assert hamiltonian_cycle(t, subset) == subset
                        else:
                            assert_valid_cycle(t, hamiltonian_cycle(t, subset), subset)

    def test_fallback_seed(self):
        # The lowest out-neighbor 1 of vertex 0 beats no in-neighbor of 0, so
        # the seed comes from the pair scan (0 -> 3 -> 2 -> 0, at b = 2), and
        # then 1 is spliced in between 0 and 3.
        t = from_edge_list(4, [(0, 1), (0, 3), (1, 3), (2, 0), (2, 1), (3, 2)])
        assert hamiltonian_cycle(t, range(4)) == (0, 1, 3, 2)

    def test_absorption_of_dominator_and_dominated(self):
        # Vertex 3 beats the whole seed triangle and 4 loses to all of it, so
        # growth must go through the two-vertex absorption step via 4 -> 3.
        t = from_edge_list(
            5,
            [(0, 1), (1, 2), (2, 0),
             (3, 0), (3, 1), (3, 2),
             (0, 4), (1, 4), (2, 4),
             (4, 3)],
        )
        cycle = hamiltonian_cycle(t, range(5))
        assert_valid_cycle(t, cycle, range(5))
        assert cycle == (0, 1, 2, 4, 3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_frozen_every_subset(self, n):
        assert digest(hamiltonian_cycle, every_subset(n)) == CYCLE_DIGESTS[n]

    def test_frozen_random_subsets(self):
        assert digest(hamiltonian_cycle, random_subsets(3000)) == CYCLE_DIGESTS["random"]

    def test_random_strong_subsets(self):
        rng = random.Random(12)
        found = 0
        while found < 150:
            n = rng.randint(3, 30)
            t = random_tournament(n, rng.randint(0, 10**6))
            subset = [v for v in range(n) if rng.random() < 0.7]
            if len(subset) in (0, 2) or not brute_strong_subset(t, subset):
                continue
            found += 1
            cycle = hamiltonian_cycle(t, subset)
            if len(subset) == 1:
                assert cycle == tuple(subset)
            else:
                assert_valid_cycle(t, cycle, subset)


class TestPathEndingAt:
    def test_singleton(self, t4a):
        assert path_ending_at(t4a, [3], 3) == (3,)

    def test_three_cycle_rotation(self, three_cycle):
        assert path_ending_at(three_cycle, [0, 1, 2], 2) == (0, 1, 2)

    def test_target_not_in_subset(self, t4a):
        with pytest.raises(TargetNotInSubsetError):
            path_ending_at(t4a, [0, 1, 2], 3)

    def test_not_strong(self, transitive_triangle, t4a):
        with pytest.raises(NotStrongSubsetError):
            path_ending_at(transitive_triangle, [0, 1, 2], 1)
        # The subset is checked before the target: {0, 2, 3} is transitive in
        # t4a, so that error wins over target 1 lying outside it.
        with pytest.raises(NotStrongSubsetError):
            path_ending_at(t4a, [0, 2, 3], 1)

    def test_two_vertex_subset_is_never_strong(self, t4a):
        with pytest.raises(NotStrongSubsetError):
            path_ending_at(t4a, [0, 1], 1)

    def test_always_ends_at_target(self):
        rng = random.Random(13)
        found = 0
        while found < 100:
            n = rng.randint(3, 25)
            t = random_tournament(n, rng.randint(0, 10**6))
            subset = list(range(n))
            if not brute_strong_subset(t, subset):
                continue
            found += 1
            target = rng.choice(subset)
            path = path_ending_at(t, subset, target)
            assert path[-1] == target
            assert_valid_path(t, path, subset)


class TestSpliceSlot:
    def test_no_slot_for_a_vertex_every_cycle_vertex_beats(self):
        t = from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        with pytest.raises(InternalContradictionError) as info:
            splice_slot(t, (0, 1, 2), 3)
        assert str(info.value) == "no insertion slot for vertex 3"
