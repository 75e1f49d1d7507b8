"""Tests for Hamiltonian paths, and for the chain's last cycle as a Hamiltonian cycle."""

import hashlib
import itertools
import random

import pytest

from kingchain import (
    build_chain,
    enumerate_all,
    from_edge_list,
    kings,
    path_ending_at,
    random_tournament,
)
from kingchain.errors import (
    EmptySubsetError,
    NotStrongError,
    NotStrongSubsetError,
    TargetNotInSubsetError,
    TournamentError,
)
from kingchain.hamilton import hamiltonian_path

from brute import brute_reaches, brute_strong, brute_strong_subset


# sha256 of hamiltonian_path's output or exception class name on every
# nonempty subset of every tournament of each order, and on 3,000 seeded random
# subsets with n <= 60. Frozen from the code before Rédei's single insertion
# rule replaced the prepend, internal and append slots.
PATH_DIGESTS = {
    1: "a0c83a831e4a1cbcbe67282d5da1f03dae9057a635686e12936747b3f0c7bc9d",
    2: "89aff938c5c78407ef08979db3c8b1163d644c6a2f01aa319fe8a710c27e55b4",
    3: "23c21e4921011b6f6b0a09ab803b2593ed39bcc50691df0f7bec1f1830556695",
    4: "ea647ad2c2bb74e1e88330fc69f998a9aabfa6a52d641ed04f086249b3d0de8d",
    5: "eb9e8135e0b29502227b383f111c8fbb778989323ef565db8c1d54cc173a27b7",
    "random": "c138e32c551cc680078165fce6437116e05e0aef3d467dbc9b7bc7d5e94985a0",
}


# Digests of path_ending_at on the same subsets: on every order, with each
# subset vertex as the target and then the lowest vertex outside the subset;
# on the random subsets, with the middle subset vertex and then the lowest
# outside one. Frozen from the first code with Rédei's rule toward the target.
ENDING_DIGESTS = {
    1: "8d59896b4bcb8f9e2aba32fa89ecceae266892223dde94414487ac7ef1338b6b",
    2: "bd117ed70973422ec460bf46c3bfb1a702e245944062f4d974f81655234f8817",
    3: "927e9deeffa2111e498832db1e7f17f9c01d2e35c85408d314badd68e898fe58",
    4: "b0dfb96230b861659d7596ff48bf88827ce75ded1d9de85a0f873b3e12fe199b",
    5: "a63153d29ab9a37bcaf034a19a4e90755006962eedccfce5f2fc2007f1b92b60",
    "random": "74fd7962bff456aea5de13f02ee6e4394eb607e3e8deaa189f3273476a9158d0",
}


def digest(fn, calls):
    h = hashlib.sha256()
    for t, *args in calls:
        try:
            out = repr(fn(t, *args))
        except TournamentError as exc:
            out = type(exc).__name__
        h.update(f"{t.n} {t.bits} {' '.join(map(str, args))} {out}\n".encode())
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


def with_targets(calls, every):
    """Each call once per target: every subset vertex, or only the middle one,
    then the lowest vertex outside the subset, which is n for a full subset."""
    for t, subset in calls:
        outside = min(set(range(t.n + 1)) - set(subset))
        for target in (*(subset if every else subset[len(subset) // 2 :][:1]), outside):
            yield t, subset, target


def checked_path_ending_at(t, subset, target):
    """path_ending_at, checked against the brute reference on the way."""
    outside = target not in subset
    reaches = outside or brute_reaches(t, subset, target)
    try:
        path = path_ending_at(t, subset, target)
    except TargetNotInSubsetError:
        assert outside
        raise
    except NotStrongSubsetError:
        assert not reaches
        raise
    assert not outside and reaches
    assert path[-1] == target
    assert_valid_path(t, path, subset)
    return path


def assert_valid_path(t, path, subset):
    assert sorted(path) == sorted(set(subset))
    for u, v in zip(path, path[1:]):
        assert t.out_masks[u] >> v & 1, f"{u} -> {v} missing in path {path}"


def assert_valid_cycle(t, cycle, subset):
    assert len(cycle) >= 3
    assert sorted(cycle) == sorted(set(subset))
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        assert t.out_masks[u] >> v & 1, f"{u} -> {v} missing in cycle {cycle}"


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
    """A strong tournament's Hamiltonian cycle is its chain's last cycle, Cn."""

    def test_three_cycle(self, three_cycle):
        assert build_chain(three_cycle, 0).cycles[-1] == (0, 1, 2)

    def test_t4a_spanning(self, t4a):
        for k in kings(t4a):
            assert_valid_cycle(t4a, build_chain(t4a, k).cycles[-1], range(4))

    def test_not_strong(self, transitive_triangle):
        with pytest.raises(NotStrongError):
            build_chain(transitive_triangle, 0)
        # Every king of every tournament with 3 <= n <= 5: the chain ends in a
        # Hamiltonian cycle exactly when the tournament is strong (Camion 1959).
        for n in range(3, 6):
            for t in enumerate_all(n):
                for k in kings(t):
                    if brute_strong(t):
                        assert_valid_cycle(t, build_chain(t, k).cycles[-1], range(n))
                    else:
                        with pytest.raises(NotStrongError):
                            build_chain(t, k)

    def test_random_strong_subsets(self):
        # The induced subtournament, relabelled 0..m-1, gives the subset's cycle.
        rng = random.Random(12)
        found = 0
        while found < 150:
            n = rng.randint(3, 30)
            t = random_tournament(n, rng.randint(0, 10**6))
            subset = [v for v in range(n) if rng.random() < 0.7]
            if len(subset) < 3 or not brute_strong_subset(t, subset):
                continue
            found += 1
            m = len(subset)
            pairs = itertools.permutations(range(m), 2)
            edges = [(i, j) for i, j in pairs if t.out_masks[subset[i]] >> subset[j] & 1]
            s = from_edge_list(m, edges)
            cycle = tuple(subset[i] for i in build_chain(s, kings(s)[0]).cycles[-1])
            assert_valid_cycle(t, cycle, subset)


class TestPathEndingAt:
    def test_singleton(self, t4a):
        assert path_ending_at(t4a, [3], 3) == (3,)

    def test_three_cycle_rotation(self, three_cycle):
        # 0 beats no path vertex on the first sweep, so it waits for the second.
        assert path_ending_at(three_cycle, [0, 1, 2], 2) == (0, 1, 2)

    def test_target_not_in_subset(self, t4a):
        with pytest.raises(TargetNotInSubsetError):
            path_ending_at(t4a, [0, 1, 2], 3)

    def test_not_strong(self, transitive_triangle):
        with pytest.raises(NotStrongSubsetError) as info:
            path_ending_at(transitive_triangle, [0, 1, 2], 1)
        assert str(info.value) == "vertex 2 does not reach target 1"

    def test_target_is_checked_before_reach(self, t4a):
        # {0, 2, 3} is transitive in t4a, and target 1 lies outside it.
        with pytest.raises(TargetNotInSubsetError):
            path_ending_at(t4a, [0, 2, 3], 1)

    def test_sink_ends_a_path_of_a_subset_that_is_not_strong(self, transitive_triangle):
        assert path_ending_at(transitive_triangle, [0, 1, 2], 2) == (0, 1, 2)

    def test_two_vertex_subset_ends_at_its_beaten_vertex(self, t4a):
        assert path_ending_at(t4a, [0, 1], 1) == (0, 1)
        with pytest.raises(NotStrongSubsetError) as info:
            path_ending_at(t4a, [0, 1], 0)
        assert str(info.value) == "vertex 1 does not reach target 0"

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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_reference_every_subset(self, n):
        calls = with_targets(every_subset(n), every=True)
        assert digest(checked_path_ending_at, calls) == ENDING_DIGESTS[n]

    def test_matches_reference_random_subsets(self):
        calls = with_targets(random_subsets(3000), every=False)
        assert digest(checked_path_ending_at, calls) == ENDING_DIGESTS["random"]

