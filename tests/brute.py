"""Tiny set-based reference implementations used as independent test oracles,
plus a generator of near-transitive inputs, which have many strong blocks.

Everything here works off the exported edge list only, with plain dict/set
graph traversal, so a bug in the package's bitmask machinery cannot hide
behind itself.
"""

from __future__ import annotations

from collections import deque


def adjacency(t) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(t.n)}
    for u, v in t.edges():
        adj[u].add(v)
    return adj


def reachable_from(adj: dict[int, set[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def brute_strong(t) -> bool:
    adj = adjacency(t)
    return all(len(reachable_from(adj, v)) == t.n for v in range(t.n))


def brute_strong_subset(t, subset) -> bool:
    verts = set(subset)
    adj = {v: nbrs & verts for v, nbrs in adjacency(t).items() if v in verts}
    return all(len(reachable_from(adj, v)) == len(verts) for v in verts)


def brute_kings(t) -> tuple[int, ...]:
    adj = adjacency(t)
    result = []
    for v in range(t.n):
        two_steps = set(adj[v])
        for w in adj[v]:
            two_steps |= adj[w]
        if len(two_steps - {v}) == t.n - 1:
            result.append(v)
    return tuple(result)


def brute_components(t, subset) -> list[set[int]]:
    """Strong components of the induced subtournament, unordered."""
    verts = set(subset)
    adj = {v: nbrs & verts for v, nbrs in adjacency(t).items() if v in verts}
    radj: dict[int, set[int]] = {v: set() for v in verts}
    for u, nbrs in adj.items():
        for v in nbrs:
            radj[v].add(u)
    leftover = set(verts)
    components = []
    while leftover:
        v = min(leftover)
        comp = reachable_from(adj, v) & reachable_from(radj, v) & leftover
        components.append(comp)
        leftover -= comp
    return components


def brute_exit_edge(t, king: int, start: int) -> tuple[int, int]:
    """Last two vertices before the king on the breadth-first shortest path
    from `start`, neighbors visited in ascending order."""
    adj = adjacency(t)
    parent = {start: start}
    queue = deque([start])
    while king not in parent:
        x = queue.popleft()
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    head = parent[king]
    return parent[head], head


def near_transitive(n: int, p: float, rng) -> list[tuple[int, int]]:
    """Edge list orienting each pair of a random vertex order forward with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    return [
        (u, v) if rng.random() < p else (v, u)
        for i, u in enumerate(order)
        for v in order[i + 1 :]
    ]
