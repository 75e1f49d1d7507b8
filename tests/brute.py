"""Tiny set-based reference implementations used as independent test oracles,
plus a generator of near-transitive inputs, which have many strong blocks.

The graph references work off `edges(t)`, which reads the packed bits one
pair at a time through `brute_out_masks` and never the package's unpacked
`out_masks`, with plain dict/set graph traversal, so a bug in the package's
bitmask machinery cannot hide behind itself. `brute_out_masks` is also the
reference for the unpacking in `Tournament`, `brute_read` for the readers
`from_edge_list` and `parse_text`, and `certificate_json` for the
certificate writer. The exception is `brute_verify_chain`, which
rechecks every cycle literally on `t.out_masks`, as the reference for the
oracle's inductive verifier.
"""

from __future__ import annotations

import itertools

from kingchain.core import Tournament
from kingchain.errors import (
    DuplicatePairError,
    MalformedCertificateError,
    MissingPairError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from kingchain.oracle import CycleCheck, VerificationReport


def brute_out_masks(n: int, bits: int) -> tuple[int, ...]:
    """Out-neighborhood bitmasks, read one pair at a time in lexicographic order."""
    masks = [0] * n
    p = 0
    for u in range(n - 1):
        for v in range(u + 1, n):
            if bits >> p & 1:
                masks[u] |= 1 << v
            else:
                masks[v] |= 1 << u
            p += 1
    return tuple(masks)


def brute_read(n: int, edges) -> Tournament:
    """Tournament from oriented edges (u, v), read one pair at a time into a dict.

    The reference for `from_edge_list` and `parse_text`: the first faulty
    edge in input order raises, and then the first pair never oriented in
    lexicographic order, each with the package's error and message.
    """
    if n < 1:
        raise ValueError(f"tournament order must be >= 1, got {n}")
    lower_first: dict[tuple[int, int], bool] = {}
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside order {n}")
        pair = (min(u, v), max(u, v))
        if pair in lower_first:
            raise DuplicatePairError(f"pair {{{pair[0]}, {pair[1]}}} oriented more than once")
        lower_first[pair] = u < v
    bits = 0
    for p, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        if (u, v) not in lower_first:
            raise MissingPairError(f"pair {{{u}, {v}}} was never oriented")
        bits |= lower_first[u, v] << p
    return Tournament(n, bits)


def edges(t) -> list[tuple[int, int]]:
    """Oriented edges (u, v), one per pair, ascending by (u, then v)."""
    masks = brute_out_masks(t.n, t.bits)
    return [(u, v) for u in range(t.n) for v in range(t.n) if masks[u] >> v & 1]


def certificate_json(t, chain) -> dict:
    """Certificate fields as a JSON-ready dict; `dumps_certificate` must write
    `json.dumps(certificate_json(t, chain), indent=2, sort_keys=True) + "\\n"`."""
    return {
        "n": t.n,
        "king": chain.king,
        "A": list(chain.context.out_set),
        "B": list(chain.context.in_set),
        "reid_blocks": [list(block) for block in chain.blocks],
        "a_star": chain.exit_edge.tail,
        "b_star": chain.exit_edge.head,
        "spine": list(chain.spine),
        "cycles": [list(cycle) for cycle in chain.cycles],
        "insertions": [{"x": r.x, "y": r.y, "z": r.z} for r in chain.insertions],
        "tournament": [[u, v] for u, v in edges(t)],
    }


def adjacency(t) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(t.n)}
    for u, v in edges(t):
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


def brute_reaches(t, subset, target) -> bool:
    """True iff every vertex of `subset` reaches `target` inside it; `target` in `subset`."""
    verts = set(subset)
    radj: dict[int, set[int]] = {v: set() for v in verts}
    for u, v in edges(t):
        if u in verts and v in verts:
            radj[v].add(u)
    return reachable_from(radj, target) == verts


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


def brute_exit_edge(t, king: int) -> tuple[int, int]:
    """Lowest edge (a, b), by a then b, from the last strong block of the king's
    out-set, the component that beats no other out-set vertex, into the in-set."""
    adj = adjacency(t)
    out_set = adj[king]
    in_set = set(range(t.n)) - out_set - {king}
    last = next(
        c for c in brute_components(t, out_set) if not any(adj[v] & (out_set - c) for v in c)
    )
    return min((a, b) for a in last for b in adj[a] & in_set)


def near_transitive(n: int, p: float, rng) -> list[tuple[int, int]]:
    """Edge list orienting each pair of a random vertex order forward with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    return [
        (u, v) if rng.random() < p else (v, u)
        for i, u in enumerate(order)
        for v in order[i + 1 :]
    ]


def _two_step_misses(out_masks, king, verts):
    km = out_masks[king]
    reached = km | 1 << king
    members = 0
    for w in verts:
        members |= 1 << w
        if km >> w & 1:
            reached |= out_masks[w]
    return members, members & ~reached


def _is_directed_cycle(out_masks, cyc) -> bool:
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return False
    prev = cyc[-1]
    for v in cyc:
        if not out_masks[prev] >> v & 1:
            return False
        prev = v
    return True


def brute_verify_chain(t, chain) -> VerificationReport:
    """Every certificate clause checked literally on every cycle and record."""
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
    for cyc in cycles:
        for v in cyc:
            if not 0 <= v < n:
                raise MalformedCertificateError(f"cycle vertex {v} outside order {n}")
    for rec in records:
        for v in rec:
            if not 0 <= v < n:
                raise MalformedCertificateError(f"insertion vertex {v} outside order {n}")

    out_masks = t.out_masks
    first_failure = None
    cycle_checks = []
    vertex_masks = []
    for j, cyc in enumerate(cycles):
        want = j + 3
        size = len(cyc)
        is_cycle = _is_directed_cycle(out_masks, cyc)
        correct_length = size == want
        contains_king = k in cyc
        members, missed = _two_step_misses(out_masks, k, cyc)
        vertex_masks.append(members)
        king_of_induced = contains_king and not missed
        check = CycleCheck(want, is_cycle, correct_length, contains_king, king_of_induced)
        cycle_checks.append(check)
        if first_failure is None and not check.passed:
            if not is_cycle:
                first_failure = f"C{want}: not a directed cycle of the tournament"
            elif not correct_length:
                first_failure = f"C{want}: length {size}, expected {want}"
            elif not contains_king:
                first_failure = f"C{want}: king {k} missing"
            else:
                first_failure = f"C{want}: {k} is not a king of the induced subtournament"

    insertion_checks = []
    for j, rec in enumerate(records):
        prev = cycles[j]
        size = len(prev)
        consecutive = any(
            prev[i] == rec.x and prev[(i + 1) % size] == rec.y for i in range(size)
        )
        edges_exist = bool(out_masks[rec.x] >> rec.z & 1 and out_masks[rec.z] >> rec.y & 1)
        fresh = not vertex_masks[j] >> rec.z & 1
        linked = vertex_masks[j + 1] == vertex_masks[j] | 1 << rec.z
        ok = consecutive and edges_exist and fresh and linked
        insertion_checks.append(ok)
        if first_failure is None and not ok:
            label = f"C{j + 3}->C{j + 4}"
            if not consecutive:
                first_failure = f"{label}: ({rec.x}, {rec.y}) not consecutive"
            elif not edges_exist:
                first_failure = f"{label}: edges via {rec.z} missing"
            elif not fresh:
                first_failure = f"{label}: vertex {rec.z} not fresh"
            else:
                first_failure = f"{label}: vertex sets do not differ by exactly {{{rec.z}}}"

    return VerificationReport(
        cycle_checks=tuple(cycle_checks),
        insertion_checks=tuple(insertion_checks),
        passed=first_failure is None,
        first_failure=first_failure,
    )
