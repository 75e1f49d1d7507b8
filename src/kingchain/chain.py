"""Constructing a chain of cycles C_3..C_n that all keep one king on top.

Given a strong tournament and any king k, the construction produces directed
cycles of every length from 3 to n, each obtained from the previous one by
splicing a single new vertex into one edge, such that k is a king of the
subtournament induced by every cycle's vertex set. The steps:

  1. Split the vertices around k into its out-set and in-set and condense
     the out-set into domination-ordered strong blocks.
  2. Find an exit edge from the last block into the in-set by following a
     shortest path from the last block back to k; the path stays inside the
     last block up to the exit edge, since that block beats no other
     out-set vertex.
  3. Lay a spine: a Hamiltonian path through the whole out-set ending at the
     exit edge's tail.
  4. Build the ladder: cycle i+2 is k, the last i spine vertices, the exit
     head, back to k. Consecutive ladder cycles differ by one vertex
     prepended right after k.
  5. Extend past the ladder one vertex at a time; every leftover vertex is
     in the in-set, so it points back at k and some cycle vertex beats it,
     which guarantees a splice slot.

Every choice is lowest-index-first, so certificates are reproducible
byte for byte.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, NamedTuple

from .analysis import KingContext, condensation, king_context
from .core import Tournament, from_edge_list, mask_to_vertices
from .errors import (
    CycleAlreadySpanningError,
    InternalContradictionError,
    MalformedCertificateError,
    OrderTooSmallError,
)
from .hamilton import hamiltonian_path, path_ending_at


@dataclass(frozen=True)
class ExitEdge:
    """Edge from the last condensation block of the out-set into the in-set.

    `tail` lies in the last block, `head` in the in-set, and head -> king
    closes the triangle king -> tail -> head -> king.
    """

    tail: int
    head: int


class Insertion(NamedTuple):
    """Edge (x, y) of the previous cycle replaced by (x, z), (z, y)."""

    x: int
    y: int
    z: int


@dataclass(frozen=True)
class CycleChain:
    """Full certificate of one construction run.

    cycles[i] has length i + 3, starts at the king, and its vertex set grows
    by exactly insertions[i - 1].z from cycles[i - 1].
    """

    king: int
    cycles: tuple[tuple[int, ...], ...]
    insertions: tuple[Insertion, ...]
    context: KingContext
    blocks: tuple[tuple[int, ...], ...]
    exit_edge: ExitEdge
    spine: tuple[int, ...]


def find_exit_edge(
    t: Tournament, ctx: KingContext, blocks: tuple[tuple[int, ...], ...]
) -> ExitEdge:
    """Locate the exit edge on a shortest path from the last block to the king.

    Breadth-first search from the lowest vertex of the last block, neighbors
    in ascending order, stays inside that block: every edge leaving the last
    block of the out-set enters the in-set, and every in-set vertex beats the
    king. The first dequeued vertex with an in-set out-neighbor is the tail;
    its lowest such out-neighbor is the head.
    """
    out_masks = t.out_masks
    in_mask = ~(out_masks[ctx.king] | 1 << ctx.king)
    block_mask = 0
    for v in blocks[-1]:
        block_mask |= 1 << v
    # Dequeue in discovery order; scanning each level in ascending index
    # instead would pick a different tail on some tournaments.
    queue = [blocks[-1][0]]
    seen = 1 << queue[0]
    for v in queue:
        hits = out_masks[v] & in_mask
        if hits:
            return ExitEdge(tail=v, head=(hits & -hits).bit_length() - 1)
        fresh = out_masks[v] & block_mask & ~seen
        seen |= fresh
        queue.extend(mask_to_vertices(fresh))
    raise InternalContradictionError("last block has no edge into the in-set; not strong?")


def spine_path(
    t: Tournament,
    ctx: KingContext,
    blocks: tuple[tuple[int, ...], ...],
    exit_edge: ExitEdge,
) -> tuple[int, ...]:
    """Hamiltonian path through the whole out-set ending at the exit tail.

    A path through the union of all blocks but the last concatenates with a
    path through the last block: every edge between an earlier block and the
    last one points into the last one.
    """
    front = [v for block in blocks[:-1] for v in block]
    lead: tuple[int, ...] = hamiltonian_path(t, front) if front else ()
    rear = path_ending_at(t, blocks[-1], exit_edge.tail)
    return lead + rear


def build_ladder(
    ctx: KingContext, spine: tuple[int, ...], exit_edge: ExitEdge
) -> tuple[list[tuple[int, ...]], list[Insertion]]:
    """Cycles of lengths 3..len(spine)+2 threaded through king and exit head.

    Cycle i walks king -> (last i spine vertices) -> exit head -> king, so
    each cycle prepends one more spine vertex right after the king; those
    prepends are returned as the linking insertion records.
    """
    k = ctx.king
    head = exit_edge.head
    d = len(spine)
    cycles = [(k,) + spine[d - i :] + (head,) for i in range(1, d + 1)]
    inserts = [Insertion(x=k, y=spine[d - i], z=spine[d - i - 1]) for i in range(1, d)]
    return cycles, inserts


def extend_cycle(
    t: Tournament, ctx: KingContext, cycle: tuple[int, ...]
) -> tuple[tuple[int, ...], Insertion]:
    """Splice the lowest outside vertex into the first edge that accepts it.

    The cycle must start at the king and already contain the whole out-set,
    so every outside vertex z is an in-neighbor of the king: z points at the
    king on the cycle, and kingship supplies an out-set vertex beating z.
    Walking the cycle from the king therefore meets a switch edge (x, y)
    with x -> z -> y.
    """
    n = t.n
    if len(cycle) == n:
        raise CycleAlreadySpanningError("cycle already visits every vertex")
    if cycle[0] != ctx.king:
        raise ValueError("cycle must start at the king")
    present = 0
    for v in cycle:
        present |= 1 << v
    missing = ((1 << n) - 1) & ~present
    z = (missing & -missing).bit_length() - 1
    out_masks = t.out_masks
    zm = out_masks[z]
    size = len(cycle)
    for i in range(size):
        x, y = cycle[i], cycle[(i + 1) % size]
        if out_masks[x] >> z & 1 and zm >> y & 1:
            return cycle[: i + 1] + (z,) + cycle[i + 1 :], Insertion(x=x, y=y, z=z)
    raise InternalContradictionError(f"no insertion slot for vertex {z}")


def build_chain(t: Tournament, k: int) -> CycleChain:
    """Run the whole construction for king k of a strong tournament.

    Returns the certificate: cycles C_3..C_n, the insertion linking each
    cycle to the next, and the intermediate construction data.
    """
    if t.n < 3:
        raise OrderTooSmallError(f"chain construction needs order >= 3, got {t.n}")
    ctx = king_context(t, k)
    blocks = condensation(t, ctx.out_set)
    exit_edge = find_exit_edge(t, ctx, blocks)
    spine = spine_path(t, ctx, blocks, exit_edge)
    cycles, inserts = build_ladder(ctx, spine, exit_edge)
    current = cycles[-1]
    while len(current) < t.n:
        current, record = extend_cycle(t, ctx, current)
        cycles.append(current)
        inserts.append(record)
    return CycleChain(
        king=k,
        cycles=tuple(cycles),
        insertions=tuple(inserts),
        context=ctx,
        blocks=blocks,
        exit_edge=exit_edge,
        spine=spine,
    )


def certificate_json(t: Tournament, chain: CycleChain) -> dict[str, Any]:
    """Certificate as a JSON-ready dict; the contract consumed by verification."""
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
        "tournament": [[u, v] for u, v in t.edges()],
    }


def certificate_from_json(obj: dict[str, Any]) -> tuple[Tournament, CycleChain]:
    """Inverse of certificate_json; round-trips losslessly.

    The order, the king, every cycle vertex, every insertion field and every
    tournament endpoint must be a JSON integer.
    """
    try:
        edges, cycles = obj["tournament"], obj["cycles"]
        records = [(r["x"], r["y"], r["z"]) for r in obj["insertions"]]
        # JSON booleans decode to bool, a subclass of int; neither they nor
        # floats or strings may stand for an order or a vertex.
        values = itertools.chain((obj["n"], obj["king"]), *edges, *cycles, *records)
        if not set(map(type, values)) <= {int}:
            raise MalformedCertificateError("certificate orders and vertices must be integers")
        t = from_edge_list(obj["n"], [(u, v) for u, v in edges])
        chain = CycleChain(
            king=obj["king"],
            cycles=tuple(tuple(c) for c in cycles),
            insertions=tuple(Insertion(*r) for r in records),
            context=KingContext(
                king=obj["king"],
                out_set=tuple(obj["A"]),
                in_set=tuple(obj["B"]),
            ),
            blocks=tuple(tuple(b) for b in obj["reid_blocks"]),
            exit_edge=ExitEdge(tail=obj["a_star"], head=obj["b_star"]),
            spine=tuple(obj["spine"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificateError(f"certificate missing or mistyped field: {exc}") from exc
    return t, chain


def dumps_certificate(t: Tournament, chain: CycleChain) -> str:
    """Serialize deterministically; identical chains give identical bytes."""
    return json.dumps(certificate_json(t, chain), indent=2, sort_keys=True) + "\n"


def loads_certificate(text: str) -> tuple[Tournament, CycleChain]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCertificateError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedCertificateError("certificate must be a JSON object")
    return certificate_from_json(obj)
