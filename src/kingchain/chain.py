"""Constructing a chain of cycles C_3..C_n that all keep one king on top.

Given a strong tournament and any king k, the construction produces directed
cycles of every length from 3 to n, each obtained from the previous one by
splicing a single new vertex into one edge, such that k is a king of the
subtournament induced by every cycle's vertex set. The steps:

  1. Split the vertices around k into its out-set and in-set and condense
     the out-set into domination-ordered strong blocks.
  2. Find an exit edge from the last block into the in-set: the lowest
     last-block vertex with an in-set out-neighbor, and its lowest one. No
     such edge exists exactly when the tournament is not strong, so this
     step is also the strong test.
  3. Lay a spine: a Hamiltonian path through the whole out-set ending at the
     exit edge's tail, by Rédei's rule toward it. Every out-set vertex
     reaches the last block, which is strong, so reaches that tail.
  4. Start from C3 = (k, spine tail, exit head) and splice one vertex at a
     time on a successor array: the spine, last but one back to first, then
     the in-set minus the exit head in ascending order. Each splice walks
     the cycle from k to the first edge (x, y) with x -> z -> y and sets
     succ[x], succ[z] = z, y, which the record (x, y, z) keeps; `_splice`
     is that walk, and `extend_cycle` runs it too, on a cycle tuple. A spine
     vertex takes the king's own edge, since k beats it and it beats the
     spine vertex after it. An in-set vertex points back at k, and by
     kingship an out-set vertex on the cycle beats it, so it has a slot.
  5. The chain is C3 plus those records; the cycles C3..Cn are a view that
     builds its tuples from them on the first read.

No step re-checks strong connectivity up front. Every choice is
lowest-index-first, so certificates are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import KingContext, condensation, king_context
from .core import Tournament, edge_rows, from_edge_list
from .errors import (
    CycleAlreadySpanningError,
    InternalContradictionError,
    MalformedCertificateError,
    NotStrongError,
)
from .hamilton import path_ending_at


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


class SplicedCycles(Sequence):
    """The cycles C3..Cn of a chain, read off C3 and its insertion records.

    C_{i+1} is C_i with z spliced in right after x, for the record (x, y, z)
    that links them. The tuples are built once, on the first read; `len`
    needs none. It reads as a tuple of tuples: a slice is a tuple, and it
    compares and hashes like the tuple it stands for. A record whose x is
    not on the cycle before it raises `MalformedCertificateError` on that
    first read.
    """

    __slots__ = ("c3", "records", "_cycles")

    def __init__(self, c3: tuple[int, ...], records: tuple[Insertion, ...]):
        self.c3 = c3
        self.records = records
        self._cycles: tuple[tuple[int, ...], ...] | None = None

    def _derive(self) -> tuple[tuple[int, ...], ...]:
        if self._cycles is None:
            cycle = list(self.c3)
            cycles = [self.c3]
            for j, (x, _, z) in enumerate(self.records, 3):
                try:
                    cycle.insert(cycle.index(x) + 1, z)
                except ValueError:
                    raise MalformedCertificateError(
                        f"C{j}->C{j + 1}: vertex {x} not on C{j}"
                    ) from None
                cycles.append(tuple(cycle))
            self._cycles = tuple(cycles)
        return self._cycles

    def __len__(self) -> int:
        return len(self.records) + 1

    def __getitem__(self, index):
        return self._derive()[index]

    def __iter__(self):
        return iter(self._derive())

    def __eq__(self, other) -> bool:
        return self._derive() == other

    def __hash__(self) -> int:
        return hash(self._derive())

    def __repr__(self) -> str:
        return f"SplicedCycles({self.c3!r}, {self.records!r})"


@dataclass(frozen=True)
class CycleChain:
    """Full certificate of one construction run.

    cycles[i] has length i + 3 and its vertex set grows by exactly
    insertions[i - 1].z from cycles[i - 1]. `build_chain` gives a
    `SplicedCycles` over the very tuple it gives as `insertions`, so its
    cycles start at the king and cost nothing until read;
    `loads_certificate` gives the tuples the file holds.
    """

    king: int
    cycles: Sequence[tuple[int, ...]]
    insertions: tuple[Insertion, ...]
    context: KingContext
    blocks: tuple[tuple[int, ...], ...]
    exit_edge: ExitEdge
    spine: tuple[int, ...]


def find_exit_edge(
    t: Tournament, ctx: KingContext, blocks: tuple[tuple[int, ...], ...]
) -> ExitEdge:
    """The lowest last-block vertex with an in-set out-neighbor, and its lowest one.

    Any such vertex serves as the tail: the last block is strong, so every
    one of its vertices ends a Hamiltonian path of the out-set (Camion 1959,
    and Rédei's rule toward it).

    The last block has no edge into the in-set exactly when the tournament
    is not strong, and then `NotStrongError` is raised. That block beats no
    other out-set vertex and loses to the king, so without such an edge it
    beats nothing outside itself. Conversely, the last strong component of a
    tournament that is not strong reaches nothing outside itself, so holds no
    king; losing to every other vertex, it is the out-set's last block.
    """
    out_masks = t.out_masks
    in_mask = ~(out_masks[ctx.king] | 1 << ctx.king)
    for v in blocks[-1]:
        hits = out_masks[v] & in_mask
        if hits:
            return ExitEdge(tail=v, head=(hits & -hits).bit_length() - 1)
    raise NotStrongError("tournament is not strongly connected")


def spine_path(
    t: Tournament,
    ctx: KingContext,
    blocks: tuple[tuple[int, ...], ...],
    exit_edge: ExitEdge,
) -> tuple[int, ...]:
    """Hamiltonian path through the whole out-set ending at the exit tail.

    Every out-set vertex reaches the last block, which is strong, so reaches
    the tail, and Rédei's rule toward it spans the out-set. `build_chain`
    makes the same call itself; this and its unused `blocks` stay for the
    benchmark's traced replay, which calls them.
    """
    return path_ending_at(t, ctx.out_set, exit_edge.tail)


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


def _splice(
    out_masks: tuple[int, ...], succ: list[int] | dict[int, int], x: int, size: int, z: int
) -> Insertion:
    # Walk the cycle in `succ` from x, at most `size` steps, to the first
    # edge (x, y) with x -> z -> y, and splice z into it.
    zm = out_masks[z]
    for _ in range(size):
        y = succ[x]
        if out_masks[x] >> z & 1 and zm >> y & 1:
            succ[x], succ[z] = z, y
            return Insertion(x, y, z)
        x = y
    raise InternalContradictionError(f"no insertion slot for vertex {z}")


def extend_cycle(
    t: Tournament, ctx: KingContext, cycle: tuple[int, ...]
) -> tuple[tuple[int, ...], Insertion]:
    """Splice the lowest outside vertex into the first edge that accepts it.

    The cycle must start at the king and already contain the whole out-set,
    so every outside vertex z is an in-neighbor of the king: z points at the
    king on the cycle, and kingship supplies an out-set vertex beating z.
    Walking the cycle from the king therefore meets a switch edge (x, y)
    with x -> z -> y. The walk is `build_chain`'s, on the cycle's successors.
    """
    if len(cycle) == t.n:
        raise CycleAlreadySpanningError("cycle already visits every vertex")
    if cycle[0] != ctx.king:
        raise ValueError("cycle must start at the king")
    succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
    z = next(v for v in range(t.n) if v not in succ)
    record = _splice(t.out_masks, succ, ctx.king, len(cycle), z)
    i = cycle.index(record.x) + 1
    return cycle[:i] + (z,) + cycle[i:], record


def build_chain(t: Tournament, k: int) -> CycleChain:
    """Run the whole construction for king k of a strong tournament.

    Returns the certificate: C3, the insertion linking each cycle to the
    next, the cycles as a view over both, and the intermediate construction
    data. From C3 on, the spine is spliced last but one back to first, and
    then the in-set minus the exit head in ascending order, each into the
    first edge from the king that accepts it.
    """
    ctx = king_context(t, k)
    blocks = condensation(t, ctx.out_set)
    exit_edge = find_exit_edge(t, ctx, blocks)
    spine = path_ending_at(t, ctx.out_set, exit_edge.tail)
    head = exit_edge.head
    out_masks = t.out_masks
    succ = [0] * t.n
    succ[k], succ[spine[-1]], succ[head] = spine[-1], head, k
    rest = [v for v in ctx.in_set if v != head]
    records = tuple(
        _splice(out_masks, succ, k, size, z)
        for size, z in enumerate(itertools.chain(spine[-2::-1], rest), 3)
    )
    return CycleChain(
        king=k,
        cycles=SplicedCycles((k, spine[-1], head), records),
        insertions=records,
        context=ctx,
        blocks=blocks,
        exit_edge=exit_edge,
        spine=spine,
    )


# One insertion record at nesting depth 2 of the certificate, keys in sorted order.
_RECORD = '{\n      "x": %d,\n      "y": %d,\n      "z": %d\n    }'


def _json_array(items: Sequence[str], depth: int) -> str:
    """Rendered items as a JSON array at nesting depth `depth`, laid out as indent=2."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _ints(values: Sequence[int], depth: int) -> str:
    return _json_array([*map(str, values)], depth)


def dumps_certificate(t: Tournament, chain: CycleChain) -> str:
    """Serialize deterministically; identical chains give identical bytes.

    For a chain of integers, as `build_chain` and `loads_certificate` give,
    the text is the stdlib's `json.dumps(..., indent=2, sort_keys=True) +
    "\n"` of the same fields, with the edges as [u, v] pairs ascending by
    (u, then v), byte for byte. It is written here because with an indent,
    json runs its pure-Python encoder, one call per value.
    """
    records = chain.insertions
    insertions = _json_array([_RECORD] * len(records), 1) % tuple(itertools.chain(*records))
    edges = edge_rows(t, "[\n      %d,\n      ", "%d\n    ]", ",\n    ")
    fields = {
        "n": str(t.n),
        "king": str(chain.king),
        "A": _ints(chain.context.out_set, 1),
        "B": _ints(chain.context.in_set, 1),
        "reid_blocks": _json_array([_ints(block, 2) for block in chain.blocks], 1),
        "a_star": str(chain.exit_edge.tail),
        "b_star": str(chain.exit_edge.head),
        "spine": _ints(chain.spine, 1),
        "cycles": _json_array([_ints(cycle, 2) for cycle in chain.cycles], 1),
        "insertions": insertions,
        "tournament": _json_array(edges, 1),
    }
    return "{\n" + ",\n".join(f'  "{key}": {fields[key]}' for key in sorted(fields)) + "\n}\n"


def loads_certificate(text: str) -> tuple[Tournament, CycleChain]:
    """Inverse of dumps_certificate; a written certificate round-trips byte for byte.

    Here every array the writer writes must be a JSON array, every insertion
    record an object, and the order and every vertex a JSON integer; other keys
    load and are dropped on write. from_edge_list then checks each edge's shape,
    range and pair in input order, so the first faulty edge is the one named.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
        raise MalformedCertificateError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedCertificateError("certificate must be a JSON object")
    try:
        edges, cycles, blocks = obj["tournament"], obj["cycles"], obj["reid_blocks"]
        records = [(r["x"], r["y"], r["z"]) for r in obj["insertions"]]
        # An object iterates over its keys, so an empty one would pass as an empty
        # array; and a bool is an int. Only ints may stand for an order or a vertex.
        arrays = (obj["A"], obj["B"], obj["spine"], obj["insertions"], blocks, cycles, edges)
        values = itertools.chain(
            (obj["n"], obj["king"], obj["a_star"], obj["b_star"]), obj["A"], obj["B"],
            obj["spine"], *blocks, *edges, *cycles, *records,
        )
        lists = set(map(type, itertools.chain(arrays, blocks, cycles, edges)))
        if not lists <= {list} or not set(map(type, values)) <= {int}:
            raise MalformedCertificateError(
                "certificate orders and vertices must be integers, in JSON arrays"
            )
        t = from_edge_list(obj["n"], edges)
        chain = CycleChain(
            king=obj["king"],
            cycles=tuple(tuple(c) for c in cycles),
            insertions=tuple(Insertion(*r) for r in records),
            context=KingContext(
                king=obj["king"],
                out_set=tuple(obj["A"]),
                in_set=tuple(obj["B"]),
            ),
            blocks=tuple(tuple(b) for b in blocks),
            exit_edge=ExitEdge(tail=obj["a_star"], head=obj["b_star"]),
            spine=tuple(obj["spine"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificateError(f"certificate missing or mistyped field: {exc}") from exc
    return t, chain
