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
     time: the spine, last but one back to first, then the in-set minus the
     exit head in ascending order. A spine vertex takes the king's own edge,
     since k beats it and it beats the spine vertex after it, so its record
     (k, spine[i + 1], spine[i]) is written without a walk, and the cycle
     is k -> spine -> exit head on a successor array. Each in-set vertex z
     then walks the cycle from k to the first edge (x, y) with x -> z -> y
     and sets succ[x], succ[z] = z, y, which the record (x, y, z) keeps;
     `_splice` is that walk, over the whole in-set in one call, and
     `extend_cycle` runs it too, on a cycle tuple. An in-set vertex points
     back at k, and by kingship an out-set vertex on the cycle beats it, so
     it has a slot.
  5. The chain is C3 plus those records; the cycles C3..Cn are a view that
     builds its tuples from them on the first read.

No step re-checks strong connectivity up front, nor the out-set: steps 1
and 3 take it sorted, with the king's row as its mask, past the subset
check. Every choice is lowest-index-first, so certificates are reproducible
byte for byte.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .analysis import KingContext, _blocks, king_context
from .core import Tournament, _from_int_edges, edge_rows, from_edge_list
from .errors import (
    CycleAlreadySpanningError,
    InternalContradictionError,
    MalformedCertificateError,
    NotStrongError,
)
from .hamilton import _path_to, path_ending_at


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


# Insertion((x, y, z)) without the Python frame of the named tuple's __new__.
_insertion = functools.partial(tuple.__new__, Insertion)


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
    """One king's chain of cycles: the claim, and how the construction got there.

    The claim is `king`, `cycles` and `insertions`: cycles[i] has length i + 3
    and its vertex set grows by exactly insertions[i - 1].z from cycles[i - 1].
    It is all a certificate holds, and all that equality and hashing compare.
    `build_chain` gives a `SplicedCycles` over the very tuple it gives as
    `insertions`, so its cycles start at the king and cost nothing until read;
    `loads_certificate` gives the tuples the file holds.

    `context`, `blocks`, `exit_edge` and `spine` annotate a built chain with
    the construction's steps, for `kingchain chain` to print; a loaded chain
    leaves them None.
    """

    king: int
    cycles: Sequence[tuple[int, ...]]
    insertions: tuple[Insertion, ...]
    context: KingContext | None = field(default=None, compare=False)
    blocks: tuple[tuple[int, ...], ...] | None = field(default=None, compare=False)
    exit_edge: ExitEdge | None = field(default=None, compare=False)
    spine: tuple[int, ...] | None = field(default=None, compare=False)


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
    runs the same rule past the subset check; this and its unused `blocks`
    stay for the benchmark's traced replay, which calls them.
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
    out_masks: tuple[int, ...],
    succ: list[int] | dict[int, int],
    start: int,
    size: int,
    zs: Iterable[int],
) -> list[Insertion]:
    # For each z in turn, walk the cycle in `succ` from `start`, at most
    # `size` steps, to the first edge (x, y) with x -> z -> y, and splice z
    # into it; the cycle is one longer for the next z.
    records = []
    for z in zs:
        zm = out_masks[z]
        x = start
        for _ in range(size):
            y = succ[x]
            if out_masks[x] >> z & 1 and zm >> y & 1:
                break
            x = y
        else:
            raise InternalContradictionError(f"no insertion slot for vertex {z}")
        succ[x], succ[z] = z, y
        records.append(_insertion((x, y, z)))
        size += 1
    return records


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
    (record,) = _splice(t.out_masks, succ, ctx.king, len(cycle), [z])
    i = cycle.index(record.x) + 1
    return cycle[:i] + (z,) + cycle[i:], record


def build_chain(t: Tournament, k: int) -> CycleChain:
    """Run the whole construction for king k of a strong tournament.

    Returns the certificate: C3, the insertion linking each cycle to the
    next, the cycles as a view over both, and the intermediate construction
    data, each equal to what `king_context`, `condensation`, `find_exit_edge`
    and `spine_path` give; the out-set is sorted and in range, so it skips
    their subset check. From C3 on, the spine is spliced last but one back to
    first, and then the in-set minus the exit head in ascending order, each
    into the first edge from the king that accepts it.
    """
    ctx = king_context(t, k)
    out_masks = t.out_masks
    blocks = _blocks(out_masks, ctx.out_set, out_masks[k])
    exit_edge = find_exit_edge(t, ctx, blocks)
    spine = _path_to(out_masks, ctx.out_set, exit_edge.tail)
    head = exit_edge.head
    # Each spine vertex takes the king's own edge, so needs no walk.
    ladder = map(_insertion, zip(itertools.repeat(k), spine[:0:-1], spine[-2::-1]))
    succ = [0] * t.n
    for u, v in zip((k, *spine, head), (*spine, head, k)):
        succ[u] = v
    rest = [v for v in ctx.in_set if v != head]
    records = (*ladder, *_splice(out_masks, succ, k, len(spine) + 2, rest))
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


class VertexNames(dict):
    """The decimal text of every vertex of one order: `names[v]` is `str(v)`.

    A chain of order n holds about n²/2 vertices in its cycles, so its writers
    look each one up here instead of formatting it again. Any other value, such
    as a negative or out-of-range vertex of a loaded certificate, is formatted
    on lookup, so it reads exactly as `str` gives it.
    """

    __slots__ = ()

    def __init__(self, n: int):
        super().__init__(zip(range(n), map(str, range(n))))

    def __missing__(self, value) -> str:
        return str(value)


def _json_array(items: Iterable[str], depth: int) -> str:
    """Rendered items, none empty, as a JSON array at nesting depth `depth`, as indent=2.

    The joined items are copied once more, into the result, and no further.
    """
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return f"[{pad}{body}\n{'  ' * depth}]" if body else "[]"


def dumps_certificate(t: Tournament, chain: CycleChain) -> str:
    """Serialize deterministically; identical chains give identical bytes.

    For a chain of integers, as `build_chain` and `loads_certificate` give,
    the text is the stdlib's `json.dumps(..., indent=2, sort_keys=True) +
    "\n"` of the same fields, with the edges as [u, v] pairs ascending by
    (u, then v), byte for byte. It is written here because with an indent,
    json runs its pure-Python encoder, one call per value. Every cycle vertex
    is read from one `VertexNames` table.
    """
    name = VertexNames(t.n).__getitem__
    records = chain.insertions
    insertions = _json_array([_RECORD] * len(records), 1) % tuple(itertools.chain(*records))
    edges = edge_rows(t, "[\n      %d,\n      ", "%d\n    ]", ",\n    ")
    cycles = _json_array([_json_array(map(name, c), 2) for c in chain.cycles], 1)
    # The fields in sorted key order, in one join, so no field is copied twice.
    return "".join((
        '{\n  "cycles": ', cycles,
        ',\n  "insertions": ', insertions,
        ',\n  "king": ', str(chain.king),
        ',\n  "n": ', str(t.n),
        ',\n  "tournament": ', _json_array(edges, 1),
        "\n}\n",
    ))


def loads_certificate(text: str) -> tuple[Tournament, CycleChain]:
    """Inverse of dumps_certificate; a written certificate round-trips byte for byte.

    The five fields the writer writes are required: every array must be a JSON
    array, every insertion record an object, and the order and every vertex a
    JSON integer. Other keys, such as the construction fields that older
    certificates carry, load and are dropped on write, and the chain's
    construction annotations stay None. The grid reads the edges; on a fault,
    from_edge_list checks each edge's shape, range and pair in input order and
    names the first.
    """
    # json.loads makes a list per edge and per cycle, and every few hundred of
    # them would wake the cyclic collector to walk the growing heap; parsed JSON
    # holds no reference cycle, so the collector sleeps through the parse.
    collecting = gc.isenabled()
    if collecting:
        gc.disable()
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
        raise MalformedCertificateError(f"certificate is not valid JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    if not isinstance(obj, dict):
        raise MalformedCertificateError("certificate must be a JSON object")
    try:
        edges, cycles = obj["tournament"], obj["cycles"]
        records = [(r["x"], r["y"], r["z"]) for r in obj["insertions"]]
        # An object iterates over its keys, so an empty one would pass as an empty
        # array; and a bool is an int. Only ints may stand for an order or a vertex.
        arrays = (obj["insertions"], cycles, edges)
        values = itertools.chain((obj["n"], obj["king"]), *edges, *cycles, *records)
        lists = set(map(type, itertools.chain(arrays, cycles, edges)))
        if not lists <= {list} or not set(map(type, values)) <= {int}:
            raise MalformedCertificateError(
                "certificate orders and vertices must be integers, in JSON arrays"
            )
        t = _from_int_edges(obj["n"], edges) or from_edge_list(obj["n"], edges)
        chain = CycleChain(
            king=obj["king"],
            cycles=tuple(tuple(c) for c in cycles),
            insertions=tuple(Insertion(*r) for r in records),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificateError(f"certificate missing or mistyped field: {exc}") from exc
    return t, chain
