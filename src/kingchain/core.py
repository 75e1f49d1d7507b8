"""Tournament representation, construction, random generation, enumeration, export.

A tournament on n vertices orients every edge of the complete graph K_n.
The orientation is packed into a single integer: the unordered pair {u, v}
with u < v owns one bit, indexed lexicographically by (u, v), and a set bit
means u -> v. Equality of tournaments is therefore plain integer equality,
and enumerating all labeled tournaments is counting a bitmask.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    DuplicatePairError,
    ExhaustedTriesError,
    MissingPairError,
    OrderTooLargeError,
    OrderTwoImpossibleError,
    SelfLoopError,
    VertexOutOfRangeError,
)

# 2^28 orientations for n=8 is the practical ceiling for full enumeration.
ENUMERATION_LIMIT = 8

EXPORT_FORMATS = ("text", "dot", "json")


def pair_count(n: int) -> int:
    """Number of unordered vertex pairs, n(n-1)/2."""
    return n * (n - 1) // 2


def pair_index(u: int, v: int, n: int) -> int:
    """Bit position of the unordered pair {u, v} in lexicographic pair order."""
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def mask_to_vertices(mask: int) -> tuple[int, ...]:
    """Ascending vertex indices of the set bits of `mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Tournament:
    """Immutable complete orientation on vertices 0..n-1.

    `out_masks[v]` caches the out-neighborhood of v as a bitmask; it is
    derived from `bits` and excluded from equality and repr.
    """

    n: int
    bits: int
    out_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"tournament order must be >= 1, got {self.n}")
        if not 0 <= self.bits < 1 << pair_count(self.n):
            raise ValueError(f"orientation bits out of range for n={self.n}")
        n, bits = self.n, self.bits
        masks = [0] * n
        p = 0
        for u in range(n - 1):
            for v in range(u + 1, n):
                if bits >> p & 1:
                    masks[u] |= 1 << v
                else:
                    masks[v] |= 1 << u
                p += 1
        object.__setattr__(self, "out_masks", tuple(masks))

    def beats(self, u: int, v: int) -> bool:
        """True iff the edge between u and v is directed u -> v."""
        return bool(self.out_masks[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out_masks[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Oriented edges (u, v), one per pair, ascending by (u, then v)."""
        for u in range(self.n):
            for v in mask_to_vertices(self.out_masks[u]):
                yield u, v


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Tournament:
    """Build a tournament from oriented edges (u, v) meaning u -> v.

    Every unordered pair must appear exactly once.
    """
    if n < 1:
        raise ValueError(f"tournament order must be >= 1, got {n}")
    seen = [False] * pair_count(n)
    bits = 0
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside order {n}")
        p = pair_index(u, v, n)
        if seen[p]:
            raise DuplicatePairError(
                f"pair {{{min(u, v)}, {max(u, v)}}} oriented more than once"
            )
        seen[p] = True
        if u < v:
            bits |= 1 << p
    if not all(seen):
        for u in range(n - 1):
            for v in range(u + 1, n):
                if not seen[pair_index(u, v, n)]:
                    raise MissingPairError(f"pair {{{u}, {v}}} was never oriented")
    return Tournament(n, bits)


def random_tournament(n: int, seed: int) -> Tournament:
    """Orient every pair by an independent fair coin; deterministic per (n, seed)."""
    if n < 1:
        raise ValueError(f"tournament order must be >= 1, got {n}")
    m = pair_count(n)
    bits = random.Random(seed).getrandbits(m) if m else 0
    return Tournament(n, bits)


def random_strong_tournament(n: int, seed: int, max_tries: int = 256) -> Tournament:
    """Rejection-sample seeded random tournaments until one is strong.

    Attempt i draws random_tournament(n, seed + i), so the result is
    deterministic per (n, seed). Rejection keeps the sampling unbiased over
    strong tournaments; a random tournament is strong with probability
    approaching one, so a couple of tries almost always suffice.
    """
    from .analysis import is_strong

    if n == 2:
        raise OrderTwoImpossibleError("a 2-vertex tournament is a single arc")
    for attempt in range(max_tries):
        t = random_tournament(n, seed + attempt)
        if is_strong(t):
            return t
    raise ExhaustedTriesError(
        f"no strong tournament of order {n} in {max_tries} tries from seed {seed}"
    )


def enumerate_all(n: int, start: int = 0, stop: int | None = None) -> Iterator[Tournament]:
    """Yield every labeled tournament of order n exactly once.

    Order is ascending by the packed orientation integer, so tournament i is
    Tournament(n, i). `start`/`stop` select a half-open index range, letting
    exhaustive consumers split the work across workers with no shared state.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise OrderTooLargeError(
            f"exhaustive enumeration supports 1 <= n <= {ENUMERATION_LIMIT}, got {n}"
        )
    total = 1 << pair_count(n)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"invalid index range [{start}, {stop}) for {total} tournaments")
    for bits in range(start, stop):
        yield Tournament(n, bits)


def export(t: Tournament, format: str = "text") -> str:
    """Serialize a tournament.

    text: first line n, then one "u v" line per edge, ascending by (u, then v).
    dot:  a digraph with one edge statement per arc.
    json: {"n": ..., "edges": [[u, v], ...]} in the same edge order.
    """
    if format == "text":
        lines = [str(t.n)]
        lines.extend(f"{u} {v}" for u, v in t.edges())
        return "\n".join(lines) + "\n"
    if format == "dot":
        lines = ["digraph tournament {"]
        lines.extend(f"  {u} -> {v};" for u, v in t.edges())
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps({"n": t.n, "edges": [[u, v] for u, v in t.edges()]}) + "\n"
    raise ValueError(f"unknown export format {format!r}; expected one of {EXPORT_FORMATS}")


def parse_text(text: str) -> Tournament:
    """Inverse of export(t, "text"); whitespace-tolerant."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty tournament text")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"non-integer token in tournament text: {exc}") from None
    n, rest = values[0], values[1:]
    if len(rest) % 2:
        raise ValueError("odd number of vertex tokens after the header line")
    return from_edge_list(n, list(zip(rest[0::2], rest[1::2])))
