"""Tournament representation, construction, random generation, enumeration, export.

A tournament on n vertices orients every edge of the complete graph K_n.
The orientation is packed into a single integer: the unordered pair {u, v}
with u < v owns one bit, indexed lexicographically by (u, v), and a set bit
means u -> v. Equality of tournaments is therefore plain integer equality,
and enumerating all labeled tournaments is counting a bitmask.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicatePairError,
    EmptySubsetError,
    MissingPairError,
    OrderTooLargeError,
    OrderTwoImpossibleError,
    SelfLoopError,
    VertexOutOfRangeError,
)

# 2^28 orientations for n=8 is the practical ceiling for full enumeration.
ENUMERATION_LIMIT = 8

# A binary digit negated. Pair and cell flags are stored as ASCII digits.
_NOT_DIGIT = bytes.maketrans(b"01", b"10")

# From this order up, Tournament unpacks by a bit-matrix transpose; below it the row
# loop, 1.9 times as fast at n=6, runs the sweeps' 32,768 unpacks per n=6 pass. They
# cross between n=16 and 18 (2 cores, Python 3.11.7, median of 7 best-of-5 timeit runs).
# Texts and certificate edges take the grid at every order: faster from n=4 for texts
# (0.5 us slower at n=3), and from n=7 against from_edge_list's loop for certificate
# edges (0.4 us slower at n=6, 2 us at n=3).
_MATRIX_CUT = 24

# A binary digit as an itertools.compress selector: the byte 0 is false.
_DIGIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")

# int() also reads "+", "_" and non-ASCII digits; a token may hold only ASCII
# digits and "-", and int() rejects a misplaced "-".
_NON_DECIMAL = re.compile(r"[^\s0-9-]")


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


def checked_subset(t: Tournament, subset: Iterable[int]) -> tuple[list[int], int]:
    """Ascending distinct vertices of a nonempty subset of t, and their bitmask."""
    verts = sorted(set(subset))
    if not verts:
        raise EmptySubsetError("subset must be nonempty")
    if verts[0] < 0 or verts[-1] >= t.n:
        raise VertexOutOfRangeError(f"subset not contained in [0, {t.n})")
    mask = 0
    for v in verts:
        mask |= 1 << v
    return verts, mask


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
        if n >= _MATRIX_CUT:
            object.__setattr__(self, "out_masks", _transposed_masks(n, bits))
            return
        masks = [0] * n
        # Row u is the next n-1-u bits: the pairs (u, v) for v > u, in order.
        for u in range(n - 1):
            full = (1 << (n - 1 - u)) - 1
            row = bits & full
            bits >>= n - 1 - u
            masks[u] |= row << (u + 1)
            for v in mask_to_vertices((full & ~row) << (u + 1)):
                masks[v] |= 1 << u
        object.__setattr__(self, "out_masks", tuple(masks))

    def out_degree(self, v: int) -> int:
        return self.out_masks[v].bit_count()


def _transposed_masks(n: int, bits: int) -> tuple[int, ...]:
    """Out-masks of Tournament(n, bits), read off an n x n matrix of digits.

    Pair (u, v), u < v, puts its digit at row u, column v and its negation
    at row v, column u: one slice per row, one strided slice per column and
    one int() per mask, with no Python step per pair.
    """
    digits = bin(bits)[2:].zfill(pair_count(n)).encode()[::-1]
    negated = digits.translate(_NOT_DIGIT)
    grid = bytearray(b"0" * (n * n))
    start = 0
    for u in range(n - 1):
        stop = start + n - 1 - u
        grid[u * n + u + 1:(u + 1) * n] = digits[start:stop]
        grid[(u + 1) * n + u::n] = negated[start:stop]
        start = stop
    # Reversed, the grid holds row n-1-v as v's mask with its highest bit first.
    grid.reverse()
    return tuple(int(grid[i:i + n], 2) for i in range(n * n - n, -1, -n))


def _from_pairs(n: int, pairs: Iterable, names: Sequence) -> Tournament | None:
    """The tournament with edge u -> v for each of C(n, 2) pairs (u, v), or None.

    Cell (u, v) is u*n + v, where `names[u]` writes u. The pairs name a tournament iff
    each is two names and each cell above the diagonal negates its mirror: then no
    cell repeats or lies on the diagonal, and row u is u's out-set.
    """
    rows, cols = dict(zip(names, range(0, n * n, n))), dict(zip(names, range(n)))
    flags = bytearray(b"0" * (n * n))
    try:
        for u, v in pairs:
            flags[rows[u] + cols[v]] = 49  # ord("1")
    except (KeyError, TypeError, ValueError):
        return None
    upper = b"".join([flags[u * n + u + 1:(u + 1) * n] for u in range(n)])
    lower = b"".join([flags[(u + 1) * n + u::n] for u in range(n)])
    if upper.translate(_NOT_DIGIT) != lower:
        return None
    # Pair p's flag is bit p, so the digits run from the top. Reversed, the grid holds
    # row n-1-v as v's mask, highest bit first, so the masks are not unpacked again.
    flags.reverse()
    t = object.__new__(Tournament)
    t.__dict__.update(n=n, bits=int(b"0" + upper[::-1], 2), out_masks=tuple(
        [int(flags[i:i + n], 2) for i in range(n * n - n, -1, -n)]))
    return t


def _from_int_edges(n: int, edges: list) -> Tournament | None:
    """The grid read of exactly C(n, 2) edges, else None; a dict finds 2.0 under 2, so only ints."""
    return _from_pairs(n, edges, range(n)) if n > 0 and len(edges) == pair_count(n) else None


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Tournament:
    """Build a tournament from oriented edges (u, v) meaning u -> v.

    Every unordered pair must appear exactly once. Memory follows the input,
    not n: a list too short to orient every pair records only the pairs it names.
    """
    if n < 1:
        raise ValueError(f"tournament order must be >= 1, got {n}")
    edges = list(edges)
    total = pair_count(n)
    # Per pair index: 0 unseen, else the pair's bit as an ASCII digit, "1" for u < v.
    seen = bytearray(total) if len(edges) >= total else defaultdict(int)
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
        seen[p] = 48 + (u < v)
    if len(edges) < total:
        # Pairs are indexed in lexicographic order: this stops within len(edges) + 1 steps.
        pairs = ((u, v) for u in range(n - 1) for v in range(u + 1, n))
        u, v = next(pair for p, pair in enumerate(pairs) if not seen[p])
        raise MissingPairError(f"pair {{{u}, {v}}} was never oriented")
    # Each pair is now named once; pair p's flag is bit p, so the digits run from the top.
    return Tournament(n, int(b"0" + seen[::-1], 2))


def random_tournament(n: int, seed: int) -> Tournament:
    """Orient every pair by an independent fair coin; deterministic per (n, seed)."""
    if n < 1:
        raise ValueError(f"tournament order must be >= 1, got {n}")
    return Tournament(n, random.Random(seed).getrandbits(pair_count(n)))


def strong_tournaments(n: int, seed: int) -> Iterator[Tournament]:
    """The strong draws among random_tournament(n, seed), (n, seed + 1), ..., in order.

    Rejection keeps each element uniform over the strong tournaments. For
    n >= 3 a draw is strong with probability at least 1/4 (2/8 at n=3, rising
    to one with n; Moon and Moser 1962), so the stream never stalls.
    """
    from .analysis import is_strong

    if n == 2:
        raise OrderTwoImpossibleError("a 2-vertex tournament is a single arc")
    return filter(is_strong, (random_tournament(n, s) for s in itertools.count(seed)))


def random_strong_tournament(n: int, seed: int) -> Tournament:
    """The first strong draw from the seed; stress trial i checks the i-th, so none repeats."""
    return next(strong_tournaments(n, seed))


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


def edge_rows(t: Tournament, head: str, tail: str, sep: str) -> list[str]:
    """Every edge (u, v) as text, ascending by (u, then v), one string per row.

    Edge (u, v) reads `head % u + tail % v`. Row u joins its edges with
    `sep` and is left out when u beats nobody, so joining the rows with
    `sep` again lists every edge. Row u's binary digits, lowest first,
    select the preformatted tails; nothing is formatted per edge.
    """
    tails = [tail % v for v in range(t.n)]
    rows = []
    for u, row in enumerate(t.out_masks):
        if row:
            lead = head % u
            selectors = bin(row)[:1:-1].encode().translate(_DIGIT_SELECTORS)
            rows.append(lead + (sep + lead).join(itertools.compress(tails, selectors)))
    return rows


def export(t: Tournament, format: str = "text") -> str:
    """Serialize a tournament.

    text: first line n, then one "u v" line per edge, ascending by (u, then v).
    dot:  a digraph with one edge statement per arc.
    """
    if format == "text":
        return "\n".join([str(t.n), *edge_rows(t, "%d ", "%d", "\n")]) + "\n"
    if format == "dot":
        arcs = edge_rows(t, "  %d -> ", "%d;", "\n")
        return "\n".join(["digraph tournament {", *arcs, "}"]) + "\n"
    raise ValueError(f"unknown export format {format!r}; expected 'text' or 'dot'")


def parse_text(text: str) -> Tournament:
    """Inverse of export(t, "text"); whitespace-tolerant, ASCII decimal tokens only."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty tournament text")
    # Check fast: a text of order n > 1 holds n(n-1) + 1 tokens, whose integer square
    # root is n - 1. If the header is that n, the grid reads the vertices written as
    # export writes them; any other token, or cells that are no tournament, go to the loop.
    n = math.isqrt(len(tokens)) + 1
    if n * (n - 1) == len(tokens) - 1 and tokens[0] == str(n):
        t = _from_pairs(n, zip(tokens[1::2], tokens[2::2]), list(map(str, range(n))))
        if t is not None:
            return t
    bad = _NON_DECIMAL.search(text)
    if bad:
        raise ValueError(f"non-decimal character {bad.group()!r} in tournament text")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"non-integer token in tournament text: {exc}") from None
    n, rest = values[0], values[1:]
    if len(rest) % 2:
        raise ValueError("odd number of vertex tokens after the header line")
    return from_edge_list(n, zip(rest[0::2], rest[1::2]))
