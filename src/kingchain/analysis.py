"""Structural queries: condensation, strong connectivity, kings.

The condensation of a tournament is a transitive tournament, so its strongly
connected components carry a unique total order in which every edge between
two components points from the earlier one to the later one. That order is
read off the score sequence (Landau 1953; Moon, *Topics on Tournaments*,
1968): listed by score, descending, the first i vertices form a union of
leading blocks exactly when their scores sum to C(i, 2) + i(m - i), since
then they beat all m - i others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import Tournament, checked_subset, mask_to_vertices
from .errors import NotAKingError, OrderTooSmallError, VertexOutOfRangeError


@dataclass(frozen=True)
class KingContext:
    """A king with its out-neighborhood and in-neighborhood, sorted ascending."""

    king: int
    out_set: tuple[int, ...]
    in_set: tuple[int, ...]


def is_strong(t: Tournament) -> bool:
    """True iff every vertex reaches every other; a single vertex is strong."""
    return len(condensation(t, range(t.n))) == 1


def condensation(t: Tournament, subset: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Strong components of the induced subtournament, in domination order.

    Block i beats block j whenever i < j. Vertices inside each block are
    sorted ascending. No block of any tournament ever has exactly two
    vertices, since a 2-vertex tournament is a single arc.

    Every vertex of an earlier block outscores every vertex of a later one
    inside the subset, so a block is the set of vertices whose scores fall
    between two consecutive cut points of the descending score sequence.
    """
    verts, sub_mask = checked_subset(t, subset)
    out_masks = t.out_masks
    scores = [(out_masks[v] & sub_mask).bit_count() for v in verts]
    m = len(verts)
    block_of_score = {}
    # shortfall: C(i, 2) + i(m - i), the most any i vertices can score, minus
    # the top i scores; the bound grows by m - i per step, and the shortfall
    # is zero exactly where a block ends.
    count = shortfall = 0
    for i, score in enumerate(sorted(scores, reverse=True), 1):
        block_of_score[score] = count
        shortfall += m - i - score
        if not shortfall:
            count += 1
    if count == 1:
        return (tuple(verts),)
    blocks: list[list[int]] = [[] for _ in range(count)]
    for v, score in zip(verts, scores):
        blocks[block_of_score[score]].append(v)
    return tuple(map(tuple, blocks))


def is_king(t: Tournament, v: int) -> bool:
    """True iff every other vertex is reached from v by a path of length <= 2."""
    if not 0 <= v < t.n:
        raise VertexOutOfRangeError(f"vertex {v} outside order {t.n}")
    out_masks = t.out_masks
    cover = out_masks[v]
    m = cover
    while m:
        low = m & -m
        m ^= low
        cover |= out_masks[low.bit_length() - 1]
    return cover | 1 << v == (1 << t.n) - 1


def kings(t: Tournament) -> tuple[int, ...]:
    """All kings, ascending. Never empty; a maximum-out-degree vertex is always one."""
    return tuple(v for v in range(t.n) if is_king(t, v))


def king_context(t: Tournament, k: int) -> KingContext:
    """Split the vertex set around king k into its out-set and in-set.

    Requires order >= 3; `is_king` rejects a k outside the order. Strong
    connectivity is not checked here (the in-set may then be empty);
    `chain.find_exit_edge` detects it.
    """
    if t.n < 3:
        raise OrderTooSmallError(f"king context needs order >= 3, got {t.n}")
    if not is_king(t, k):
        raise NotAKingError(f"vertex {k} is not a king")
    out_mask = t.out_masks[k]
    in_mask = ((1 << t.n) - 1) & ~out_mask & ~(1 << k)
    return KingContext(king=k, out_set=mask_to_vertices(out_mask), in_set=mask_to_vertices(in_mask))
