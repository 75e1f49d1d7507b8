"""Hamiltonian paths and cycles inside tournaments.

Every tournament has a Hamiltonian path, and every strong tournament on at
least three vertices has a Hamiltonian cycle. Both constructions below are
the classical incremental ones; all tie-breaking is lowest-index-first so
the output is a pure function of the input.
"""

from __future__ import annotations

from typing import Iterable

from .analysis import is_strong_subset
from .core import Tournament, mask_to_vertices
from .errors import (
    EmptySubsetError,
    InternalContradictionError,
    NotStrongSubsetError,
    OrderTwoSubsetError,
    TargetNotInSubsetError,
    VertexOutOfRangeError,
)


def _checked_vertices(t: Tournament, subset: Iterable[int]) -> list[int]:
    verts = sorted(set(subset))
    if not verts:
        raise EmptySubsetError("subset must be nonempty")
    if verts[0] < 0 or verts[-1] >= t.n:
        raise VertexOutOfRangeError(f"subset not contained in [0, {t.n})")
    return verts


def hamiltonian_path(t: Tournament, subset: Iterable[int]) -> tuple[int, ...]:
    """Path visiting every vertex of `subset` once, following edges forward.

    Vertices are inserted in ascending index order, each at the first valid
    slot: prepend, then the internal slots left to right, then append. One of
    these always exists, so construction never fails.
    """
    verts = _checked_vertices(t, subset)
    out_masks = t.out_masks
    path = [verts[0]]
    for v in verts[1:]:
        vm = out_masks[v]
        if vm >> path[0] & 1:
            path.insert(0, v)
            continue
        for i in range(len(path) - 1):
            if out_masks[path[i]] >> v & 1 and vm >> path[i + 1] & 1:
                path.insert(i + 1, v)
                break
        else:
            # No valid slot earlier forces the current tail to beat v.
            path.append(v)
    return tuple(path)


def _seed_triangle(t: Tournament, verts: list[int], sub_mask: int) -> list[int]:
    """Deterministic directed 3-cycle inside a strong subset of size >= 3."""
    out_masks = t.out_masks
    for v in verts:
        out_here = out_masks[v] & sub_mask
        in_here = sub_mask & ~out_masks[v] & ~(1 << v)
        if not out_here or not in_here:
            continue
        u = (out_here & -out_here).bit_length() - 1
        for w in verts:
            if w != v and out_masks[u] >> w & 1 and out_masks[w] >> v & 1:
                return [v, u, w]
        break
    # Fallback: scan ascending triples for either orientation of a 3-cycle.
    for i, a in enumerate(verts):
        for j in range(i + 1, len(verts)):
            b = verts[j]
            for k in range(j + 1, len(verts)):
                c = verts[k]
                if out_masks[a] >> b & 1 and out_masks[b] >> c & 1 and out_masks[c] >> a & 1:
                    return [a, b, c]
                if out_masks[a] >> c & 1 and out_masks[c] >> b & 1 and out_masks[b] >> a & 1:
                    return [a, c, b]
    raise InternalContradictionError("strong subset of size >= 3 has no 3-cycle")


def hamiltonian_cycle(t: Tournament, subset: Iterable[int]) -> tuple[int, ...]:
    """Cycle through all of `subset`, which must induce a strong subtournament.

    A singleton subset returns the one-vertex tuple (a single vertex is
    strong but carries no cycle). Otherwise the result has length >= 3.

    Starting from a 3-cycle, each round either splices in an outside vertex
    with both an in- and an out-neighbor on the cycle, or, when every outside
    vertex dominates or is dominated by the whole cycle, absorbs a dominated
    vertex followed by a dominator, growing the cycle by two.
    """
    verts = _checked_vertices(t, subset)
    if len(verts) == 1:
        return (verts[0],)
    if len(verts) == 2:
        raise OrderTwoSubsetError("no strong subtournament on exactly two vertices")
    if not is_strong_subset(t, verts):
        raise NotStrongSubsetError("subset does not induce a strong subtournament")

    out_masks = t.out_masks
    sub_mask = 0
    for v in verts:
        sub_mask |= 1 << v
    cycle = _seed_triangle(t, verts, sub_mask)
    cyc_mask = (1 << cycle[0]) | (1 << cycle[1]) | (1 << cycle[2])

    while cyc_mask != sub_mask:
        outside = mask_to_vertices(sub_mask & ~cyc_mask)
        for z in outside:
            zm = out_masks[z]
            if zm & cyc_mask and cyc_mask & ~zm & ~(1 << z):
                size = len(cycle)
                for i in range(size):
                    x, y = cycle[i], cycle[(i + 1) % size]
                    if out_masks[x] >> z & 1 and zm >> y & 1:
                        cycle.insert(i + 1, z)
                        cyc_mask |= 1 << z
                        break
                else:
                    raise InternalContradictionError(
                        "mixed outside vertex has no insertion slot"
                    )
                break
        else:
            # Every outside vertex beats the whole cycle or loses to all of it.
            dominator_mask = 0
            dominated = []
            for z in outside:
                if out_masks[z] & cyc_mask == cyc_mask:
                    dominator_mask |= 1 << z
                else:
                    dominated.append(z)
            for low in dominated:
                hits = out_masks[low] & dominator_mask
                if hits:
                    high = (hits & -hits).bit_length() - 1
                    cycle.extend((low, high))
                    cyc_mask |= (1 << low) | (1 << high)
                    break
            else:
                raise InternalContradictionError(
                    "no edge from a dominated outside vertex to a dominator"
                )
    return tuple(cycle)


def path_ending_at(t: Tournament, subset: Iterable[int], target: int) -> tuple[int, ...]:
    """Hamiltonian path of a strong subset whose final vertex is `target`.

    Obtained by cutting the Hamiltonian cycle right after `target` and
    unrolling it; `hamiltonian_cycle` rejects a subset that is not strong.
    """
    verts = _checked_vertices(t, subset)
    if target not in verts:
        raise TargetNotInSubsetError(f"target {target} not in subset")
    if len(verts) == 1:
        return (target,)
    cycle = hamiltonian_cycle(t, verts)
    i = cycle.index(target)
    return cycle[i + 1 :] + cycle[: i + 1]
