"""Hamiltonian paths and cycles inside tournaments.

Every tournament has a Hamiltonian path, and every strong tournament on at
least three vertices has a Hamiltonian cycle. Both constructions below are
the classical incremental ones; all tie-breaking is lowest-index-first so
the output is a pure function of the input.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import Tournament, checked_subset, mask_to_vertices
from .errors import (
    InternalContradictionError,
    NotStrongSubsetError,
    OrderTwoSubsetError,
    TargetNotInSubsetError,
)


def hamiltonian_path(t: Tournament, subset: Iterable[int]) -> tuple[int, ...]:
    """Path visiting every vertex of `subset` once, following edges forward.

    Vertices are inserted in ascending index order by Rédei's rule (1934):
    each goes just before the first path vertex it beats, or at the end if it
    beats none. Every earlier path vertex beats it, so that slot is valid, and
    no earlier slot is, since one would need it to beat an earlier vertex.
    """
    verts, _ = checked_subset(t, subset)
    out_masks = t.out_masks
    path = [verts[0]]
    for v in verts[1:]:
        vm = out_masks[v]
        for i, u in enumerate(path):
            if vm >> u & 1:
                path.insert(i, v)
                break
        else:
            path.append(v)
    return tuple(path)


def splice_slot(t: Tournament, cycle: Sequence[int], z: int) -> int:
    """First i with cycle[i] -> z -> cycle[i + 1], wrapping round at the end.

    One exists whenever z beats some cycle vertex and loses to another.
    """
    out_masks = t.out_masks
    zm = out_masks[z]
    size = len(cycle)
    for i in range(size):
        if out_masks[cycle[i]] >> z & 1 and zm >> cycle[(i + 1) % size] & 1:
            return i
    raise InternalContradictionError(f"no insertion slot for vertex {z}")


def _seed_triangle(t: Tournament, verts: list[int], sub_mask: int) -> list[int]:
    """Directed 3-cycle through the lowest vertex v of the subset.

    Every vertex of a strong tournament lies on a 3-cycle (Moon 1966), so
    finding none proves the subset is not strong. First try v, its lowest
    out-neighbor u and the lowest w with u -> w -> v; failing that, the
    lexicographically first pair b < c closing v -> b -> c or v -> c -> b.
    """
    out_masks = t.out_masks
    v = verts[0]
    out_v = out_masks[v] & sub_mask
    in_v = sub_mask & ~out_masks[v] & ~(1 << v)
    if out_v:
        u = (out_v & -out_v).bit_length() - 1
        hits = out_masks[u] & in_v
        if hits:
            return [v, u, (hits & -hits).bit_length() - 1]
    for b in verts[1:]:
        above_b = sub_mask >> (b + 1) << (b + 1)
        if out_v >> b & 1:
            hits = out_masks[b] & in_v & above_b
            if hits:
                return [v, b, (hits & -hits).bit_length() - 1]
        else:
            hits = out_v & ~out_masks[b] & above_b
            if hits:
                return [v, (hits & -hits).bit_length() - 1, b]
    raise NotStrongSubsetError("no 3-cycle through the lowest vertex of the subset")


def hamiltonian_cycle(t: Tournament, subset: Iterable[int]) -> tuple[int, ...]:
    """Cycle through all of `subset`, which must induce a strong subtournament.

    A singleton subset returns the one-vertex tuple (a single vertex is
    strong but carries no cycle). Otherwise the result has length >= 3.

    Starting from a 3-cycle, each round either splices in an outside vertex
    with both an in- and an out-neighbor on the cycle, or, when every outside
    vertex dominates or is dominated by the whole cycle, absorbs a dominated
    vertex followed by a dominator, growing the cycle by two. The dominators
    and the dominated are two masks updated as each vertex joins the cycle,
    so no round rescans the outside vertices. A subset is
    strong iff it has a Hamiltonian cycle (Camion 1959), so growth gets stuck,
    with `NotStrongSubsetError`, exactly when the subset is not strong.
    """
    verts, sub_mask = checked_subset(t, subset)
    if len(verts) == 1:
        return (verts[0],)
    if len(verts) == 2:
        raise OrderTwoSubsetError("no strong subtournament on exactly two vertices")

    out_masks = t.out_masks
    cycle = _seed_triangle(t, verts, sub_mask)
    cyc_mask, dominators, dominated = 0, sub_mask, sub_mask
    added = tuple(cycle)
    while True:
        for v in added:
            cyc_mask |= 1 << v
            dominators &= ~out_masks[v] & ~(1 << v)
            dominated &= out_masks[v]
        if cyc_mask == sub_mask:
            return tuple(cycle)
        mixed = sub_mask & ~cyc_mask & ~dominators & ~dominated
        if mixed:
            z = (mixed & -mixed).bit_length() - 1
            cycle.insert(splice_slot(t, cycle, z) + 1, z)
            added = (z,)
            continue
        # Every outside vertex beats the whole cycle or loses to all of it.
        for low in mask_to_vertices(dominated):
            hits = out_masks[low] & dominators
            if hits:
                break
        else:
            raise NotStrongSubsetError("no edge from a dominated vertex to a dominator")
        added = (low, (hits & -hits).bit_length() - 1)
        cycle.extend(added)


def path_ending_at(t: Tournament, subset: Iterable[int], target: int) -> tuple[int, ...]:
    """Hamiltonian path of a strong subset whose final vertex is `target`.

    Obtained by cutting the Hamiltonian cycle right after `target` and
    unrolling it. The subset is checked first: `hamiltonian_cycle` rejects one
    that is not strong even when `target` also lies outside it.
    """
    cycle = hamiltonian_cycle(t, subset)
    if target not in cycle:
        raise TargetNotInSubsetError(f"target {target} not in subset")
    i = cycle.index(target)
    return cycle[i + 1 :] + cycle[: i + 1]
