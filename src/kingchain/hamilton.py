"""Hamiltonian paths inside tournaments.

Every tournament has a Hamiltonian path, built here by Rédei's insertion
rule (1934). Read toward a target, the same rule gives a path ending at any
vertex that every other vertex reaches, which in a strong subset is every
vertex (Camion 1959). All tie-breaking is lowest-index-first, so the output
is a pure function of the input. A Hamiltonian cycle of a strong tournament
needs no algorithm of its own: `build_chain(t, k).cycles[-1]` is one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import Tournament, checked_subset
from .errors import NotStrongSubsetError, TargetNotInSubsetError


def _insert(out_masks: tuple[int, ...], path: list[int], v: int) -> None:
    # Rédei's rule: just before the first path vertex v beats, or at the end.
    vm = out_masks[v]
    for i, u in enumerate(path):
        if vm >> u & 1:
            path.insert(i, v)
            return
    path.append(v)


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
        _insert(out_masks, path, v)
    return tuple(path)


def path_ending_at(t: Tournament, subset: Iterable[int], target: int) -> tuple[int, ...]:
    """Hamiltonian path of `subset` whose final vertex is `target`.

    Rédei's rule toward the target: the path starts as the target alone, and
    each sweep over the other vertices, in ascending order, inserts every one
    that beats a path vertex, just before the first one it beats; the rest
    wait for the next sweep. An inserted vertex never goes last, so the path
    keeps ending at the target. Such a path exists iff every subset vertex
    reaches the target, as in a strong subset. A sweep that inserts nothing
    leaves vertices beaten by the whole path, which reach none of it, and
    raises `NotStrongSubsetError`. A target outside the subset raises
    `TargetNotInSubsetError` first.
    """
    verts, _ = checked_subset(t, subset)
    if target not in verts:
        raise TargetNotInSubsetError(f"target {target} not in subset")
    return _path_to(t.out_masks, verts, target)


def _path_to(out_masks: tuple[int, ...], verts: Sequence[int], target: int) -> tuple[int, ...]:
    # path_ending_at on ascending, distinct, in-range `verts` that hold `target`.
    path, on_path = [target], 1 << target
    waiting = [v for v in verts if v != target]
    while waiting:
        deferred = []
        for v in waiting:
            if out_masks[v] & on_path:
                _insert(out_masks, path, v)
                on_path |= 1 << v
            else:
                deferred.append(v)
        if len(deferred) == len(waiting):
            raise NotStrongSubsetError(f"vertex {deferred[0]} does not reach target {target}")
        waiting = deferred
    return tuple(path)

