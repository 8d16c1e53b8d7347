"""Reference samplers the tests check the package against.

The package samples global cover only in lockstep (:mod:`walklab.cover`).
:func:`sample_cover_time` here is the plain scalar counterpart: one
restart-free trial stepped by :meth:`~walklab.walks.StepTable.steps` on
stream ``(seed, walk_index)``, which no lockstep chunk reads, so its
estimates are independent of the lockstep ones.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from walklab.cover import DEFAULT_BUDGET, _check_mode, _checked_seed
from walklab.graphs import Graph
from walklab.walks import StepTable, WalkConfig, rng_stream


def cover_targets(
    mode: str, vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> tuple[frozenset, dict[tuple[int, int], tuple[int, int]] | None]:
    """What a mode covers: ``(targets, arc_target)``.

    Vertex mode targets the vertices and needs no arc map.  The edge
    modes map each arc to the target its traversal covers: the pair
    ``(u, v)``, ``u < v``, from either direction in "edge" mode, the
    arc itself in "edge-strict" mode.  ``edges`` come as ``u < v``.
    """
    if mode == "vertex":
        return frozenset(vertices), None
    strict = mode == "edge-strict"
    arc_target = {}
    for u, v in edges:
        arc_target[(u, v)] = (u, v)
        arc_target[(v, u)] = (v, u) if strict else (u, v)
    return frozenset(arc_target.values()), arc_target


def cover_time(
    table: StepTable,
    start: int,
    rng: np.random.Generator,
    targets: frozenset,
    arc_target: dict[tuple[int, int], tuple[int, int]] | None,
    budget: int,
) -> int | None:
    """Steps until every target is covered (None = censored).

    Without ``arc_target`` the targets are vertices, covered by visits
    (the start counts).  Otherwise they are edges, and traversing arc
    ``a`` covers ``arc_target[a]``; restart jumps visit their landing
    vertex but traverse no edge.
    """
    need = set(targets)
    if arc_target is None:
        need.discard(start)
    if not need:
        return 0
    prev = start
    t = 0
    for v, was_restart in table.steps(start, rng):
        t += 1
        if arc_target is None:
            need.discard(v)
        elif not was_restart:
            need.discard(arc_target.get((prev, v)))
        if not need:
            return t
        if t >= budget:
            return None
        prev = v


def sample_cover_time(
    g: Graph,
    config: WalkConfig,
    start: int,
    mode: str,
    walk_index: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> int | None:
    """One global cover-time sample; None when the budget censored it.

    Vertex mode runs until every vertex is visited, edge mode until
    every edge is traversed in at least one direction, edge-strict mode
    until both directions of every edge are traversed.  The walk must be
    restart-free.
    """
    _check_mode(mode)
    rng = rng_stream(_checked_seed(g, config, 1, start, budget), walk_index)
    covers, arc_target = cover_targets(mode, range(g.n), g.edges())
    return cover_time(StepTable(g, config), start, rng, covers, arc_target, budget)
