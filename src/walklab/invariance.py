"""Exhaustive recording-invariance checks.

Records exist to be relabeling-invariant: permuting a graph's vertices
must change neither any fixed walk's record (byte for byte) nor the
probability distribution over records.  This module verifies both, by
exact enumeration of walk distributions on small graphs: every labeled
connected graph up to ``EXACT_N`` vertices, plus random connected
samples above that, against random permutations, across the conductance
and second-order grid.

A record depends only on the walk, not on its probability, so configs
that put positive probability on the same walks (a support class: same
length, restart mode and backtracking rule) share one walk tree per
graph.  The trees are enumerated level by level
(:func:`~walklab.walks.walk_tree_levels`), several graphs at once: each
graph together with its relabelings, as many graphs per pass as
``LEAF_BUDGET`` allows by their enumeration bounds, which are all
checked before anything is enumerated.  Each level's rows, every
config's for every node, come from one call of the pass's array row
compiler, and the pass checks that each config keeps exactly the
successors of the class's first config, so a wrong grouping fails
loudly; each leaf's probability under each config is the same
left-to-right product :func:`~walklab.walks.enumerate_walk_distribution`
forms.  A :class:`~walklab.records.LevelRecorder` follows the levels,
reading the neighbors from the compiler, and leaves each walk's
named-neighbor record as one integer row.  The walks
of each relabeled tree are matched to the original's through their
sorted keys (per position the vertex, mapped through the permutation,
and the restart flag); each must have its counterpart, with the same
record row and probabilities, and each config's record distribution,
summed in the original's leaf order, must agree.

Failures raise immediately with the offending graph and walk; the
report only summarizes how much was checked.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, Permutation, apply_permutation, build_graph
from .records import LevelRecorder
from .walks import (
    LEAF_BUDGET,
    MDLR,
    Constant,
    Node2Vec,
    RestartProb,
    TreeLevel,
    WalkConfig,
    _RowCompiler,
    check_enumeration_bound,
    leaf_walks,
    rng_stream,
    walk_tree_levels,
)

# Not called here: perfbench/tracing.py wraps this name on this module.
from .walks import enumerate_walk_distribution  # noqa: F401

__all__ = [
    "InvarianceReport",
    "connected_graphs_exact",
    "random_connected_graph",
    "suite_configs",
    "run_invariance_suite",
    "EXACT_N",
]

EXACT_N = 4


def connected_graphs_exact(n: int) -> list[Graph]:
    """Every labeled connected graph on ``n`` vertices (n <= 6 is sane)."""
    pairs = list(itertools.combinations(range(n), 2))
    found = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        try:
            found.append(build_graph(edges, n))
        except ValueError:
            continue
    return found


def random_connected_graph(
    n: int, rng: np.random.Generator, p: float = 0.5
) -> Graph:
    """Rejection-sample a connected G(n, p) graph."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        mask = rng.random(len(pairs)) < p
        edges = [e for e, keep in zip(pairs, mask) if keep]
        try:
            return build_graph(edges, n)
        except ValueError:
            continue


def suite_configs(max_l: int) -> list[WalkConfig]:
    """The walk grid: {uniform, min-degree} x {plain, NB, biased(2,1)}.

    A restarting configuration rides along at a shorter length: restarts
    produce the ``;`` token and must be invariant like everything else.
    """
    grid = []
    for cond in (Constant(), MDLR()):
        for nb, n2v in ((False, None), (True, None), (False, Node2Vec(2.0, 1.0))):
            grid.append(
                WalkConfig(length=max_l, conductance=cond,
                           non_backtracking=nb, node2vec=n2v)
            )
    grid.append(
        WalkConfig(length=max(1, max_l - 1), conductance=Constant(),
                   restart=RestartProb(0.3))
    )
    return grid


@dataclass(frozen=True)
class InvarianceReport:
    graphs: int
    permutations: int
    configs_per_graph: int
    walks_compared: int
    max_probability_gap: float


# a tree's records: per leaf its record's index, the first leaf of each
# record, and per config each record's probability
_Dists = tuple[np.ndarray, np.ndarray, np.ndarray]


class _Forest:
    """The walk trees of ``graphs`` under one support class, with records.

    One level-by-level pass over every tree at once
    (:func:`~walklab.walks.walk_tree_levels`), its rows compiled for all
    the graphs' vertices, with a
    :class:`~walklab.records.LevelRecorder` along, leaves each tree's
    walks as a contiguous run of leaves in depth-first order: per leaf
    its positions and restart flags, its record row and, per config,
    its probability.
    """

    def __init__(self, graphs: Sequence[Graph], configs: Sequence[WalkConfig]) -> None:
        self.graphs, self.configs = graphs, configs
        compiler = _RowCompiler(graphs, configs)
        roots = [(k, s, 1.0 / g.n) for k, g in enumerate(graphs) for s in range(g.n)]
        recorder = LevelRecorder(compiler)
        levels: list[TreeLevel] = []
        for level in walk_tree_levels(compiler, roots):
            if levels:
                recorder.step(level, levels[-1].vertex)
            else:
                recorder.start(level)
            levels.append(level)
        self.vertices, self.restarts = leaf_walks(levels)
        self.rows, self.texts = recorder.rows, recorder.texts
        self.probs = levels[-1].probs
        ends = np.cumsum(np.bincount(levels[-1].tree, minlength=len(graphs))).tolist()
        self.trees = [slice(a, b) for a, b in zip([0, *ends], ends)]

    def walk(self, k: int, i: int) -> tuple[int, ...]:
        """The positions of leaf ``i`` of tree ``k``."""
        return tuple(self.vertices[self.trees[k]][i].tolist())

    def record_distributions(self, k: int) -> _Dists:
        """Tree ``k``'s records, each record's probability summed in leaf order."""
        rows = np.ascontiguousarray(self.rows[self.trees[k]])
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # bincount adds the weights in index order, as a loop over the leaves would
        sums = np.array([np.bincount(inverse, weights=p, minlength=len(first))
                         for p in self.probs[:, self.trees[k]]])
        return inverse, first, sums


def _compare_relabeled(forest: _Forest, k: int, dists: _Dists, j: int,
                       mapping: tuple[int, ...], tol: float) -> float:
    """Check tree ``j`` of ``forest``, tree ``k``'s graph relabeled by ``mapping``.

    Both trees must hold as many walks, and each walk of tree ``k`` its
    counterpart, found through the sorted walk keys, with the same
    record and per config a probability within ``tol``; so must the
    record distributions of tree ``k`` and the relabeled ones, summed in
    tree ``k``'s leaf order.  Returns the worst gap; raises on any
    mismatch.
    """
    a, b = forest.trees[k], forest.trees[j]
    g, pg, config = forest.graphs[k], forest.graphs[j], forest.configs[0]
    if a.stop - a.start != b.stop - b.start:
        raise AssertionError(
            f"walk supports differ under relabeling: {a.stop - a.start} vs "
            f"{b.stop - b.start} walks on {g} with {config}"
        )
    # a walk's key: per position its vertex (in pg's labels) and restart flag
    keys = np.array(mapping)[forest.vertices[a]] * 2 + forest.restarts[a]
    pkeys = forest.vertices[b].astype(np.intp) * 2 + forest.restarts[b]
    order, porder = np.lexsort(keys.T[::-1]), np.lexsort(pkeys.T[::-1])
    if (keys[order] != pkeys[porder]).any():
        known = set(map(tuple, pkeys.tolist()))
        i = next(i for i, key in enumerate(map(tuple, keys.tolist())) if key not in known)
        raise AssertionError(
            f"walk {forest.walk(k, i)} has no relabeled counterpart on {pg} with {config}"
        )
    match = np.empty_like(order)
    match[order] = porder  # leaf i of tree k is leaf match[i] of tree j
    probs, pprobs = forest.probs[:, a], forest.probs[:, b][:, match]
    rows, prows = forest.rows[a], forest.rows[b][match]
    gaps = np.abs(probs - pprobs)
    bad = (gaps > tol).any(axis=0) | (rows != prows).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        for c, config in enumerate(forest.configs):
            if gaps[c, i] > tol:
                raise AssertionError(
                    f"probability gap {gaps[c, i]:.3e} for walk {forest.walk(k, i)} "
                    f"under {config} on {g}"
                )
        raise AssertionError(
            f"records differ under relabeling for walk {forest.walk(k, i)}: "
            f"{forest.texts(rows[i])} vs {forest.texts(prows[i])}"
        )
    worst = float(gaps.max(initial=0.0))

    # aggregate record-distribution equality (follows from the per-walk
    # pairing, asserted anyway as the contract is stated over records)
    inverse, first, sums = dists
    for dist, pprob in zip(sums, pprobs):
        gaps = np.abs(dist - np.bincount(inverse, weights=pprob, minlength=len(first)))
        worst = max(worst, float(gaps.max(initial=0.0)))
        if (gaps > tol).any():
            r = int((gaps > tol).argmax())
            raise AssertionError(
                f"record-distribution gap {gaps[r]:.3e} for record "
                f"{forest.texts(rows[first[r]])[0]!r}"
            )
    return worst


def support_classes(configs: Sequence[WalkConfig]) -> list[list[WalkConfig]]:
    """Group ``configs`` by walk support, keeping their order.

    Configs of equal length, restart mode and backtracking rule put
    positive probability on the same walks, whatever their conductance
    and node2vec bias, so they share one walk tree.
    """
    classes: dict[tuple, list[WalkConfig]] = {}
    for config in configs:
        key = (config.length, config.restart, config.non_backtracking)
        classes.setdefault(key, []).append(config)
    return list(classes.values())


def suite_graphs(max_n: int, seed: int, samples_per_n: int) -> list[Graph]:
    """The suite's graphs: every connected graph on 2 to ``EXACT_N``
    vertices, then ``samples_per_n`` sampled per larger size up to
    ``max_n``, size ``n`` from the stream ``(seed, n)``."""
    graphs: list[Graph] = []
    for n in range(2, min(max_n, EXACT_N) + 1):
        graphs.extend(connected_graphs_exact(n))
    for n in range(EXACT_N + 1, max_n + 1):
        rng = rng_stream(seed, n)
        graphs.extend(
            random_connected_graph(n, rng) for _ in range(samples_per_n)
        )
    return graphs


def run_invariance_suite(
    max_n: int = 6,
    max_l: int = 4,
    seed: int = 0,
    samples_per_n: int = 200,
    permutations_per_graph: int = 2,
    tol: float = 1e-9,
) -> InvarianceReport:
    """Run the whole grid; raise on the first violation.

    Graphs with at most ``EXACT_N`` vertices are enumerated completely;
    each larger size contributes ``samples_per_n`` random connected
    graphs.  Every graph is checked against random permutations drawn
    from the stream ``(seed, 10_000 + graph index)``.  A run that would
    check nothing (``max_n < 2``, ``permutations_per_graph < 1``) or a
    negative ``samples_per_n`` raises ``ValueError``, as does a walk
    tree beyond the enumeration guard, before anything is enumerated.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    if permutations_per_graph < 1:
        raise ValueError(
            f"permutations_per_graph must be >= 1, got {permutations_per_graph}"
        )
    if samples_per_n < 0:
        raise ValueError(f"samples_per_n must be >= 0, got {samples_per_n}")
    graphs = suite_graphs(max_n, seed, samples_per_n)
    configs = suite_configs(max_l)
    classes = support_classes(configs)
    # a relabeled tree has its original's bound; every (graph, class) is
    # checked before anything is enumerated
    trees = 1 + permutations_per_graph
    leaves = [trees * max(check_enumeration_bound(g, cls[0], g.n) for cls in classes)
              for g in graphs]

    walks_total = 0
    worst = 0.0
    for batch in _batches(leaves):
        perms, forest_graphs = [], []
        for gi in batch:
            rng = rng_stream(seed, 10_000 + gi)
            perms.append([Permutation(tuple(int(x) for x in rng.permutation(graphs[gi].n)))
                          for _ in range(permutations_per_graph)])
            forest_graphs.append(graphs[gi])
            forest_graphs.extend(apply_permutation(graphs[gi], perm) for perm in perms[-1])
        for configs_of_class in classes:
            forest = _Forest(forest_graphs, configs_of_class)
            for k, graph_perms in zip(range(0, len(forest_graphs), trees), perms):
                dists = forest.record_distributions(k)
                walks = forest.trees[k].stop - forest.trees[k].start
                for j, perm in enumerate(graph_perms, start=k + 1):
                    gap = _compare_relabeled(forest, k, dists, j, perm.mapping, tol)
                    walks_total += walks * len(configs_of_class)
                    worst = max(worst, gap)
    return InvarianceReport(
        graphs=len(graphs),
        permutations=len(graphs) * permutations_per_graph,
        configs_per_graph=len(configs),
        walks_compared=walks_total,
        max_probability_gap=worst,
    )


def _batches(leaves: Sequence[int]) -> Iterator[list[int]]:
    """Consecutive graph indices whose leaf bounds sum to at most
    ``LEAF_BUDGET``, one graph at least."""
    batch: list[int] = []
    total = 0
    for gi, count in enumerate(leaves):
        if batch and total + count > LEAF_BUDGET:
            yield batch
            batch, total = [], 0
        batch.append(gi)
        total += count
    if batch:
        yield batch
