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
named-neighbor record as one integer row.

Each pass is checked in one comparison (:func:`_check_forest`): the
relabeled trees' walks are mapped back to the original labels, every
leaf is sorted once by (tree, walk key), the key per position the
vertex and the restart flag, and that order pairs each relabeled walk
with its original.  Every probability and record row of every pair is
compared at once, and each config's record distributions, the
original's and the relabeled one, are summed with one ``bincount``
over (pair, record) bins, in the original's leaf order, so each float
is the one a comparison pair by pair would give.

A failure raises with the offending graph and walk: the first failing
(original, relabeled) pair of the pass, and its first fault in the
order walk count, counterpart, probability or record, record
distribution.  The report only summarizes how much was checked.
"""
from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, Permutation, apply_permutation, build_graph
from .records import LevelRecorder
from .walks import (
    MDLR,
    Constant,
    Node2Vec,
    RestartProb,
    WalkConfig,
    _RowCompiler,
    _batches,
    _check_depth,
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
# the largest gap allowed between a walk's, or a record's, probabilities
_TOL = 1e-9


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


def random_connected_graph(n: int, rng: np.random.Generator) -> Graph:
    """Rejection-sample a connected G(n, 1/2) graph."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        mask = rng.random(len(pairs)) < 0.5
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


@dataclass(frozen=True, slots=True)
class InvarianceReport:
    graphs: int
    permutations: int
    configs_per_graph: int
    walks_compared: int
    max_probability_gap: float


class _Forest:
    """The walk trees of ``graphs`` under one support class, with records.

    One level-by-level pass over every tree at once
    (:func:`~walklab.walks.walk_tree_levels`), its rows compiled for all
    the graphs' vertices, with a
    :class:`~walklab.records.LevelRecorder` along, leaves each tree's
    walks as a contiguous run of leaves in depth-first order: per leaf
    its tree, positions and restart flags, its record row and, per
    config, its probability.  Only the last level's probabilities are
    kept; the levels above keep what :func:`~walklab.walks.leaf_walks`
    reads.
    """

    def __init__(self, graphs: Sequence[Graph], configs: Sequence[WalkConfig]) -> None:
        self.graphs, self.configs = graphs, configs
        compiler = _RowCompiler(graphs, configs)
        roots = [(k, s, 1.0 / g.n) for k, g in enumerate(graphs) for s in range(g.n)]
        recorder = LevelRecorder(compiler)
        self.vertices, self.restarts, last = leaf_walks(
            recorder.follow(walk_tree_levels(compiler, roots)))
        self.rows, self.texts = recorder.rows, recorder.texts
        self.tree, self.probs = last.tree, last.probs
        ends = np.cumsum(np.bincount(self.tree, minlength=len(graphs))).tolist()
        self.trees = [slice(a, b) for a, b in zip([0, *ends], ends)]

    def walk(self, k: int, i: int) -> tuple[int, ...]:
        """The positions of leaf ``i`` of tree ``k``."""
        return tuple(self.vertices[self.trees[k]][i].tolist())


def _byte_order(tree: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The order of the rows of ``a`` by (``tree``, the row's bytes).

    Bytes compare unsigned, the first first: the order ``np.unique``
    gives rows viewed as ``np.void``.  One byte per key lets ``lexsort``
    sort each key by radix.
    """
    raw = np.ascontiguousarray(a).view(np.uint8).reshape(len(a), -1)
    return np.lexsort((*raw.T[::-1], tree.astype(np.min_scalar_type(tree.max(initial=0)))))


def _check_forest(forest: _Forest, own: np.ndarray, back: np.ndarray,
                  tol: float) -> tuple[int, float]:
    """Check every relabeled tree of ``forest`` against its original at once.

    Tree ``j`` is the graph of tree ``own[j]`` relabeled, vertex ``v``
    of ``j`` being ``back[j, v]`` of the original (tree ``j`` is an
    original where ``own[j] == j``).  Each relabeled tree must hold as
    many walks as its original, and each original walk its counterpart:
    mapped back to the original labels, all walks are sorted once by
    (tree, walk key), the key per position the vertex and the restart
    flag, and the i-th walk of a relabeled tree in that order is the
    counterpart of the i-th of its original.  Counterparts must have the
    same record row and, per config, probabilities within ``tol``; and
    each config's record distributions, the original's and the
    relabeled one, both summed in the original's leaf order, must agree.
    Returns the walks compared, over all configs, and the worst gap.
    Raises for the first failing pair in tree order, naming its first
    fault among: walk count, counterpart, probability or record, record
    distribution.
    """
    tree, probs, rows = forest.tree, forest.probs, forest.rows
    n_trees = len(own)
    relabeled = own != np.arange(n_trees)
    counts = np.bincount(tree, minlength=n_trees)
    starts = np.cumsum(counts) - counts
    paired = relabeled & (counts == counts[own])

    # pair the walks: entry e matches leaf kleaf[e] of an original, in
    # leaf order, with its counterpart jleaf[e] in relabeled tree pair[e]
    keys = forest.restarts.astype(back.dtype)
    for t, vertex in enumerate(forest.vertices.T):
        keys[:, t] += back[tree, vertex] * 2
    order = _byte_order(tree, keys)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    jpos = np.flatnonzero(paired[tree])
    pair = tree[jpos]
    shift = (starts - starts[own])[pair]
    kleaf = jpos - shift
    jleaf = order[rank[kleaf] + shift]
    unmatched = (keys[kleaf] != keys[jleaf]).any(axis=1)

    # record distributions: the originals' leaves sorted by (tree,
    # record) give each record of an original a bin, and each pair has
    # its own copy of its original's bins
    leaves = np.flatnonzero(~relabeled[tree])
    by_record = leaves[_byte_order(tree[leaves], rows[leaves])]
    in_tree, row = tree[by_record], rows[by_record]
    new = np.ones(len(leaves), dtype=bool)
    new[1:] = (in_tree[1:] != in_tree[:-1]) | (row[1:] != row[:-1]).any(axis=1)
    first = by_record[new]  # a leaf of each bin
    record = np.empty(len(tree), dtype=np.intp)
    record[by_record] = np.cumsum(new) - 1
    bin_start = np.searchsorted(tree[first], np.arange(n_trees + 1))
    n_bins = np.diff(bin_start)[own] * paired
    bin_pair = np.repeat(np.arange(n_trees), n_bins)
    index = record[kleaf] + (np.cumsum(n_bins) - n_bins - bin_start[own])[pair]

    # per config: every pair's probabilities, and its record
    # distributions, summed from the original's leaves and, apart, from
    # their counterparts, in the original's leaf order (bincount adds
    # the weights in index order)
    wrong = (rows[kleaf] != rows[jleaf]).any(axis=1)
    skewed = np.zeros(len(bin_pair), dtype=bool)
    worst = 0.0
    for prob in probs:
        gaps = np.abs(prob[kleaf] - prob[jleaf])
        dist_gaps = np.abs(np.bincount(index, prob[kleaf], len(bin_pair))
                           - np.bincount(index, prob[jleaf], len(bin_pair)))
        worst = max(worst, gaps.max(initial=0.0), dist_gaps.max(initial=0.0))
        wrong |= gaps > tol
        skewed |= dist_gaps > tol

    failed = (relabeled & ~paired) | (np.bincount(np.concatenate(
        (pair[unmatched | wrong], bin_pair[skewed])), minlength=n_trees) > 0)
    if failed.any():
        j = int(failed.argmax())
        k, entries = int(own[j]), pair == j
        _raise_fault(forest, k, j, keys, kleaf[entries], jleaf[entries],
                     record[kleaf[entries]] - bin_start[k], first[bin_start[k]:bin_start[k + 1]],
                     tol)
    return int(counts[own[relabeled]].sum()) * len(probs), float(worst)


def _raise_fault(forest: _Forest, k: int, j: int, keys: np.ndarray, kleaf: np.ndarray,
                 jleaf: np.ndarray, record: np.ndarray, records: np.ndarray,
                 tol: float) -> None:
    """Raise the first fault of original tree ``k`` and its relabeled
    tree ``j``, from their entries in :func:`_check_forest`: each
    original leaf, in leaf order, its counterpart and its record's bin,
    and a leaf of each bin's record."""
    g, pg, config = forest.graphs[k], forest.graphs[j], forest.configs[0]
    a, b = forest.trees[k], forest.trees[j]
    if a.stop - a.start != b.stop - b.start:
        raise AssertionError(
            f"walk supports differ under relabeling: {a.stop - a.start} vs "
            f"{b.stop - b.start} walks on {g} with {config}"
        )
    if (keys[kleaf] != keys[jleaf]).any():
        # the first original walk that the relabeled tree holds fewer
        # times than the original holds it so far
        left = collections.Counter(map(tuple, keys[b].tolist()))
        for i, key in enumerate(map(tuple, keys[a].tolist())):
            left[key] -= 1
            if left[key] < 0:
                break
        raise AssertionError(
            f"walk {forest.walk(k, i)} has no relabeled counterpart on {pg} with {config}"
        )
    probs, rows = forest.probs, forest.rows
    gaps = np.abs(probs[:, kleaf] - probs[:, jleaf])
    wrong = (gaps > tol).any(axis=0) | (rows[kleaf] != rows[jleaf]).any(axis=1)
    if wrong.any():
        e = int(wrong.argmax())
        walk = forest.walk(k, int(kleaf[e]) - a.start)
        for c, config in enumerate(forest.configs):
            if gaps[c, e] > tol:
                raise AssertionError(
                    f"probability gap {gaps[c, e]:.3e} for walk {walk} under {config} on {g}"
                )
        raise AssertionError(
            f"records differ under relabeling for walk {walk}: "
            f"{forest.texts(rows[kleaf[e]])} vs {forest.texts(rows[jleaf[e]])}"
        )
    for prob in probs:
        dist_gaps = np.abs(np.bincount(record, prob[kleaf], len(records))
                           - np.bincount(record, prob[jleaf], len(records)))
        if (dist_gaps > tol).any():
            r = int((dist_gaps > tol).argmax())
            raise AssertionError(
                f"record-distribution gap {dist_gaps[r]:.3e} for record "
                f"{forest.texts(rows[records[r]])[0]!r}"
            )


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
    # checked before anything is enumerated, the leaf bounds first
    trees = 1 + permutations_per_graph
    leaves = [trees * max(check_enumeration_bound(g, cls[0], g.n) for cls in classes)
              for g in graphs]
    _check_depth(max(g.n for g in graphs), max(config.length for config in configs))

    walks_total = 0
    worst = 0.0
    for batch in _batches(leaves):
        # each graph's tree, then one per relabeling; back[j, v] is the
        # original label of vertex v of tree j
        forest_graphs = [graphs[gi] for gi in batch for _ in range(trees)]
        own = np.repeat(np.arange(0, len(forest_graphs), trees), trees)
        n = max(g.n for g in forest_graphs)
        back = np.tile(np.arange(n, dtype=np.min_scalar_type(2 * n + 1)), (len(forest_graphs), 1))
        for k, gi in zip(own[::trees], batch):
            rng = rng_stream(seed, 10_000 + gi)
            for j in range(k + 1, k + trees):
                perm = Permutation(tuple(int(x) for x in rng.permutation(graphs[gi].n)))
                forest_graphs[j] = apply_permutation(graphs[gi], perm)
                back[j, :len(perm)] = perm.inverse().mapping
        for configs_of_class in classes:
            walks, gap = _check_forest(_Forest(forest_graphs, configs_of_class), own, back, _TOL)
            walks_total += walks
            worst = max(worst, gap)
    return InvarianceReport(
        graphs=len(graphs),
        permutations=len(graphs) * permutations_per_graph,
        configs_per_graph=len(configs),
        walks_compared=walks_total,
        max_probability_gap=worst,
    )

