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
length, restart mode and backtracking rule) share one depth-first pass
over a graph's walk tree.  At each node the pass reads every config's
branches and checks that each config branches exactly as the class's
first config does, so a wrong grouping fails loudly.  One
:class:`~walklab.records.Recorder` serves the class, so a shared walk
prefix is recorded once, and each leaf keeps its record texts and, per
config, its probability as the same left-to-right product
:func:`~walklab.walks.enumerate_walk_distribution` forms.  Per class, a
graph's tree is enumerated once, and then the tree of each of its
relabelings, which must hold, through the permutation, exactly the
original's walks with the same texts and probabilities.

Failures raise immediately with the offending graph and walk; the
report only summarizes how much was checked.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, Permutation, apply_permutation, build_graph
from .records import Recorder
from .walks import (
    MDLR,
    Constant,
    Node2Vec,
    RestartProb,
    StepTable,
    WalkConfig,
    check_enumeration_bound,
    rng_stream,
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


# per config, the probability of each record (anonymized, named)
_Dists = list[dict[tuple[str, str], float]]


class _WalkTree:
    """Every walk of ``g`` under one support class, with its records.

    One depth-first pass over ``g``'s walk tree, for every config of the
    class at once (see the module docstring), fills :attr:`walks`: in
    depth-first order, each walk ``(vertices, restart_flags)`` maps to
    its ``(anonymized, named)`` record texts, stored once per distinct
    record, and its probability under each config.  A class rather than
    nested functions: a recursive closure is a reference cycle, which
    would keep the tables and the walk map alive until the cyclic
    garbage collector next runs.
    """

    def __init__(self, g: Graph, configs: Sequence[WalkConfig]) -> None:
        for config in configs:
            check_enumeration_bound(g, config, g.n)
        self.g, self.configs = g, tuple(configs)
        self.tables = [StepTable(g, config) for config in configs]
        self.leaf_t = configs[0].length + 1
        self.walks: dict[tuple, tuple[tuple[str, str], tuple[float, ...]]] = {}
        self._texts: dict[tuple[str, str], tuple[str, str]] = {}
        start_probs = (1.0 / g.n,) * len(configs)
        for s in range(g.n):
            # the walk up to the current node
            self.path, self.flags = [s], [False]
            self._extend(Recorder(s, g), None, False, start_probs)

    def _extend(self, rec: Recorder, prev: int | None, after_restart: bool,
                probs: tuple[float, ...]) -> None:
        path, flags = self.path, self.flags
        t = len(path)
        if t == self.leaf_t:
            texts = ("".join(rec.anon_text), "".join(rec.named_text))
            texts = self._texts.setdefault(texts, texts)
            self.walks[tuple(path), tuple(flags)] = texts, probs
            return
        start, cur = path[0], path[-1]
        keys = None
        child_probs = []  # per config, its children's probabilities
        for config, table, prob in zip(self.configs, self.tables, probs):
            branches = table.branches(start, prev, cur, t, after_restart)
            if keys is None:
                keys = [(x, flag) for x, flag, _ in branches]
            elif [(x, flag) for x, flag, _ in branches] != keys:
                raise AssertionError(
                    f"configs of one support class branch differently after "
                    f"{tuple(path)} on {self.g}: {config} against {self.configs[0]}"
                )
            # a plain loop: a comprehension would make prob a cell
            cprobs = []
            for _, _, q in branches:
                cprobs.append(prob * q)
            child_probs.append(cprobs)
        mark = rec.mark()
        for (x, flag), cprobs in zip(keys, zip(*child_probs)):
            path.append(x)
            flags.append(flag)
            rec.step(x, flag)
            self._extend(rec, cur, flag, cprobs)
            rec.rollback(mark)
            path.pop()
            flags.pop()

    def record_distributions(self) -> _Dists:
        """Per config, the probability of each record, summed in walk order."""
        dists: _Dists = [{} for _ in self.configs]
        for texts, probs in self.walks.values():
            for dist, prob in zip(dists, probs):
                dist[texts] = dist.get(texts, 0.0) + prob
        return dists


def _compare_relabeled(tree: _WalkTree, dists: _Dists, ptree: _WalkTree,
                       mapping: tuple[int, ...], tol: float) -> float:
    """Check ``ptree``, the tree of ``tree``'s graph relabeled by ``mapping``.

    Both trees must hold as many walks, and each walk of ``tree`` its
    counterpart, with the same texts and per config a probability within
    ``tol``; so must the record distributions ``dists`` of ``tree`` and
    the relabeled ones, summed in ``tree``'s walk order.  Returns the
    worst gap; raises on any mismatch.
    """
    walks, pwalks = tree.walks, ptree.walks
    if len(walks) != len(pwalks):
        raise AssertionError(
            f"walk supports differ under relabeling: {len(walks)} vs "
            f"{len(pwalks)} walks on {tree.g} with {tree.configs[0]}"
        )
    worst = 0.0
    pdists: _Dists = [{} for _ in tree.configs]
    for (vertices, flags), (texts, probs) in walks.items():
        try:
            ptexts, pprobs = pwalks[tuple(map(mapping.__getitem__, vertices)), flags]
        except KeyError:
            raise AssertionError(
                f"walk {vertices} has no relabeled counterpart on {ptree.g} "
                f"with {tree.configs[0]}"
            ) from None
        for config, prob, pprob in zip(tree.configs, probs, pprobs):
            gap = abs(prob - pprob)
            if gap > worst:
                worst = gap
            if gap > tol:
                raise AssertionError(
                    f"probability gap {gap:.3e} for walk {vertices} "
                    f"under {config} on {tree.g}"
                )
        if texts != ptexts:
            raise AssertionError(
                f"records differ under relabeling for walk {vertices}: "
                f"{texts} vs {ptexts}"
            )
        for pdist, pprob in zip(pdists, pprobs):
            pdist[texts] = pdist.get(texts, 0.0) + pprob

    # aggregate record-distribution equality (follows from the per-walk
    # pairing, asserted anyway as the contract is stated over records)
    for dist, pdist in zip(dists, pdists):
        for key, prob in dist.items():
            gap = abs(prob - pdist[key])
            worst = max(worst, gap)
            if gap > tol:
                raise AssertionError(
                    f"record-distribution gap {gap:.3e} for record {key[0]!r}"
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
    negative ``samples_per_n`` raises ``ValueError``.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    if permutations_per_graph < 1:
        raise ValueError(
            f"permutations_per_graph must be >= 1, got {permutations_per_graph}"
        )
    if samples_per_n < 0:
        raise ValueError(f"samples_per_n must be >= 0, got {samples_per_n}")
    graphs: list[Graph] = []
    for n in range(2, min(max_n, EXACT_N) + 1):
        graphs.extend(connected_graphs_exact(n))
    for n in range(EXACT_N + 1, max_n + 1):
        rng = rng_stream(seed, n)
        graphs.extend(
            random_connected_graph(n, rng) for _ in range(samples_per_n)
        )

    configs = suite_configs(max_l)
    classes = support_classes(configs)
    walks_total = 0
    worst = 0.0
    for gi, g in enumerate(graphs):
        rng = rng_stream(seed, 10_000 + gi)
        perms = [Permutation(tuple(int(x) for x in rng.permutation(g.n)))
                 for _ in range(permutations_per_graph)]
        relabeled = [apply_permutation(g, perm) for perm in perms]
        for configs_of_class in classes:
            tree = _WalkTree(g, configs_of_class)
            dists = tree.record_distributions()
            for perm, pg in zip(perms, relabeled):
                gap = _compare_relabeled(
                    tree, dists, _WalkTree(pg, configs_of_class), perm.mapping, tol)
                walks_total += len(tree.walks) * len(configs_of_class)
                worst = max(worst, gap)
    return InvarianceReport(
        graphs=len(graphs),
        permutations=len(graphs) * permutations_per_graph,
        configs_per_graph=len(configs),
        walks_compared=walks_total,
        max_probability_gap=worst,
    )
