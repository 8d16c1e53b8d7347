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
per (graph, permutation) over the graph's walk tree.  The relabeled
graph's tree is walked in step.  At each node the pass reads every
config's branches on both graphs and checks, per config, that every
branch has its relabeled counterpart, with as many branches on both
sides, and that the config branches exactly as the class's first config
does, so a wrong grouping fails loudly.  Both sides carry one
:class:`~walklab.records.Recorder` for the class, so a shared walk
prefix is recorded once, and each leaf holds, per config, both walk
probabilities as the same left-to-right products
:func:`~walklab.walks.enumerate_walk_distribution` forms.

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

# Not called here: perfbench/tracing.py wraps these names on this module,
# as it does the functions the suite calls.
from .records import record_anonymized, record_named_neighbors  # noqa: F401
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


class _PairedWalkTree:
    """Walk and record distributions on ``g`` against its relabeling.

    One depth-first pass over ``g``'s walk tree walks the relabeled
    graph's tree in step, for every config of one support class at once
    (see the module docstring).  A class rather than nested functions: a
    recursive closure is a reference cycle, which would keep every
    check's tables and record maps alive until the cyclic garbage
    collector next runs.
    """

    def __init__(self, g: Graph, perm: Permutation,
                 configs: Sequence[WalkConfig], tol: float) -> None:
        for config in configs:
            check_enumeration_bound(g, config, g.n)
        self.g, self.configs, self.tol = g, tuple(configs), tol
        self.pg = apply_permutation(g, perm)
        self.tables = [StepTable(g, config) for config in configs]
        self.ptables = [StepTable(self.pg, config) for config in configs]
        self.pm = perm.mapping
        self.leaf_t = configs[0].length + 1
        self.path: list[int] = []  # the walk on g, up to the current node
        # per config, the record distributions on g and on its relabeling
        self.rec_dists: list[tuple[dict[tuple[str, str], float], ...]] = [
            ({}, {}) for _ in configs
        ]
        self.leaves = 0  # walks per config: the class shares one support
        self.worst = 0.0

    def check(self) -> tuple[int, float]:
        """Walk every start's tree, then compare the record distributions.

        Returns (walks compared over all configs, worst probability gap);
        raises on any mismatch.
        """
        g, pg, pm, path = self.g, self.pg, self.pm, self.path
        start_probs = [1.0 / g.n] * len(self.configs)
        for s in range(g.n):
            path.append(s)
            self._extend(Recorder(s, g), Recorder(pm[s], pg), None, False,
                         start_probs, start_probs)
            path.pop()

        # aggregate record-distribution equality (follows from the per-walk
        # pairing, asserted anyway as the contract is stated over records)
        for rec_dist_g, rec_dist_pg in self.rec_dists:
            for key, prob in rec_dist_g.items():
                gap = abs(prob - rec_dist_pg[key])
                self.worst = max(self.worst, gap)
                if gap > self.tol:
                    raise AssertionError(
                        f"record-distribution gap {gap:.3e} for record {key[0]!r}"
                    )
        return self.leaves * len(self.configs), self.worst

    def _extend(self, rec: Recorder, prec: Recorder, prev: int | None,
                after_restart: bool, probs: Sequence[float],
                mapped_probs: Sequence[float]) -> None:
        path, pm = self.path, self.pm
        t = len(path)
        if t == self.leaf_t:
            self._leaf(rec, prec, probs, mapped_probs)
            return
        start, cur = path[0], path[-1]
        pstart, pprev, pcur = pm[start], None if prev is None else pm[prev], pm[cur]
        first = keys = None
        # per config, the children's probabilities on g and on its relabeling
        child_probs, child_mapped = [], []
        for config, table, ptable, prob, mapped_prob in zip(
                self.configs, self.tables, self.ptables, probs, mapped_probs):
            branches = table.branches(start, prev, cur, t, after_restart)
            mapped = {
                (x, flag): q
                for x, flag, q in ptable.branches(pstart, pprev, pcur, t, after_restart)
            }
            if len(branches) != len(mapped):
                raise AssertionError(
                    f"walk supports differ under relabeling after {tuple(path)}: "
                    f"{len(branches)} vs {len(mapped)} branches on {self.g} "
                    f"with {config}"
                )
            if first is None:
                first = branches
                keys = [(pm[x], flag) for x, flag, _ in branches]
            elif ([(x, flag) for x, flag, _ in branches]
                  != [(x, flag) for x, flag, _ in first]):
                raise AssertionError(
                    f"configs of one support class branch differently after "
                    f"{tuple(path)} on {self.g}: {config} against {self.configs[0]}"
                )
            try:
                child_mapped.append([mapped_prob * mapped[key] for key in keys])
            except KeyError:
                x = next(x for (x, flag, _), key in zip(first, keys) if key not in mapped)
                raise AssertionError(
                    f"walk {(*path, x)} has no relabeled counterpart on {self.pg} "
                    f"with {config}"
                ) from None
            child_probs.append([prob * q for _, _, q in branches])
        mark, pmark = rec.mark(), prec.mark()
        last = t + 1 == self.leaf_t  # the children are leaves
        for (x, flag, _), cprobs, cmapped in zip(first, zip(*child_probs),
                                                zip(*child_mapped)):
            path.append(x)
            rec.step(x, flag)
            prec.step(pm[x], flag)
            if last:
                self._leaf(rec, prec, cprobs, cmapped)
            else:
                self._extend(rec, prec, cur, flag, cprobs, cmapped)
            rec.rollback(mark)
            prec.rollback(pmark)
            path.pop()

    def _leaf(self, rec: Recorder, prec: Recorder, probs: Sequence[float],
              mapped_probs: Sequence[float]) -> None:
        worst, tol = self.worst, self.tol
        for config, prob, mapped_prob in zip(self.configs, probs, mapped_probs):
            gap = abs(prob - mapped_prob)
            if gap > worst:
                worst = gap
            if gap > tol:
                raise AssertionError(
                    f"probability gap {gap:.3e} for walk {tuple(self.path)} "
                    f"under {config} on {self.g}"
                )
        self.worst = worst
        texts = ("".join(rec.anon_text), "".join(rec.named_text))
        mapped_texts = ("".join(prec.anon_text), "".join(prec.named_text))
        if texts != mapped_texts:
            raise AssertionError(
                f"records differ under relabeling for walk {tuple(self.path)}: "
                f"{texts} vs {mapped_texts}"
            )
        for (rec_dist_g, rec_dist_pg), prob, mapped_prob in zip(
                self.rec_dists, probs, mapped_probs):
            rec_dist_g[texts] = rec_dist_g.get(texts, 0.0) + prob
            rec_dist_pg[texts] = rec_dist_pg.get(texts, 0.0) + mapped_prob
        self.leaves += 1


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
    from the stream ``(seed, graph index)``.  A run that would check
    nothing (``max_n < 2``, ``permutations_per_graph < 1``) or a negative
    ``samples_per_n`` raises ``ValueError``.
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
    perms_total = 0
    for gi, g in enumerate(graphs):
        rng = rng_stream(seed, 10_000 + gi)
        for _ in range(permutations_per_graph):
            perm = Permutation(tuple(int(x) for x in rng.permutation(g.n)))
            perms_total += 1
            for configs_of_class in classes:
                count, gap = _PairedWalkTree(g, perm, configs_of_class, tol).check()
                walks_total += count
                worst = max(worst, gap)
    return InvarianceReport(
        graphs=len(graphs),
        permutations=perms_total,
        configs_per_graph=len(configs),
        walks_compared=walks_total,
        max_probability_gap=worst,
    )
