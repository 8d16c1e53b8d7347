"""Exhaustive recording-invariance checks.

Records exist to be relabeling-invariant: permuting a graph's vertices
must change neither any fixed walk's record (byte for byte) nor the
probability distribution over records.  This module verifies both, by
exact enumeration of walk distributions on small graphs: every labeled
connected graph up to ``EXACT_N`` vertices, plus random connected
samples above that, against random permutations, across the conductance
and second-order grid.

Each (graph, permutation, config) check is one depth-first pass over
the graph's walk tree.  The relabeled graph's tree is walked in step:
every branch must have its relabeled counterpart, with as many branches
on both sides.  Both sides carry a :class:`~walklab.records.Recorder`,
so a shared walk prefix is recorded once, and each leaf holds both walk
probabilities as the same left-to-right products
:func:`~walklab.walks.enumerate_walk_distribution` forms.

Failures raise immediately with the offending graph and walk; the
report only summarizes how much was checked.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    graph's tree in step (see the module docstring).  A class rather
    than nested functions: a recursive closure is a reference cycle,
    which would keep every check's tables and record maps alive until
    the cyclic garbage collector next runs.
    """

    def __init__(self, g: Graph, perm: Permutation, config: WalkConfig,
                 tol: float) -> None:
        check_enumeration_bound(g, config, g.n)
        self.g, self.config, self.tol = g, config, tol
        self.pg = apply_permutation(g, perm)
        self.table = StepTable(g, config)
        self.ptable = StepTable(self.pg, config)
        self.pm = perm.mapping
        self.leaf_t = config.length + 1
        self.path: list[int] = []  # the walk on g, up to the current node
        self.rec_dist_g: dict[tuple[str, str], float] = {}
        self.rec_dist_pg: dict[tuple[str, str], float] = {}
        self.walks = 0
        self.worst = 0.0

    def check(self) -> tuple[int, float]:
        """Walk every start's tree, then compare the record distributions.

        Returns (walks compared, worst probability gap); raises on any
        mismatch.
        """
        g, pg, pm, path = self.g, self.pg, self.pm, self.path
        start_prob = 1.0 / g.n
        for s in range(g.n):
            path.append(s)
            self._extend(Recorder(s, g), Recorder(pm[s], pg), None, False,
                         start_prob, start_prob)
            path.pop()

        # aggregate record-distribution equality (follows from the per-walk
        # pairing, asserted anyway as the contract is stated over records)
        for key, prob in self.rec_dist_g.items():
            gap = abs(prob - self.rec_dist_pg[key])
            self.worst = max(self.worst, gap)
            if gap > self.tol:
                raise AssertionError(
                    f"record-distribution gap {gap:.3e} for record {key[0]!r}"
                )
        return self.walks, self.worst

    def _extend(self, rec: Recorder, prec: Recorder, prev: int | None,
                after_restart: bool, prob: float, mapped_prob: float) -> None:
        path, pm = self.path, self.pm
        t = len(path)
        if t == self.leaf_t:
            self._leaf(rec, prec, prob, mapped_prob)
            return
        start, cur = path[0], path[-1]
        branches = self.table.branches(start, prev, cur, t, after_restart)
        mapped = {
            (x, flag): q
            for x, flag, q in self.ptable.branches(
                pm[start], None if prev is None else pm[prev], pm[cur], t,
                after_restart)
        }
        if len(branches) != len(mapped):
            raise AssertionError(
                f"walk supports differ under relabeling after {tuple(path)}: "
                f"{len(branches)} vs {len(mapped)} branches on {self.g} "
                f"with {self.config}"
            )
        mark, pmark = rec.mark(), prec.mark()
        for x, flag, q in branches:
            mapped_q = mapped.get((pm[x], flag))
            if mapped_q is None:
                raise AssertionError(
                    f"walk {(*path, x)} has no relabeled counterpart on {self.pg}"
                )
            path.append(x)
            rec.step(x, flag)
            prec.step(pm[x], flag)
            self._extend(rec, prec, cur, flag, prob * q, mapped_prob * mapped_q)
            rec.rollback(mark)
            prec.rollback(pmark)
            path.pop()

    def _leaf(self, rec: Recorder, prec: Recorder, prob: float,
              mapped_prob: float) -> None:
        gap = abs(prob - mapped_prob)
        self.worst = max(self.worst, gap)
        if gap > self.tol:
            raise AssertionError(
                f"probability gap {gap:.3e} for walk {tuple(self.path)} "
                f"under {self.config} on {self.g}"
            )
        texts = ("".join(rec.anon_text), "".join(rec.named_text))
        mapped_texts = ("".join(prec.anon_text), "".join(prec.named_text))
        if texts != mapped_texts:
            raise AssertionError(
                f"records differ under relabeling for walk {tuple(self.path)}: "
                f"{texts} vs {mapped_texts}"
            )
        self.rec_dist_g[texts] = self.rec_dist_g.get(texts, 0.0) + prob
        self.rec_dist_pg[texts] = self.rec_dist_pg.get(texts, 0.0) + mapped_prob
        self.walks += 1


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
    walks_total = 0
    worst = 0.0
    perms_total = 0
    for gi, g in enumerate(graphs):
        rng = rng_stream(seed, 10_000 + gi)
        for _ in range(permutations_per_graph):
            perm = Permutation(tuple(int(x) for x in rng.permutation(g.n)))
            perms_total += 1
            for config in configs:
                count, gap = _PairedWalkTree(g, perm, config, tol).check()
                walks_total += count
                worst = max(worst, gap)
    return InvarianceReport(
        graphs=len(graphs),
        permutations=perms_total,
        configs_per_graph=len(configs),
        walks_compared=walks_total,
        max_probability_gap=worst,
    )
