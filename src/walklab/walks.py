"""Random-walk engine: conductances, step distributions, sampling.

A walk is driven by edge conductances.  From ``u`` the walker moves to
neighbor ``x`` with probability proportional to ``c(u, x)``.  On top of
that sit two optional second-order variants (non-backtracking and the
p/q-biased walk), and two optional restart modes (per-step probability
or fixed period).  Restarts jump back to the walk's start vertex.

The per-step recipe for step ``t >= 1``, as :meth:`StepTable.steps` runs
it for every scalar sampler (its docstring gives the draw contract):

1. decide whether this step restarts (never at ``t = 1``; in
   probability mode never immediately after a restart; in period mode
   exactly when ``t`` is a multiple of the period),
2. on restart, move to the start vertex,
3. otherwise draw the next vertex: first-order at ``t = 1``, the
   configured second-order rule afterwards, where "previous vertex"
   always means the walker's actual position two steps back, even when
   a restart intervened.

The step law is compiled twice over, to the same bits.
:class:`StepTable` compiles one row at a time in Python, on demand, for
the scalar walk, as lists over the vertex's neighbor tuple, which
``Graph`` keeps ascending; :func:`step_distribution_second_order` reads
the same rule.  :class:`_RowCompiler` compiles the rows of many states
at once as arrays, for the exhaustive enumeration
(:func:`walk_tree_levels`), the lockstep samplers' padded table
(:meth:`PaddedRows.compile`) and :func:`transition_matrix`.  Both sum
every row left to right.  The scalar walk keeps its lazy rows because
it reads few of a graph's rows: in a prototype that read whole-graph
compiler rows instead, with the same bytes, 2,500 reconstruction-fuzz
walks took 0.56-0.66 s against 0.515 s, and ``walklab walk --family
path --n 100000 --length 10 --walks 20`` took 3.0 s against 0.29 s
(2 CPUs, Python 3.11.7, numpy 2.4.6).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .graphs import Graph, _reach

__all__ = [
    "Constant",
    "MDLR",
    "ConductanceKind",
    "Node2Vec",
    "RestartProb",
    "RestartPeriod",
    "RestartMode",
    "WalkConfig",
    "Walk",
    "step_distribution_second_order",
    "transition_matrix",
    "sample_walk",
    "enumerate_walk_distribution",
    "rng_stream",
    "ENUMERATION_GUARD",
]

ENUMERATION_GUARD = 10**7


@dataclass(frozen=True, slots=True)
class Constant:
    """Unit conductance on every edge (the classic uniform walk)."""


@dataclass(frozen=True, slots=True)
class MDLR:
    """Minimum-degree local rule: ``c(u, v) = 1 / min(deg(u), deg(v))``."""


ConductanceKind = Union[Constant, MDLR]


@dataclass(frozen=True, slots=True)
class Node2Vec:
    """Return/in-out bias parameters for the second-order p/q walk."""

    p: float
    q: float

    def __post_init__(self) -> None:
        # a step weighs candidates by 1/p and 1/q, which must be finite too
        if not all(0 < x < math.inf and 1 / x < math.inf for x in (self.p, self.q)):
            raise ValueError("p and q must be positive and finite, with finite "
                             f"reciprocals, got p={self.p}, q={self.q}")


@dataclass(frozen=True, slots=True)
class RestartProb:
    """Restart with probability ``alpha`` per step (never twice in a row)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True, slots=True)
class RestartPeriod:
    """Restart exactly at steps ``k, 2k, 3k, ...``."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"period must be >= 1, got {self.k}")


RestartMode = Union[RestartProb, RestartPeriod]


@dataclass(frozen=True, slots=True)
class WalkConfig:
    """Everything that determines a walk's law, plus the RNG seed.

    ``length`` counts steps, so a walk visits ``length + 1`` positions.
    ``non_backtracking`` and ``node2vec`` are mutually exclusive ways of
    conditioning on the previous position.
    """

    length: int
    conductance: ConductanceKind = Constant()
    non_backtracking: bool = False
    node2vec: Node2Vec | None = None
    restart: RestartMode | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        if self.non_backtracking and self.node2vec is not None:
            raise ValueError("non_backtracking and node2vec cannot be combined")
        if not isinstance(self.conductance, (Constant, MDLR)):
            raise TypeError(f"unknown conductance kind: {self.conductance!r}")


@dataclass(frozen=True, slots=True)
class Walk:
    """A sampled trajectory: positions and which steps were restarts.

    ``restart_flags[t]`` is True when position ``t`` was reached by a
    restart jump rather than an edge move; ``restart_flags[0]`` is
    always False.
    """

    vertices: tuple[int, ...]
    restart_flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.restart_flags):
            raise ValueError("vertices and restart_flags must have equal length")
        if not self.vertices:
            raise ValueError("a walk has at least its start position")
        if self.restart_flags[0]:
            raise ValueError("the start position is not a restart")

    def __len__(self) -> int:
        return len(self.vertices)


def _normalized(weights: list[float]) -> list[float]:
    """``weights`` divided by their left-to-right sum, as ``np.cumsum`` adds a row.

    From Python 3.12 on, ``sum()`` of floats is compensated and may round
    otherwise, which would tie the rows' bits to the Python version.
    """
    total = 0.0
    for w in weights:
        total += w
    probs = []
    for w in weights:
        probs.append(w / total)
    return probs


def step_distribution_second_order(
    g: Graph, config: WalkConfig, prev: int | None, cur: int
) -> dict[int, float]:
    """Transition distribution out of ``cur`` given the previous position.

    ``prev is None`` means there is no history (the walk's first step)
    and the distribution is plainly first-order: each edge weighs its
    conductance, 1 or 1 / min(deg cur, deg x).  With
    ``non_backtracking`` the previous vertex is excluded and the rest
    renormalized; when it was the only neighbor the walker backtracks
    anyway (probability one).  With ``node2vec`` each candidate's
    first-order weight is scaled by 1/p, 1 or 1/q according to whether
    it is the previous vertex, adjacent to it, or neither; if the
    previous position is not a neighbor of ``cur`` (possible right
    after a restart) the step falls back to first-order, since the
    bias is defined over the configured edge move that never happened.
    """
    return dict(zip(*StepTable(g, config).law(prev, cur)))


class PaddedRows:
    """The step law of one (graph, config) as rectangular arrays, for
    lockstep kernels; :meth:`compile` builds them.

    States ``0..n-1`` are the walk's start vertices, stepping under the
    rows ``(None, v)``.  After any move the state is the arc just
    traversed: state ``n + a`` for arc ``a = (u, v)``, stepping under
    row ``(u, v)`` (which a first-order config reads as ``(None, v)``).
    Arcs are numbered in (tail, head) order and undirected edges in
    ``Graph.edges`` order.  Slot ``i`` of state ``s`` moves to state
    ``next[s, i]``; ``cum`` is padded with 2.0 so a padded slot is never
    selected.  Per state, ``position`` is the vertex the walker stands
    at, and ``arc`` and ``edge`` are what the last move traversed (-1
    for the start states).

    :meth:`draw` moves many lanes at once by the indexed search of Chen
    and Asau (1974; Devroye, *Non-Uniform Random Variate Generation*,
    1986, section III.2.4).  With ``W`` the row width and ``B`` the
    smallest power of two of at least ``4 * W``, bin ``b`` of state
    ``s``'s guide holds the flat slot ``s * W + #{i : cum[s, i] <= b/B}``.
    A lane with uniform ``u`` in [0, 1) starts at the slot of bin
    ``b = floor(u * B)`` and advances while ``u >= cum``.  It stops at
    slot ``(u >= cum[s]).sum()`` of the row, the slot the plain padded
    count and ``bisect_right`` pick, for two reasons.  First, for any
    ``x`` in [0, 1) the sums at most ``x`` are a prefix of the row: sums
    of non-negative probabilities never decrease, except that the
    forced final 1.0 may sit below its predecessor, and both exceed
    ``x``, as does the 2.0 padding.  Second, ``b/B <= u`` holds
    exactly, because ``B`` is a power of two, so ``u * B`` and ``b/B``
    are computed without rounding.  So the bin's prefix lies within
    ``u``'s, the advance passes just the sums between them, and it
    stops inside the row, at a sum above ``u``.
    """

    def __init__(
        self,
        cum: np.ndarray,
        next: np.ndarray,
        position: np.ndarray,
        arc: np.ndarray,
        edge: np.ndarray,
    ):
        self.cum, self.next = cum, next
        self.position, self.arc, self.edge = position, arc, edge
        states, width = cum.shape
        bins = 1
        while bins < 4 * width:
            bins *= 2
        # sum i of state s is <= b/B from bin first[s, i] = ceil(cum[s, i] * B)
        # on, and a sum of 1.0 or more never is (its bin is clipped to B);
        # by the prefix argument above first[s] does not decrease, so the
        # guide holds slot i of state s over bins first[s, i-1] to first[s, i]-1
        first = np.minimum(np.ceil(cum * bins), bins).astype(np.intp)
        spans = np.diff(first, axis=1, prepend=0, append=bins)
        slots = np.arange(states)[:, None] * width + np.arange(width + 1)
        self._bins = bins
        self._guide = np.repeat(slots.astype(np.int32).ravel(), spans.ravel())

    @classmethod
    def compile(cls, g: Graph, config: WalkConfig) -> PaddedRows:
        """Every state's row of ``g`` under ``config``.

        The rows come from :class:`_RowCompiler`, the compiler the
        enumeration reads.
        """
        n = g.n
        second_order = config.non_backtracking or config.node2vec is not None
        compiler = _RowCompiler([g], [config])
        real = compiler.adj >= 0
        degree = real.sum(axis=1)
        tails, heads = np.repeat(np.arange(n), degree), compiler.adj[real]
        # a first-order row depends on the head alone, so only the start
        # states' rows are compiled and the arc states copy them
        prev, cur = np.full(n, -1), np.arange(n)
        if second_order:
            prev, cur = np.concatenate((prev, tails)), np.concatenate((cur, heads))
        succ, probs = compiler.rows(np.zeros(len(cur), dtype=np.intp), prev, cur)
        cum = probs[0]
        # slot j of cur's row moves along arc j of cur
        first_arc = np.cumsum(degree) - degree
        nxt = n + first_arc[cur][:, None] + np.arange(succ.shape[1])
        if config.non_backtracking:
            # a row without prev moves its successors to the left, in order
            order = np.argsort(succ < 0, axis=1, kind="stable")
            succ, cum, nxt = (np.take_along_axis(a, order, axis=1) for a in (succ, cum, nxt))
        kept = succ >= 0
        del succ, probs  # the guide below is the peak; hold no more than it needs
        np.cumsum(cum, axis=1, out=cum)
        count = kept.sum(axis=1)
        stepping = np.flatnonzero(count)
        cum[stepping, count[stepping] - 1] = 1.0  # the last sum is forced to 1.0
        cum[~kept] = 2.0
        nxt[~kept] = 0
        if not second_order:
            cum, nxt = np.concatenate((cum, cum[heads])), np.concatenate((nxt, nxt[heads]))
        # edges are the arcs (u, v) with u < v, in arc order
        forward = tails < heads
        edge = np.searchsorted(tails[forward] * n + heads[forward],
                               np.minimum(tails, heads) * n + np.maximum(tails, heads))
        unset = np.full(n, -1)  # no move enters a start state
        return cls(
            cum=cum,
            next=nxt.astype(np.int64, copy=False),
            position=np.concatenate((np.arange(n), heads)).astype(np.int64),
            arc=np.concatenate((unset, np.arange(len(heads)))).astype(np.int64),
            edge=np.concatenate((unset, edge)).astype(np.int64),
        )

    def draw(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next states of lanes at ``state`` given their uniforms ``u`` in [0, 1)."""
        bins, cum = self._bins, self.cum
        slot = (u * bins).astype(np.intp)
        slot += state * bins
        slot = self._guide.take(slot).astype(np.intp)
        # take() reads 2-D arrays flat; a lane moves on only past the sums
        # of its row in (b/B, u]
        miss = (u >= cum.take(slot)).nonzero()[0]
        while miss.size:
            fixed = slot[miss] + 1
            slot[miss] = fixed
            miss = miss[u[miss] >= cum.take(fixed)]
        return self.next.take(slot)


class StepTable:
    """The step law of one (graph, config), compiled row by row.

    Row ``(prev, cur)`` is the distribution of the vertex after ``cur``
    when the walker's previous position was ``prev``.  First-order
    configs ignore ``prev``, so their rows, like every walk's opening
    step, are keyed ``(None, cur)``.  A row is compiled from
    :meth:`law` the first time it is asked for, so a position reached by
    a restart (where ``prev`` need not be a neighbor of ``cur``, or may
    be ``cur`` itself) gets its row like any other.  A table serves one
    sampler call; nothing caches it beyond that.

    A row is ``(successors, cum)``: the successors ascending, and the
    sequential sums of their probabilities with the last forced to 1.0,
    so every uniform in [0, 1) selects a successor (the last one absorbs
    rounding).  Both are lists: rows are compiled by the thousand, and
    freed tuples would pile up on CPython's per-size free lists.
    """

    def __init__(self, g: Graph, config: WalkConfig):
        self.g = g
        self.config = config
        self.second_order = config.non_backtracking or config.node2vec is not None
        self._rows: dict[tuple[int | None, int], tuple[list[int], list[float]]] = {}
        self._first: dict[int, tuple[list[int], list[float]]] = {}

    def row(self, prev: int | None, cur: int) -> tuple[list[int], list[float]]:
        key = (prev if self.second_order else None, cur)
        row = self._rows.get(key)
        if row is None:
            successors, probs = self.law(*key)
            cum = list(accumulate(probs))
            if cum:
                cum[-1] = 1.0
            row = self._rows[key] = (successors, cum)
        return row

    def law(self, prev: int | None, cur: int) -> tuple[list[int], list[float]]:
        """Row ``(prev, cur)`` of :func:`step_distribution_second_order` as
        ``(successors, probabilities)`` lists over ``cur``'s ascending
        neighbor tuple; ``cur``'s first-order row is computed once per table."""
        first = self._first.get(cur)
        if first is None:
            g = self.g
            successors = list(g.adjacency[cur])
            du = len(successors)
            weights = [1.0] * du
            if isinstance(self.config.conductance, MDLR):
                for i, x in enumerate(successors):
                    weights[i] = 1.0 / min(du, len(g.adjacency[x]))
            first = self._first[cur] = (successors, _normalized(weights))
        successors, probs = first
        if prev is None:
            return first

        if self.config.non_backtracking:
            # prev is dropped where it is a neighbor; the rest is renormalized
            # even where it is not (after a restart)
            i = bisect_left(successors, prev)
            if successors[i:i + 1] == [prev]:
                successors, probs = successors[:i] + successors[i + 1:], probs[:i] + probs[i + 1:]
            return (successors, _normalized(probs)) if successors else ([prev], [1.0])

        node2vec = self.config.node2vec
        if node2vec is None:
            return first
        near = set(self.g.adjacency[prev])
        if cur not in near:  # prev is no neighbor of cur (nor cur itself)
            return first
        p, q = node2vec.p, node2vec.q
        weights = []
        for x, w in zip(successors, probs):
            weights.append(w / p if x == prev else w if x in near else w / q)
        return successors, _normalized(weights)

    def steps(self, start: int, rng: np.random.Generator) -> Iterator[tuple[int, bool]]:
        """Open-ended walk from ``start``: ``(vertex, was_restart)`` for t = 1, 2, ...

        Callers decide when to stop (``config.length`` is not read) and
        never step on the edgeless one-vertex graph.  Draw contract: per
        step, one uniform for the restart decision where probability
        mode allows a restart (``t > 1``, not right after one), then one
        for the move if the step is not a restart; the move inverts the
        row's cumulative sums over ascending successors.  Uniforms are
        read from ``rng`` ahead of use, in blocks, so after the walk
        ``rng`` stands at an unspecified point of its stream: give the
        walk a generator of its own and draw nothing from it afterwards.
        """
        restart = self.config.restart
        alpha = restart.alpha if isinstance(restart, RestartProb) else None
        period = restart.k if isinstance(restart, RestartPeriod) else 0
        # rng.random(k) is the next k doubles that k rng.random() calls give
        blocks = map(rng.random, chain((16, 64, 256, 1024), repeat(4096)))
        uniform = chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__
        prev: int | None = None
        cur, was_restart, t = start, False, 0
        while True:
            t += 1
            # step 1 is always an ordinary move; restarts start at t = 2
            if alpha is not None:
                was_restart = t > 1 and not was_restart and uniform() < alpha
            else:
                was_restart = t > 1 and period > 0 and t % period == 0
            if was_restart:
                prev, cur = cur, start
            else:
                successors, cum = self.row(prev, cur)
                prev, cur = cur, successors[bisect_right(cum, uniform())]
            yield cur, was_restart


def transition_matrix(g: Graph, kind: ConductanceKind) -> np.ndarray:
    """Dense first-order transition matrix: ``P[u, x]`` moves u -> x."""
    compiler = _RowCompiler([g], [WalkConfig(length=0, conductance=kind)])
    real = compiler.adj >= 0
    P = np.zeros((g.n, g.n))
    P[real.nonzero()[0], compiler.adj[real]] = compiler.first[0, real]
    return P


def require_seed(config: WalkConfig) -> int:
    """The seed of a config a sampler draws from; it must be set."""
    if config.seed is None:
        raise ValueError("config.seed is required for sampling")
    return config.seed


def require_start(g: Graph, start: int) -> None:
    """Refuse a fixed start that is not a vertex of ``g``."""
    if not 0 <= start < g.n:
        raise ValueError(f"start {start} out of range for n={g.n}")


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent Philox stream for (seed, key).

    Every sampler in the package derives its generator this way, so
    results depend only on the seed and the logical index of the thing
    being sampled, never on scheduling or thread count.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sample_walk(
    g: Graph, config: WalkConfig, start: int | None = None, walk_index: int = 0
) -> Walk:
    """Sample one walk of ``config.length`` steps.

    ``start=None`` draws the start uniformly from the vertices.  The
    generator is ``rng_stream(config.seed, walk_index)``, so a batch of
    walks indexed 0..N-1 is reproducible walk by walk.  A walk of at
    least one step on the edgeless one-vertex graph raises ``ValueError``.
    """
    rng = rng_stream(require_seed(config), walk_index)
    if start is None:
        start = int(rng.integers(g.n))
    else:
        require_start(g, start)
    if config.length > 0 and g.m == 0:
        raise ValueError(f"vertex {start} has no neighbor to step to")

    moves = list(islice(StepTable(g, config).steps(start, rng), config.length))
    return Walk((start, *[v for v, _ in moves]), (False, *[f for _, f in moves]))


def check_enumeration_bound(g: Graph, config: WalkConfig, n_starts: int) -> int:
    """Refuse a walk tree that may exceed ``ENUMERATION_GUARD`` leaves.

    The bound is ``n_starts`` times the largest branching per step; it
    is returned when within the guard.  Its product stops once past the
    guard, so a refusal takes the same time at any length.
    """
    if config.length == 0:
        return n_starts
    per_step = g.max_degree()
    if isinstance(config.restart, RestartProb):
        per_step += 1
    bound = n_starts * g.max_degree()
    steps = config.length - 1
    if per_step > 1:
        for _ in range(steps):
            if bound > ENUMERATION_GUARD:
                break
            bound *= per_step
    if bound > ENUMERATION_GUARD:
        # the exact bound may run to thousands of digits: give its size
        size = math.log10(n_starts * g.max_degree()) + steps * math.log10(per_step)
        raise ValueError(f"enumeration bound of about 10**{size:.1f} "
                         f"exceeds guard {ENUMERATION_GUARD}")
    return bound


def _check_depth(n_starts: int, length: int) -> None:
    """Refuse ``n_starts`` trees of ``length + 1`` levels, at least one
    node each, past ``ENUMERATION_GUARD`` nodes.

    :func:`check_enumeration_bound` misses these where no step branches:
    on a graph of largest degree 1 its bound is ``n_starts`` at any
    length.
    """
    if n_starts * (length + 1) > ENUMERATION_GUARD:
        raise ValueError(f"enumeration of {length + 1} levels from {n_starts} starts "
                         f"exceeds guard {ENUMERATION_GUARD}")


# _batches cuts the trees of an enumeration, one per start of
# enumerate_walk_distribution or one per graph of the invariance suite,
# into level-by-level passes whose check_enumeration_bound bounds sum to
# at most this.  The bound takes the largest degree at every step, so a
# pass holds fewer leaves than it counts: on the enum-invariance workload
# the largest of its 12 passes held about a third, 5,550 of 16,384.  A
# pass's memory grows with its leaves: the suite call's tracemalloc peak
# there is 1.13 MB, and tests/test_invariance.py pins it.
LEAF_BUDGET = 1 << 14


def _batches(leaves: Sequence[int]) -> Iterator[list[int]]:
    """Consecutive indices whose leaf bounds sum to at most
    ``LEAF_BUDGET``, one index at least."""
    batch: list[int] = []
    total = 0
    for i, count in enumerate(leaves):
        if batch and total + count > LEAF_BUDGET:
            yield batch
            batch, total = [], 0
        batch.append(i)
        total += count
    if batch:
        yield batch


class TreeLevel(NamedTuple):
    """One depth of a batch of walk trees, its nodes in depth-first order.

    Node ``i`` is a walk of tree ``tree[i]`` whose last position is
    ``vertex[i]``, reached by a restart jump if ``restart[i]``.  The walk
    without that position is node ``parent[i]`` of the level above (-1
    at depth 0).  ``probs[c, i]`` is the walk's probability under the
    tree's ``c``-th config.
    """

    tree: np.ndarray
    parent: np.ndarray
    vertex: np.ndarray
    restart: np.ndarray
    probs: np.ndarray


def _row_sums(w: np.ndarray) -> np.ndarray:
    # each row's left-to-right sum; np.sum adds pairwise from 8 terms on
    return w.cumsum(axis=1)[:, -1] if w.shape[1] else np.zeros(len(w))


class _RowCompiler:
    """Every config's step rows for walk trees on several graphs, as arrays.

    Tree ``k`` walks ``graphs[k]`` under each of ``configs``, which form
    one support class (see :func:`walk_tree_levels`).  The arrays
    cover the vertices the trees step from: ``reach[k]`` lists tree
    ``k``'s, in any order (it is sorted), and defaults to every vertex
    of ``graphs[k]``.  The rows go by tree, then by vertex ascending.
    Row ``index(k, v)`` of :attr:`adj` holds ``v``'s neighbors,
    ascending and padded with -1 to the widest degree, and ``first[c]``
    config ``c``'s first-order probabilities in the same slots, 0 in the
    padding.  :meth:`rows` derives the second-order rows of any number
    of nodes from them in a few array operations.  Every sum is left to
    right (``cumsum``), so each float is the one
    :func:`step_distribution_second_order` gives.
    """

    def __init__(self, graphs: Sequence[Graph], configs: Sequence[WalkConfig],
                 reach: Sequence[Sequence[int]] | None = None):
        self.graphs, self.configs = graphs, configs
        if reach is None:
            reach = [range(g.n) for g in graphs]
        self._stride = stride = max(g.n for g in graphs) + 1
        tree = [k for k, vs in enumerate(reach) for _ in vs]
        vertex = [v for vs in reach for v in sorted(vs)]
        self._key = np.array(tree, dtype=np.intp) * stride + vertex
        nbrs = [graphs[k].adjacency[v] for k, v in zip(tree, vertex)]
        degree = np.array(list(map(len, nbrs)), dtype=np.intp)
        real = np.arange(degree.max(initial=0)) < degree[:, None]
        self.adj = np.full(real.shape, -1, dtype=np.intp)
        self.adj[real] = list(chain.from_iterable(nbrs))
        # arc (i, x) out of row i is the key i * stride + x, ascending
        self._arcs = (np.arange(len(nbrs))[:, None] * stride + self.adj)[real]

        self.first = np.zeros((len(configs), *real.shape))
        for c, config in enumerate(configs):
            w = real * 1.0
            if isinstance(config.conductance, MDLR):
                far = [len(graphs[k].adjacency[x]) for k, xs in zip(tree, nbrs) for x in xs]
                w[real] = 1.0 / np.minimum(np.repeat(degree, degree), far)
            np.divide(w, _row_sums(w)[:, None], out=self.first[c], where=real)

    def index(self, tree, v):
        """The row of vertex ``v`` of tree ``tree`` (scalars or arrays)."""
        return np.searchsorted(self._key, tree * self._stride + v)

    def rows(self, tree: np.ndarray, prev: np.ndarray,
             cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each node's row under every config, as ``(succ, probs)``.

        Node ``i`` of tree ``tree[i]`` stands at ``cur[i]`` after
        ``prev[i]``, which is -1 at the walk's start.  ``succ[i]`` holds
        the row's successors in the slots of ``cur[i]``'s neighbors, -1
        elsewhere, and ``probs[c, i]`` their probabilities under config
        ``c``, 0 elsewhere.  Non-backtracking drops ``prev`` and
        renormalizes, or backtracks with probability one where ``prev``
        is the only neighbor; node2vec weighs each successor by 1/p, 1 or
        1/q, where ``prev`` is a neighbor of ``cur``, and keeps the
        first-order row elsewhere.
        """
        at = self.index(tree, cur)
        succ, probs = self.adj[at], self.first[:, at]
        after = np.flatnonzero(prev >= 0)
        back = succ[after] == prev[after, None]  # the slot of prev among cur's neighbors
        if self.configs[0].non_backtracking:
            # a class backtracks alike; lone where prev is cur's only neighbor
            lone = (succ[after] >= 0).sum(axis=1) == back.sum(axis=1)
            for c in range(len(self.configs)):
                kept = np.where(back, 0.0, probs[c, after])
                total = _row_sums(kept)
                total[lone] = 1.0
                probs[c, after] = kept / total[:, None] + (back & lone[:, None])
            succ[after] = np.where(back & ~lone[:, None], -1, succ[after])
            return succ, probs
        biased = [c for c, config in enumerate(self.configs) if config.node2vec is not None]
        arc = back.any(axis=1)  # prev is a neighbor of cur
        if biased and arc.any():
            near, back = after[arc], back[arc]
            # x is adjacent to prev where the arc (prev, x) is a key
            keys = self.index(tree[near], prev[near])[:, None] * self._stride + succ[near]
            adjacent = self._arcs.take(np.searchsorted(self._arcs, keys), mode="clip") == keys
            for c in biased:
                # one divisor per slot, 1.0 where adjacent (w / 1.0 is w)
                factor = np.where(adjacent, 1.0, self.configs[c].node2vec.q)
                factor[back] = self.configs[c].node2vec.p
                w = np.divide(probs[c, near], factor, out=factor)
                w /= _row_sums(w)[:, None]
                probs[c, near] = w
        return succ, probs


def walk_tree_levels(
    compiler: _RowCompiler, roots: Sequence[tuple[int, int, float]]
) -> Iterator[TreeLevel]:
    """Enumerate walk trees level by level, from their roots to the leaves.

    Tree ``k`` walks ``compiler.graphs[k]`` under each of
    ``compiler.configs``, which form one support class: of equal length,
    restart mode and backtracking rule, so they put positive probability
    on the same walks.  ``roots`` are the trees' start nodes ``(tree,
    start, probability)``, in the order given.  Yields depth 0 (the
    roots) to the walks' length, each a :class:`TreeLevel`.

    A node's children are contiguous and in the order of a depth-first
    pass: the restart child first where the restart mode allows one,
    then the successors ascending, leaving out those of probability
    zero.  So every level, and the leaves, come out in depth-first
    order, each child's probability the product ``prob * q`` of its
    parent's and its branch's.  Each level's rows, every config's for
    every node, come from one :meth:`_RowCompiler.rows` call, and a node
    whose configs keep different successors raises ``AssertionError``.
    The restart rule: from ``t = 2`` on, position ``t`` may be reached
    by a restart, in probability mode with probability ``alpha`` unless
    position ``t - 1`` was, in period mode with probability one exactly
    when ``t`` is a multiple of the period; a move where a restart
    could have been has the branch probability ``(1 - alpha) * p``.
    """
    configs = compiler.configs
    restart = configs[0].restart
    alpha = restart.alpha if isinstance(restart, RestartProb) else None
    period = restart.k if isinstance(restart, RestartPeriod) else 0

    tree = np.array([k for k, _, _ in roots], dtype=np.intp)
    n1 = max(g.n for g in compiler.graphs) + 1
    vertex = np.array([s for _, s, _ in roots], dtype=np.min_scalar_type(-n1))
    start = vertex
    flags = np.zeros(len(roots), dtype=bool)
    probs = np.array([[p for _, _, p in roots]] * len(configs)).reshape(len(configs), -1)
    level = TreeLevel(tree, np.full(len(roots), -1, dtype=np.intp), vertex, flags, probs)
    yield level
    for t in range(1, configs[0].length + 1):
        if period and t >= 2 and t % period == 0:
            # every node restarts, with probability one
            parent = np.arange(len(vertex))
            level = TreeLevel(tree, parent, start, np.ones(len(vertex), dtype=bool), probs)
        else:
            prev = np.full(len(vertex), -1) if t == 1 else last_vertex[level.parent].astype(np.intp)
            succ, q = compiler.rows(tree, prev, vertex)
            may_restart = np.zeros(len(vertex), dtype=bool)
            if alpha is not None and t >= 2:
                may_restart = ~flags
                q[:, may_restart] *= 1.0 - alpha
            keep = q != 0
            if (keep != keep[0]).any():
                i, c = np.argwhere((keep != keep[0]).any(axis=2).T)[0]
                raise AssertionError(
                    f"configs of one support class branch differently at (prev, cur) = "
                    f"({None if prev[i] < 0 else prev[i]}, {vertex[i]}) on "
                    f"{compiler.graphs[tree[i]]}: {configs[c]} against {configs[0]}"
                )
            # slot 0 is the restart child, back to the start; slot j + 1
            # the move to succ[:, j]
            parent, slot = np.nonzero(np.hstack((may_restart[:, None], keep[0])))
            child = np.hstack((start[:, None], succ))[parent, slot].astype(vertex.dtype)
            child_q = q[:, parent, slot - 1]
            if alpha is not None:
                child_q[:, slot == 0] = alpha  # the restart children's
            level = TreeLevel(tree[parent], parent, child, slot == 0,
                              np.multiply(probs[:, parent], child_q, out=child_q))
            del succ, q, keep, slot  # not held while the level is consumed
        last_vertex = vertex
        tree, vertex, flags, probs = level.tree, level.vertex, level.restart, level.probs
        start = start[level.parent]
        yield level


def leaf_walks(levels: Iterable[TreeLevel]) -> tuple[np.ndarray, np.ndarray, TreeLevel]:
    """Consume ``levels`` and return the walks ending at the last level's nodes.

    Returns the positions and the restart flags, each of shape
    ``(walks, len(levels))``, one row per walk, and the last level.  Of
    each level above the last only the parents, positions and restart
    flags are held, not its probabilities.
    """
    kept = []
    for last in levels:
        kept.append((last.parent, last.vertex, last.restart))
    node = np.arange(len(last.vertex))
    vertices = np.empty((len(node), len(kept)), dtype=last.vertex.dtype)
    restarts = np.empty((len(node), len(kept)), dtype=bool)
    for t in range(len(kept) - 1, -1, -1):
        parent, vertex, restart = kept[t]
        vertices[:, t] = vertex[node]
        restarts[:, t] = restart[node]
        node = parent[node]
    return vertices, restarts, last


def enumerate_walk_distribution(
    g: Graph, config: WalkConfig, start: int | None = None
) -> Iterator[tuple[Walk, float]]:
    """Exhaustively enumerate ``(walk, probability)`` pairs.

    The probabilities of the yielded walks sum to one.  ``start=None``
    averages over a uniform start.  Refuses instances whose branching
    bound exceeds ``ENUMERATION_GUARD`` sequences, or whose starts
    times levels do (see :func:`_check_depth`).  Walks come in
    depth-first order (see :func:`walk_tree_levels`), and each
    probability is the left-to-right product of its branch
    probabilities.  The rows are compiled once, for the whole graph, or,
    from a fixed start, for the ball the walks step from; walks of
    length 0 compile none.
    """
    if start is not None:
        require_start(g, start)
    starts = list(range(g.n)) if start is None else [start]
    bound = check_enumeration_bound(g, config, len(starts))
    _check_depth(len(starts), config.length)
    start_prob = 1.0 / g.n if start is None else 1.0
    reach = None  # every vertex
    if not config.length:
        reach = [[]]  # a walk of no steps reads no row
    elif start is not None:
        # a walk steps from, and stands before a step at, at most length - 1 from its start
        reach = [_reach(g.adjacency, start, config.length - 1)]
    compiler = _RowCompiler([g], [config], reach)
    for batch in _batches([bound // len(starts)] * len(starts)):
        vertices, restarts, last = leaf_walks(walk_tree_levels(
            compiler, [(0, starts[i], start_prob) for i in batch]))
        for vs, flags, prob in zip(vertices.tolist(), restarts.tolist(),
                                   last.probs[0].tolist()):
            yield Walk(tuple(vs), tuple(flags)), prob
