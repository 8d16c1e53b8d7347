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
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .graphs import Graph

__all__ = [
    "Constant",
    "MDLR",
    "DegreeRule",
    "ConductanceKind",
    "Node2Vec",
    "RestartProb",
    "RestartPeriod",
    "RestartMode",
    "WalkConfig",
    "Walk",
    "conductance",
    "step_distribution_first_order",
    "step_distribution_second_order",
    "transition_matrix",
    "sample_walk",
    "enumerate_walk_distribution",
    "rng_stream",
    "ENUMERATION_GUARD",
]

ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class Constant:
    """Unit conductance on every edge (the classic uniform walk)."""


@dataclass(frozen=True)
class MDLR:
    """Minimum-degree local rule: ``c(u, v) = 1 / min(deg(u), deg(v))``."""


@dataclass(frozen=True)
class DegreeRule:
    """Conductance from an arbitrary rule on endpoint degrees.

    ``fn`` must be symmetric in its two arguments, strictly positive and
    finite; both are checked where the rule is evaluated.
    """

    fn: Callable[[int, int], float]


ConductanceKind = Union[Constant, MDLR, DegreeRule]


@dataclass(frozen=True)
class Node2Vec:
    """Return/in-out bias parameters for the second-order p/q walk."""

    p: float
    q: float

    def __post_init__(self) -> None:
        # a step weighs candidates by 1/p and 1/q, which must be finite too
        if not all(0 < x < math.inf and 1 / x < math.inf for x in (self.p, self.q)):
            raise ValueError("p and q must be positive and finite, with finite "
                             f"reciprocals, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class RestartProb:
    """Restart with probability ``alpha`` per step (never twice in a row)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class RestartPeriod:
    """Restart exactly at steps ``k, 2k, 3k, ...``."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"period must be >= 1, got {self.k}")


RestartMode = Union[RestartProb, RestartPeriod]


@dataclass(frozen=True)
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
        if not isinstance(self.conductance, (Constant, MDLR, DegreeRule)):
            raise TypeError(f"unknown conductance kind: {self.conductance!r}")


@dataclass(frozen=True)
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

    @property
    def start(self) -> int:
        return self.vertices[0]

    def __len__(self) -> int:
        return len(self.vertices)


def conductance(g: Graph, kind: ConductanceKind, u: int, v: int) -> float:
    """Conductance of the edge ``(u, v)``; the edge must exist."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    return _weight(g, kind, u, v)


def _weight(g: Graph, kind: ConductanceKind, u: int, v: int) -> float:
    # conductance of an edge the caller knows exists
    if isinstance(kind, Constant):
        return 1.0
    if isinstance(kind, MDLR):
        return 1.0 / min(g.degree(u), g.degree(v))
    if isinstance(kind, DegreeRule):
        w = kind.fn(g.degree(u), g.degree(v))
        if not 0 < w < math.inf:
            why = "non-finite" if w > 0 else "nonpositive"
            raise ValueError(f"degree rule gave {why} weight {w} on ({u}, {v})")
        return float(w)
    raise TypeError(f"unknown conductance kind: {kind!r}")


def step_distribution_first_order(
    g: Graph, kind: ConductanceKind, u: int
) -> dict[int, float]:
    """Transition distribution out of ``u``: neighbor -> probability."""
    weights = {x: _weight(g, kind, u, x) for x in g.neighbors(u)}
    total = sum(weights.values())
    if total == math.inf:
        raise ValueError(f"edge weights out of vertex {u} sum to inf")
    return {x: w / total for x, w in weights.items()}


def step_distribution_second_order(
    g: Graph, config: WalkConfig, prev: int | None, cur: int
) -> dict[int, float]:
    """Transition distribution out of ``cur`` given the previous position.

    ``prev is None`` means there is no history (the walk's first step)
    and the distribution is plainly first-order.  With
    ``non_backtracking`` the previous vertex is excluded and the rest
    renormalized; when it was the only neighbor the walker backtracks
    anyway (probability one).  With ``node2vec`` each candidate's
    first-order weight is scaled by 1/p, 1 or 1/q according to whether
    it is the previous vertex, adjacent to it, or neither; if the
    previous position is not a neighbor of ``cur`` (possible right
    after a restart) the step falls back to first-order, since the
    bias is defined over the configured edge move that never happened.
    """
    return StepTable(g, config)._distribution(prev, cur)


class StepRow(NamedTuple):
    """One compiled step distribution; read-only.

    ``successors`` ascend, ``probs`` are exactly the values
    :func:`step_distribution_second_order` gives, and ``cum`` holds
    their sequential sums with the last forced to 1.0, so every uniform
    in [0, 1) selects a successor (the last one absorbs rounding).
    The fields are lists: rows are compiled by the thousand, and freed
    tuples would pile up on CPython's per-size free lists.
    """

    successors: list[int]
    probs: list[float]
    cum: list[float]


class PaddedRows:
    """A :class:`StepTable` as rectangular arrays, for lockstep kernels.

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
    :func:`step_distribution_second_order` the first time it is asked
    for, so positions reached by a restart (where ``prev`` need not be
    a neighbor of ``cur``) get exactly the reference law.  A table
    serves one sampler call; nothing caches it beyond that.
    """

    def __init__(self, g: Graph, config: WalkConfig):
        self.g = g
        self.config = config
        self.second_order = config.non_backtracking or config.node2vec is not None
        self._rows: dict[tuple[int | None, int], StepRow] = {}
        self._first: dict[int, dict[int, float]] = {}

    def row(self, prev: int | None, cur: int) -> StepRow:
        key = (prev if self.second_order else None, cur)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self._compile(*key)
        return row

    def _distribution(self, prev: int | None, cur: int) -> dict[int, float]:
        # the rule of step_distribution_second_order on cur's first-order
        # distribution, computed once per table and never modified
        first = self._first.get(cur)
        if first is None:
            first = self._first[cur] = step_distribution_first_order(
                self.g, self.config.conductance, cur)
        if prev is None:
            return first

        if self.config.non_backtracking:
            trimmed = {x: w for x, w in first.items() if x != prev}
            if not trimmed:
                return {prev: 1.0}
            total = sum(trimmed.values())
            return {x: w / total for x, w in trimmed.items()}

        if self.config.node2vec is not None:
            if prev == cur or not self.g.has_edge(prev, cur):
                return first
            p, q = self.config.node2vec.p, self.config.node2vec.q
            near = set(self.g.neighbors(prev))
            weighted = {}
            for x, w in first.items():
                if x == prev:
                    weighted[x] = w / p
                elif x in near:
                    weighted[x] = w
                else:
                    weighted[x] = w / q
            total = sum(weighted.values())
            return {x: w / total for x, w in weighted.items()}

        return first

    def _compile(self, prev: int | None, cur: int) -> StepRow:
        dist = self._distribution(prev, cur)
        successors = sorted(dist)
        probs = [dist[x] for x in successors]
        cum = list(accumulate(probs))
        if cum:
            cum[-1] = 1.0
        return StepRow(successors, probs, cum)

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
                successors, _, cum = self.row(prev, cur)
                prev, cur = cur, successors[bisect_right(cum, uniform())]
            yield cur, was_restart

    def padded(self) -> PaddedRows:
        """Every state's row as arrays; see :class:`PaddedRows`.

        Rows go straight into the arrays without entering the row
        cache; only the first-order distributions are kept meanwhile.
        """
        g = self.g
        arcs = [(u, v) for u in range(g.n) for v in g.neighbors(u)]
        arc_state = {a: g.n + i for i, a in enumerate(arcs)}
        edge_of: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(g.edges()):
            edge_of[(u, v)] = edge_of[(v, u)] = i
        heads = [v for _, v in arcs]
        # a first-order row depends on the head alone, so only the start
        # states' rows are compiled and the arc states copy them
        keys = [(None, v) for v in range(g.n)] + (arcs if self.second_order else [])
        shape = (g.n + len(arcs), g.max_degree())
        cum = np.full(shape, 2.0)
        nxt = np.zeros(shape, dtype=np.int64)
        for s, (prev, cur) in enumerate(keys):
            row = self._compile(prev, cur)
            k = len(row.successors)
            cum[s, :k] = row.cum
            nxt[s, :k] = [arc_state[(cur, x)] for x in row.successors]
        if not self.second_order:
            cum[g.n:] = cum[heads]
            nxt[g.n:] = nxt[heads]
        unset = [-1] * g.n  # no move enters a start state
        return PaddedRows(
            cum=cum,
            next=nxt,
            position=np.array([*range(g.n), *heads], dtype=np.int64),
            arc=np.array([*unset, *range(len(arcs))], dtype=np.int64),
            edge=np.array([*unset, *map(edge_of.get, arcs)], dtype=np.int64),
        )


def transition_matrix(g: Graph, kind: ConductanceKind) -> np.ndarray:
    """Dense first-order transition matrix: ``P[u, x]`` moves u -> x."""
    table = StepTable(g, WalkConfig(length=0, conductance=kind))
    P = np.zeros((g.n, g.n))
    for u in range(g.n):
        row = table.row(None, u)
        P[u, row.successors] = row.probs
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
    is returned when within the guard.
    """
    if config.length == 0:
        bound = n_starts
    else:
        per_step = g.max_degree()
        if isinstance(config.restart, RestartProb):
            per_step += 1
        bound = n_starts * g.max_degree() * per_step ** (config.length - 1)
    if bound > ENUMERATION_GUARD:
        # the exact bound may run to thousands of digits: give its size
        raise ValueError(f"enumeration bound of about 10**{math.log10(bound):.1f} "
                         f"exceeds guard {ENUMERATION_GUARD}")
    return bound


# The most leaves, by check_enumeration_bound's count, that one
# level-by-level pass holds at once: enumerate_walk_distribution splits
# its starts, and the invariance suite its graphs, into passes this big.
LEAF_BUDGET = 1 << 11


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


class _Branches:
    """The children of each distinct node state, compiled once per pass.

    A node's state is its tree, its position ``cur``, the position
    ``prev`` before it (kept only where a config of the class is second
    order) and ``stay``, the probability that the step is an ordinary
    move.  State ``s`` has the children ``succ[first[s]:][:count[s]]``,
    reached with branch probability ``q[c][first[s]:][:count[s]]`` under
    config ``c``: the successors of each config's row ``(prev, cur)``
    with ``q = stay * p``, ascending, leaving out those with ``q == 0``.
    Every config must keep the same successors.
    """

    def __init__(self, tables: Sequence[Sequence[StepTable]], stays: tuple[float, ...]):
        self.tables = tables
        self.stays = stays
        self.n1 = max(ts[0].g.n for ts in tables) + 1
        self.second_order = any(table.second_order for table in tables[0])
        self.index: dict[int, int] = {}
        self.first: list[int] = []
        self.count: list[int] = []
        self.succ: list[int] = []
        self.q = [array("d") for _ in tables[0]]

    def states(self, tree: np.ndarray, prev: np.ndarray, cur: np.ndarray,
               mode: np.ndarray) -> np.ndarray:
        """The state index of each node; ``prev`` is -1 at the start and
        ``mode`` indexes ``stays``."""
        n1 = self.n1
        if not self.second_order:
            prev = np.full_like(prev, -1)
        key = tree.astype(np.int64) * n1 + prev + 1
        key *= n1
        key += cur
        key *= len(self.stays)
        key += mode
        keys = key.tolist()
        for k in sorted(set(keys).difference(self.index)):
            self._compile(k)
        return np.array(list(map(self.index.__getitem__, keys)), dtype=np.intp)

    def _compile(self, key: int) -> int:
        rest, mode = divmod(key, len(self.stays))
        rest, cur = divmod(rest, self.n1)
        tree, prev = divmod(rest, self.n1)
        prev = prev - 1 if prev else None
        stay = self.stays[mode]
        tables = self.tables[tree]
        kept = None
        for table, qs in zip(tables, self.q):
            successors, q, _ = table.row(prev, cur)
            if stay != 1.0:
                q = list(map(stay.__mul__, q))
            if 0.0 in q:
                successors = [x for x, p in zip(successors, q) if p != 0]
                q = [p for p in q if p != 0]
            if kept is None:
                kept = successors
            elif successors != kept:
                raise AssertionError(
                    f"configs of one support class branch differently at "
                    f"(prev, cur) = ({prev}, {cur}) on {table.g}: {table.config} "
                    f"against {tables[0].config}"
                )
            qs.extend(q)
        sid = len(self.first)
        self.index[key] = sid
        self.first.append(len(self.succ))
        self.count.append(len(kept))
        self.succ.extend(kept)
        return sid

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``first``, ``count``, ``succ`` and ``q`` as arrays."""
        return (np.array(self.first, dtype=np.intp), np.array(self.count, dtype=np.intp),
                np.array(self.succ, dtype=np.intp),
                np.array([np.frombuffer(qs) for qs in self.q]))


def walk_tree_levels(
    tables: Sequence[Sequence[StepTable]], roots: Sequence[tuple[int, int, float]]
) -> Iterator[TreeLevel]:
    """Enumerate walk trees level by level, from their roots to the leaves.

    Tree ``k`` walks ``tables[k][0].g`` under the configs of its tables,
    one table per config, in the same order for every tree.  The configs
    form one support class: of equal length, restart mode and
    backtracking rule, so they put positive probability on the same
    walks.  ``roots`` are the trees' start nodes ``(tree, start,
    probability)``, in the order given.  Yields depth 0 (the roots) to
    the walks' length, each a :class:`TreeLevel`.

    A node's children are contiguous and in the order of a depth-first
    pass: the restart child first where the restart mode allows one,
    then the successors ascending, leaving out those of probability
    zero.  So every level, and the leaves, come out in depth-first
    order, each child's probability the product ``prob * q`` of its
    parent's and its branch's.  Rows are compiled once per distinct
    state through each tree's own ``StepTable.row``, and a state whose
    configs keep different successors raises ``AssertionError``.  The
    restart rule: from ``t = 2`` on, position ``t`` may be reached by a
    restart, in probability mode with probability ``alpha`` unless
    position ``t - 1`` was, in period mode with probability one exactly
    when ``t`` is a multiple of the period.
    """
    config = tables[0][0].config
    restart = config.restart
    alpha = restart.alpha if isinstance(restart, RestartProb) else None
    period = restart.k if isinstance(restart, RestartPeriod) else 0
    branches = _Branches(tables, (1.0,) if alpha is None else (1.0, 1.0 - alpha))

    tree = np.array([k for k, _, _ in roots], dtype=np.intp)
    vertex = np.array([s for _, s, _ in roots], dtype=np.min_scalar_type(-branches.n1))
    start = vertex
    flags = np.zeros(len(roots), dtype=bool)
    probs = np.array([[p for _, _, p in roots]] * len(tables[0])).reshape(len(tables[0]), -1)
    level = TreeLevel(tree, np.full(len(roots), -1, dtype=np.intp), vertex, flags, probs)
    yield level
    for t in range(1, config.length + 1):
        if period and t >= 2 and t % period == 0:
            # every node restarts, with probability one
            parent = np.arange(len(vertex))
            level = TreeLevel(tree, parent, start, np.ones(len(vertex), dtype=bool), probs)
        else:
            # 1 where a node may restart: its stay is 1 - alpha (mode 1),
            # and a restart child comes before its successors
            may_restart = np.zeros(len(vertex), dtype=np.intp)
            if alpha is not None and t >= 2:
                may_restart += ~flags
            if t == 1:
                prev = np.full(len(vertex), -1, dtype=np.intp)
            else:
                prev = last_vertex[level.parent].astype(np.intp)
            sid = branches.states(tree, prev, vertex, may_restart)
            first, count, succ, q = branches.arrays()
            counts = count[sid] + may_restart
            parent = np.repeat(np.arange(len(vertex)), counts)
            # each child's slot among its siblings, the restart child at -1
            slot = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
            slot -= may_restart[parent]
            restarts = slot < 0
            moves = np.flatnonzero(~restarts)
            flat = first[sid[parent[moves]]] + slot[moves]
            child = start[parent]
            child[moves] = succ[flat]
            child_q = np.full((len(q), len(parent)), alpha or 0.0)  # restart children
            child_q[:, moves] = q[:, flat]
            level = TreeLevel(tree[parent], parent, child, restarts,
                              probs[:, parent] * child_q)
        last_vertex = vertex
        tree, vertex, flags, probs = level.tree, level.vertex, level.restart, level.probs
        start = start[level.parent]
        yield level


def leaf_walks(levels: Sequence[TreeLevel]) -> tuple[np.ndarray, np.ndarray]:
    """The walks ending at the last level's nodes, one row per walk.

    Returns the positions and the restart flags, each of shape
    ``(walks, len(levels))``.
    """
    node = np.arange(len(levels[-1].vertex))
    vertices = np.empty((len(node), len(levels)), dtype=levels[-1].vertex.dtype)
    restarts = np.empty((len(node), len(levels)), dtype=bool)
    for t in range(len(levels) - 1, -1, -1):
        level = levels[t]
        vertices[:, t] = level.vertex[node]
        restarts[:, t] = level.restart[node]
        node = level.parent[node]
    return vertices, restarts


def enumerate_walk_distribution(
    g: Graph, config: WalkConfig, start: int | None = None
) -> Iterator[tuple[Walk, float]]:
    """Exhaustively enumerate ``(walk, probability)`` pairs.

    The probabilities of the yielded walks sum to one.  ``start=None``
    averages over a uniform start.  Refuses instances whose branching
    bound exceeds ``ENUMERATION_GUARD`` sequences.  Walks come in
    depth-first order (see :func:`walk_tree_levels`), and each
    probability is the left-to-right product of its branch
    probabilities.
    """
    if start is not None:
        require_start(g, start)
    starts = list(range(g.n)) if start is None else [start]
    bound = check_enumeration_bound(g, config, len(starts))
    start_prob = 1.0 / g.n if start is None else 1.0
    tables = [[StepTable(g, config)]]
    group = max(1, LEAF_BUDGET * len(starts) // max(bound, 1))
    for i in range(0, len(starts), group):
        levels = list(walk_tree_levels(tables, [(0, s, start_prob)
                                                for s in starts[i:i + group]]))
        vertices, restarts = leaf_walks(levels)
        for vs, flags, prob in zip(vertices.tolist(), restarts.tolist(),
                                   levels[-1].probs[0].tolist()):
            yield Walk(tuple(vs), tuple(flags)), prob
