"""Random-walk engine: conductances, step distributions, sampling.

A walk is driven by edge conductances.  From ``u`` the walker moves to
neighbor ``x`` with probability proportional to ``c(u, x)``.  On top of
that sit two optional second-order variants (non-backtracking and the
p/q-biased walk), and two optional restart modes (per-step probability
or fixed period).  Restarts jump back to the walk's start vertex.

The per-step recipe, for step ``t >= 1``:

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

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Iterator, NamedTuple, Union

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
    "StepRow",
    "PaddedRows",
    "StepTable",
    "transition_matrix",
    "sample_walk",
    "iter_walk_steps",
    "check_enumeration_bound",
    "enumerate_walk_distribution",
    "rng_stream",
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

    ``fn`` must be symmetric in its two arguments and strictly positive;
    positivity is checked where the rule is evaluated.
    """

    fn: Callable[[int, int], float]


ConductanceKind = Union[Constant, MDLR, DegreeRule]


@dataclass(frozen=True)
class Node2Vec:
    """Return/in-out bias parameters for the second-order p/q walk."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 0 and self.q > 0):
            raise ValueError(f"p and q must be positive, got p={self.p}, q={self.q}")


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
    if isinstance(kind, Constant):
        return 1.0
    if isinstance(kind, MDLR):
        return 1.0 / min(g.degree(u), g.degree(v))
    if isinstance(kind, DegreeRule):
        w = kind.fn(g.degree(u), g.degree(v))
        if not w > 0:
            raise ValueError(f"degree rule gave nonpositive weight {w} on ({u}, {v})")
        return float(w)
    raise TypeError(f"unknown conductance kind: {kind!r}")


def step_distribution_first_order(
    g: Graph, kind: ConductanceKind, u: int
) -> dict[int, float]:
    """Transition distribution out of ``u``: neighbor -> probability."""
    weights = {x: conductance(g, kind, u, x) for x in g.neighbors(u)}
    total = sum(weights.values())
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


@dataclass(frozen=True)
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
    """

    cum: np.ndarray
    next: np.ndarray
    position: np.ndarray
    arc: np.ndarray
    edge: np.ndarray


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
        """Open-ended walk from ``start``; see :func:`iter_walk_steps`."""
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
                if not successors:
                    raise ValueError(f"vertex {cur} has no neighbor to step to")
                prev, cur = cur, successors[bisect_right(cum, uniform())]
            yield cur, was_restart

    def branches(
        self, start: int, prev: int | None, cur: int, t: int, after_restart: bool
    ) -> list[tuple[int, bool, float]]:
        """Children of a node of the walk tree, as ``(vertex, restart, q)``.

        The node is a walk from ``start`` whose position ``t - 1`` is
        ``cur``, reached from ``prev`` (None at the start) by a restart
        jump if ``after_restart``.  Its child through ``vertex`` has
        conditional probability ``q``: a restart branch comes first when
        the restart mode allows one at step ``t``, then the successors
        in ascending order; branches of probability zero are left out.
        """
        restart = self.config.restart
        out: list[tuple[int, bool, float]] = []
        stay = 1.0
        if restart is not None and t >= 2:
            if isinstance(restart, RestartProb) and not after_restart:
                out.append((start, True, restart.alpha))
                stay = 1.0 - restart.alpha
            elif isinstance(restart, RestartPeriod) and t % restart.k == 0:
                out.append((start, True, 1.0))
                stay = 0.0
        if stay > 0:
            row = self.row(prev, cur)
            for x, p in zip(row.successors, row.probs):
                q = stay * p
                if q != 0:
                    out.append((x, False, q))
        return out

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


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent Philox stream for (seed, key).

    Every sampler in the package derives its generator this way, so
    results depend only on the seed and the logical index of the thing
    being sampled, never on scheduling or thread count.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def iter_walk_steps(
    g: Graph, config: WalkConfig, start: int, rng: np.random.Generator
) -> Iterator[tuple[int, bool]]:
    """Open-ended walk: yield ``(vertex, was_restart)`` for t = 1, 2, ...

    ``config.length`` is ignored here; callers decide when to stop
    (fixed length for :func:`sample_walk`, coverage for the cover-time
    estimators).  Per step, one uniform is used for the restart
    decision when the mode calls for it, then one for the transition if
    the step is not a restart.  The transition inverts the step row's
    cumulative sums over ascending successors, so the mapping from
    uniforms to vertices is deterministic.  Stepping from a vertex
    without neighbors raises ``ValueError``.

    Uniforms are read from ``rng`` ahead of use, in blocks, so after
    the walk ``rng`` stands at an unspecified point of its stream: give
    the walk a generator of its own and draw nothing from it afterwards.
    """
    return StepTable(g, config).steps(start, rng)


def sample_walk(
    g: Graph, config: WalkConfig, start: int | None = None, walk_index: int = 0
) -> Walk:
    """Sample one walk of ``config.length`` steps.

    ``start=None`` draws the start uniformly from the vertices.  The
    generator is ``rng_stream(config.seed, walk_index)``, so a batch of
    walks indexed 0..N-1 is reproducible walk by walk.
    """
    if config.seed is None:
        raise ValueError("config.seed is required for sampling")
    rng = rng_stream(config.seed, walk_index)
    if start is None:
        start = int(rng.integers(g.n))
    elif not 0 <= start < g.n:
        raise ValueError(f"start {start} out of range for n={g.n}")

    moves = list(islice(iter_walk_steps(g, config, start, rng), config.length))
    return Walk((start, *[v for v, _ in moves]), (False, *[f for _, f in moves]))


def check_enumeration_bound(g: Graph, config: WalkConfig, n_starts: int) -> None:
    """Refuse a walk tree that may exceed ``ENUMERATION_GUARD`` leaves.

    The bound is ``n_starts`` times the largest branching per step.
    """
    if config.length == 0:
        bound = n_starts
    else:
        per_step = g.max_degree()
        if isinstance(config.restart, RestartProb):
            per_step += 1
        bound = n_starts * g.max_degree() * per_step ** (config.length - 1)
    if bound > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration bound {bound} exceeds guard {ENUMERATION_GUARD}"
        )


def enumerate_walk_distribution(
    g: Graph, config: WalkConfig, start: int | None = None
) -> Iterator[tuple[Walk, float]]:
    """Exhaustively enumerate ``(walk, probability)`` pairs.

    The probabilities of the yielded walks sum to one.  ``start=None``
    averages over a uniform start.  Refuses instances whose branching
    bound exceeds ``ENUMERATION_GUARD`` sequences.  Walks come in
    depth-first order over :meth:`StepTable.branches`, and each
    probability is the left-to-right product of its branch
    probabilities.
    """
    starts = list(range(g.n)) if start is None else [start]
    check_enumeration_bound(g, config, len(starts))
    start_prob = 1.0 / g.n if start is None else 1.0

    table = StepTable(g, config)
    # an explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep the table alive
    # after the call until the cycle collector runs
    stack = [([s], [False], start_prob) for s in reversed(starts)]
    while stack:
        vertices, flags, prob = stack.pop()
        t = len(vertices)
        if t == config.length + 1:
            yield Walk(tuple(vertices), tuple(flags)), prob
            continue
        prev = vertices[-2] if t >= 2 else None
        children = table.branches(vertices[0], prev, vertices[-1], t, flags[-1])
        stack.extend(
            (vertices + [x], flags + [flag], prob * q)
            for x, flag, q in reversed(children)
        )
