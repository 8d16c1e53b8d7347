"""Cover-time estimation: global, local under restarts, and the bounds.

Every sampler here reads one :class:`~walklab.walks.StepTable`, built
per call.  A scalar path steps one trial at a time through the table's
rows and supports every walk configuration, restarts included.  A
lockstep path advances a whole chunk of restart-free trials at once
through the table's padded numpy view; it exists because edge-cover
tails on the larger lollipops make the scalar path impractical.  Both
paths implement the same chain; the test suite cross-checks them on
small graphs.

Reproducibility contract: scalar trial ``i`` uses the Philox stream
``(seed, i)``.  Lockstep samplers, here and in :mod:`walklab.mixing`,
share one chunk runner: it carves trials into fixed chunks of
``CHUNK_TRIALS``, runs chunk ``j`` of experiment cell ``c`` on stream
``(seed, c, j)`` and merges results in chunk order.  Chunks are
independent, so thread count never changes any output byte.

Draw contract of the cover kernel: a chunk draws its uniform starts
first, if any, then each step draws one ``rng.random(k)`` for its ``k``
live lanes, in lane order.  A lane leaves the draw once every time it
tracks is known; lanes still live at the budget are censored.  The
kernel keeps its arrays compacted to the live lanes and, once fewer
than ``TAIL_LANES`` are left, finishes the chunk in a Python loop that
picks a lane's slot with ``bisect_right`` on its ``cum`` row instead
of ``(u >= cum).sum()``.  The two agree for every ``u`` in [0, 1) (see
:func:`_cover_tail`), so both phases consume the stream alike and give
the same bytes.  How the ``k`` uniforms are grouped into calls does
not matter (Philox hands out one flat sequence of doubles); their
count and order do.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .generators import gen_lollipop, gen_rook4x4, gen_shrikhande
from .graphs import Graph, local_ball
from .walks import (
    MDLR,
    Constant,
    Node2Vec,
    PaddedRows,
    RestartMode,
    RestartPeriod,
    RestartProb,
    StepTable,
    WalkConfig,
    rng_stream,
)

__all__ = [
    "Fixed",
    "WorstOverStarts",
    "UniformRandom",
    "StartPolicy",
    "CoverStats",
    "RestartBound",
    "sample_cover_time",
    "estimate_cover_time",
    "batch_cover_samples",
    "local_cover_time",
    "theorem2_bound",
    "cover_csv",
    "experiment_fig3",
    "experiment_sr16",
    "DEFAULT_BUDGET",
    "CHUNK_TRIALS",
]

DEFAULT_BUDGET = 10**9
CHUNK_TRIALS = 1024
# below this many live lanes a chunk finishes in a Python loop, where
# per-step numpy call overhead no longer pays for itself
TAIL_LANES = 64


@dataclass(frozen=True)
class Fixed:
    vertex: int


@dataclass(frozen=True)
class WorstOverStarts:
    """Exact scan over all starts; the reported mean is the worst one."""


@dataclass(frozen=True)
class UniformRandom:
    """Fresh uniformly random start per trial."""


StartPolicy = Union[Fixed, WorstOverStarts, UniformRandom]


@dataclass(frozen=True)
class CoverStats:
    """Monte Carlo cover-time estimate.

    ``censored`` counts trials that hit the step budget before
    covering; they are excluded from ``mean`` and ``std_err``, never
    silently averaged in.  ``mean`` is NaN when every trial censored.
    """

    mean: float
    std_err: float
    trials: int
    mode: str
    start_policy: StartPolicy
    censored: int = 0


@dataclass(frozen=True)
class RestartBound:
    """Closed-form worst-case local cover bound for restarted walks."""

    value: float
    mode: str
    max_degree: int
    radius: int
    restart: RestartMode

    def __float__(self) -> float:
        return self.value


def _check_mode(mode: str) -> None:
    # "edge" counts a traversal in either direction; "edge-strict" is the
    # textbook notion that wants both directions of every edge.
    if mode not in ("vertex", "edge", "edge-strict"):
        raise ValueError(
            f"mode must be 'vertex', 'edge' or 'edge-strict', got {mode!r}"
        )


def _check_budget(budget: int) -> None:
    # a budget below one step censors every trial that has anything to
    # cover, which reads as a NaN mean rather than as a mistake
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")


def _require_seed(config: WalkConfig) -> int:
    if config.seed is None:
        raise ValueError("config.seed is required for sampling")
    return config.seed


# ---------------------------------------------------------------------------
# scalar path


def _targets(
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


def _cover_time_scalar(
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


def _scalar_samples(
    table: StepTable,
    seed: int,
    trials: int,
    start: int | None,
    budget: int,
    targets: frozenset,
    arc_target: dict[tuple[int, int], tuple[int, int]] | None,
    index_base: int = 0,
) -> np.ndarray:
    """Cover times of trials ``index_base + i``; -1 marks a censored trial.

    ``start`` None draws each trial's start from its own stream.
    """
    out = np.full(trials, -1, dtype=np.int64)
    for i in range(trials):
        rng = rng_stream(seed, index_base + i)
        s = int(rng.integers(table.g.n)) if start is None else start
        got = _cover_time_scalar(table, s, rng, targets, arc_target, budget)
        if got is not None:
            out[i] = got
    return out


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
    until both directions of every edge are traversed.  Global cover
    expects a restart-free walk (a restarted walk localizes and its
    global cover time need not even have a finite mean).
    """
    _check_mode(mode)
    _check_budget(budget)
    if config.restart is not None:
        raise ValueError("global cover time expects a restart-free config")
    if not 0 <= start < g.n:
        raise ValueError(f"start {start} out of range for n={g.n}")
    rng = rng_stream(_require_seed(config), walk_index)
    targets, arc_target = _targets(mode, range(g.n), g.edges())
    return _cover_time_scalar(
        StepTable(g, config), start, rng, targets, arc_target, budget
    )


# ---------------------------------------------------------------------------
# lockstep path (restart-free only)


def _run_chunks(
    seed: int,
    cell: int,
    trials: int,
    threads: int,
    run_chunk: Callable[[np.random.Generator, int], object],
) -> list:
    """``run_chunk(rng, lanes)`` over the fixed chunks of ``trials``.

    Chunk ``j`` holds trials ``j * CHUNK_TRIALS`` onward and draws from
    stream ``(seed, cell, j)``.  Results come back in chunk order
    whatever ``threads`` says; a pool is used only when it exceeds 1.
    """
    jobs = [
        (j, min(CHUNK_TRIALS, trials - j * CHUNK_TRIALS))
        for j in range((trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS)
    ]

    def run(job: tuple[int, int]) -> object:
        j, lanes = job
        return run_chunk(rng_stream(seed, cell, j), lanes)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, jobs))
    return [run(job) for job in jobs]


def _row_draw(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per lane, the first slot whose cumulative sum exceeds its uniform."""
    return (u[:, None] >= cum_rows).sum(axis=1)


def _cover_chunk(
    g: Graph,
    rows: PaddedRows,
    rng: np.random.Generator,
    lanes: int,
    start: int | None,
    budget: int,
    track_edges: bool,
    strict_edges: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Cover times for one chunk of lanes; -1 marks a censored lane.

    Each step draws one ``rng.random(k)`` for the ``k`` live lanes, in
    lane order, and moves every live lane once.  The per-lane state is
    kept compacted to the live lanes, in lane order, and is compacted
    again only in the steps where some lane finishes.  Once fewer than
    ``TAIL_LANES`` lanes are live, :func:`_cover_tail` finishes the
    chunk under the same draw contract.
    """
    n = g.n
    if start is None:
        state = rng.integers(n, size=lanes)
    else:
        state = np.full(lanes, start, dtype=np.int64)
    t_v = np.full(lanes, -1, dtype=np.int64)
    t_e = np.full(lanes, -1, dtype=np.int64)
    if n == 1:
        # the start covers the only vertex, and there is no edge to cover
        t_v[:] = 0
        if track_edges:
            t_e[:] = 0
        return t_v, t_e

    # strict edge cover tracks the 2m arcs, plain cover the m edges
    entered, e_total = (rows.arc, 2 * g.m) if strict_edges else (rows.edge, g.m)
    # Per live lane: its index, its state, how many vertices and edges it
    # has left to cover (-1 once the cover time is recorded) and the
    # offsets of its rows in the flat "not yet covered" flags.
    lane = np.arange(lanes)
    v_row = lane * n
    unvisited = np.ones(lanes * n, dtype=bool)
    unvisited[v_row + state] = False
    v_left = np.full(lanes, n - 1, dtype=np.int64)
    if track_edges:
        e_row = lane * e_total
        untraversed = np.ones(lanes * e_total, dtype=bool)
        e_left = np.full(lanes, e_total, dtype=np.int64)
    else:
        e_left = None
    s = state
    t = 0
    while lane.size >= TAIL_LANES:
        t += 1
        s = rows.next[s, _row_draw(rows.cum[s], rng.random(s.size))]
        cell = v_row + rows.position[s]
        v_left -= unvisited[cell]
        unvisited[cell] = False
        if track_edges:
            cell = e_row + entered[s]
            e_left -= untraversed[cell]
            untraversed[cell] = False
        # count_nonzero costs a fraction of .all() on short arrays
        finished = False
        if np.count_nonzero(v_left) < v_left.size:
            hit = v_left == 0
            t_v[lane[hit]] = t
            v_left[hit] = -1
            finished = True
        if track_edges and np.count_nonzero(e_left) < e_left.size:
            hit = e_left == 0
            t_e[lane[hit]] = t
            e_left[hit] = -1
            finished = True
        if finished:
            live = (v_left >= 0) | (e_left >= 0) if track_edges else v_left >= 0
            if not live.all():
                lane, s, v_left, v_row = lane[live], s[live], v_left[live], v_row[live]
                if track_edges:
                    e_left, e_row = e_left[live], e_row[live]
        if t >= budget:
            return t_v, t_e
    if lane.size:
        if track_edges:
            e_flags = untraversed.reshape(lanes, e_total)[lane]
        else:
            entered = e_flags = None
        _cover_tail(
            rows, entered, rng, t, budget, lane, s, v_left, e_left,
            unvisited.reshape(lanes, n)[lane], e_flags, t_v, t_e,
        )
    return t_v, t_e


def _cover_tail(
    rows: PaddedRows,
    entered: np.ndarray | None,
    rng: np.random.Generator,
    t: int,
    budget: int,
    lane: np.ndarray,
    state: np.ndarray,
    v_left: np.ndarray,
    e_left: np.ndarray | None,
    unvisited: np.ndarray,
    untraversed: np.ndarray | None,
    t_v: np.ndarray,
    t_e: np.ndarray,
) -> None:
    """Finish a near-empty chunk one lane at a time, after step ``t``.

    Same chain and draws as the lockstep loop: one ``rng.random(k)`` per
    step for the ``k`` live lanes, in lane order.  A slot is picked by
    ``bisect_right`` on the state's padded ``cum`` row, which equals the
    lockstep ``(u >= cum).sum()`` for every ``u`` in [0, 1): the row's
    sums of non-negative probabilities never decrease, except that the
    forced final 1.0 may sit below its predecessor, and both exceed
    ``u``; the 2.0 padding exceeds it too.  So the entries at most
    ``u`` are a prefix, which both count.  ``unvisited`` and
    ``untraversed`` hold the live lanes' rows, in lane order, and
    ``entered`` is None when only vertices are tracked; the times land
    in ``t_v``/``t_e``.
    """
    cum, nxt, position = rows.cum.tolist(), rows.next.tolist(), rows.position.tolist()
    track_edges = entered is not None
    ids, states, v_lefts = lane.tolist(), state.tolist(), v_left.tolist()
    n_v = unvisited.shape[1]
    v_rows = list(range(0, len(ids) * n_v, n_v))
    unvisited = bytearray(unvisited.tobytes())
    if track_edges:
        arc_cell = entered.tolist()
        e_lefts = e_left.tolist()
        n_e = untraversed.shape[1]
        e_rows = list(range(0, len(ids) * n_e, n_e))
        untraversed = bytearray(untraversed.tobytes())
    else:
        e_lefts = [-1] * len(ids)
    while ids and t < budget:
        t += 1
        finished = False
        for i, u in enumerate(rng.random(len(ids)).tolist()):
            s = states[i]
            s = states[i] = nxt[s][bisect_right(cum[s], u)]
            cell = v_rows[i] + position[s]
            if unvisited[cell]:
                unvisited[cell] = 0
                v_lefts[i] -= 1
                if not v_lefts[i]:
                    t_v[ids[i]] = t
                    v_lefts[i] = -1
                    finished = True
            if track_edges:
                cell = e_rows[i] + arc_cell[s]
                if untraversed[cell]:
                    untraversed[cell] = 0
                    e_lefts[i] -= 1
                    if not e_lefts[i]:
                        t_e[ids[i]] = t
                        e_lefts[i] = -1
                        finished = True
        if finished:
            live = [i for i in range(len(ids)) if v_lefts[i] >= 0 or e_lefts[i] >= 0]
            ids, states = [ids[i] for i in live], [states[i] for i in live]
            v_lefts, v_rows = [v_lefts[i] for i in live], [v_rows[i] for i in live]
            e_lefts = [e_lefts[i] for i in live]
            if track_edges:
                e_rows = [e_rows[i] for i in live]


def batch_cover_samples(
    g: Graph,
    config: WalkConfig,
    trials: int,
    start: int | None,
    budget: int = DEFAULT_BUDGET,
    cell: int = 0,
    threads: int = 1,
    track_edges: bool = True,
    strict_edges: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Paired (vertex, edge) cover-time samples from lockstep trials.

    Both times come from the same trajectory, so per-trial
    ``edge >= vertex`` holds wherever both are uncensored.  ``start``
    None draws a fresh uniform start per trial.  ``strict_edges``
    switches the edge time to the both-directions notion.  Returns
    int64 arrays of length ``trials`` with -1 for censored entries (the
    edge array is all -1 when ``track_edges`` is off).
    """
    if config.restart is not None:
        raise ValueError("the vectorized path does not support restarts")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_budget(budget)
    seed = _require_seed(config)
    rows = StepTable(g, config).padded()

    def run_chunk(rng: np.random.Generator, lanes: int) -> tuple[np.ndarray, np.ndarray]:
        return _cover_chunk(
            g, rows, rng, lanes, start, budget, track_edges, strict_edges
        )

    parts = _run_chunks(seed, cell, trials, threads, run_chunk)
    return (
        np.concatenate([t_v for t_v, _ in parts]),
        np.concatenate([t_e for _, t_e in parts]),
    )


# ---------------------------------------------------------------------------
# estimators


def _stats(
    samples: np.ndarray, mode: str, start_policy: StartPolicy
) -> CoverStats:
    trials = samples.size
    ok = samples[samples >= 0]
    censored = int(trials - ok.size)
    if ok.size == 0:
        return CoverStats(math.nan, math.nan, trials, mode, start_policy, censored)
    mean = float(ok.mean())
    std_err = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    return CoverStats(mean, std_err, trials, mode, start_policy, censored)


def estimate_cover_time(
    g: Graph,
    config: WalkConfig,
    mode: str,
    trials: int,
    start_policy: StartPolicy,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
    threads: int = 1,
) -> CoverStats:
    """Monte Carlo cover-time estimate under a start policy.

    ``Fixed``/``UniformRandom`` average ``trials`` samples.
    ``WorstOverStarts`` runs ``trials`` per start and reports the start
    with the largest mean; if some start ends up fully censored the
    worst case is unknown and the result is NaN.  ``method`` picks the
    sampling path: "auto" vectorizes whenever the config is
    restart-free, "scalar"/"batch" force one.
    """
    _check_mode(mode)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_budget(budget)
    if config.restart is not None:
        raise ValueError("global cover time expects a restart-free config")
    if method not in ("auto", "scalar", "batch"):
        raise ValueError(f"unknown method {method!r}")
    use_batch = method in ("auto", "batch")
    table = StepTable(g, config)
    targets, arc_target = _targets(mode, range(g.n), g.edges())

    def one_run(start: int | None, cell: int) -> np.ndarray:
        if use_batch:
            t_v, t_e = batch_cover_samples(
                g, config, trials, start, budget, cell=cell, threads=threads,
                track_edges=(mode != "vertex"),
                strict_edges=(mode == "edge-strict"),
            )
            return t_v if mode == "vertex" else t_e
        return _scalar_samples(
            table, _require_seed(config), trials, start, budget, targets,
            arc_target, index_base=cell * trials,
        )

    if isinstance(start_policy, Fixed):
        if not 0 <= start_policy.vertex < g.n:
            raise ValueError(f"start {start_policy.vertex} out of range")
        return _stats(one_run(start_policy.vertex, 0), mode, start_policy)
    if isinstance(start_policy, UniformRandom):
        return _stats(one_run(None, 0), mode, start_policy)
    if isinstance(start_policy, WorstOverStarts):
        per_start = [_stats(one_run(v, v), mode, start_policy) for v in range(g.n)]
        censored_total = sum(s.censored for s in per_start)
        if any(math.isnan(s.mean) for s in per_start):
            # a fully censored start means the worst case is unknown
            return CoverStats(
                math.nan, math.nan, trials * g.n, mode, start_policy, censored_total
            )
        worst = max(per_start, key=lambda s: s.mean)
        return CoverStats(
            worst.mean, worst.std_err, trials * g.n, mode, start_policy,
            censored_total,
        )
    raise TypeError(f"unknown start policy {start_policy!r}")


def local_cover_time(
    g: Graph,
    v: int,
    r: int,
    config: WalkConfig,
    mode: str,
    trials: int,
    budget: int = DEFAULT_BUDGET,
) -> CoverStats:
    """Cover time of the radius-``r`` ball around ``v``, walking on all of ``g``.

    The walk starts at the center and must carry a restart mode (that
    is what makes these times finite on unbounded graphs); in period
    mode the period must be at least ``r + 1``.  Vertex mode covers the
    ball's members, edge mode the edges they induce.
    """
    _check_mode(mode)
    if config.restart is None:
        raise ValueError("local cover time requires a restart mode")
    if isinstance(config.restart, RestartPeriod) and config.restart.k < r + 1:
        raise ValueError(
            f"period {config.restart.k} too short for radius {r} (need k >= r+1)"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_budget(budget)
    seed = _require_seed(config)
    ball = local_ball(g, v, r)
    targets, arc_target = _targets(mode, ball.members, ball.edges_in_parent())
    out = _scalar_samples(
        StepTable(g, config), seed, trials, v, budget, targets, arc_target
    )
    return _stats(out, mode, Fixed(v))


def theorem2_bound(
    max_degree: int, r: int, restart: RestartMode, mode: str = "vertex"
) -> RestartBound:
    """Closed-form bound on the restarted walk's local cover time.

    Worst case over all graphs of maximum degree ``max_degree`` and all
    centers, for the radius-``r`` ball.  Probability mode accepts any
    alpha in (0, 1) (the value diverges as alpha approaches either
    end); period mode needs ``k >= r`` for vertex cover and
    ``k >= r + 1`` for edge cover, the number of steps a single
    excursion needs to reach the ball's rim (and cross its last edge).
    """
    _check_mode(mode)
    if max_degree < 2:
        raise ValueError(
            f"bound needs max_degree >= 2, got {max_degree}"
        )
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    d = float(max_degree)
    if isinstance(restart, RestartProb):
        a = restart.alpha
        ratio = d / (1.0 - a)
        if mode == "vertex":
            per_target = (1 / a) + (1 / a) * ratio**r + (1 / a) * (1 / a - 1) * ratio ** (2 * r)
            value = 2 * (d**r - 1) * per_target
        else:
            per_target = (
                (1 / a)
                + (1 / a) * ratio ** (r + 1)
                + (1 / a) * (1 / a - 1) * ratio ** (2 * r + 1)
            )
            value = 2 * (d ** (2 * r) - 1) * per_target
    elif isinstance(restart, RestartPeriod):
        k = restart.k
        if mode == "vertex":
            if k < r:
                raise ValueError(f"period {k} < radius {r} is out of the bound's range")
            value = 2 * (d**r - 1) * (k + k * d**r)
        else:
            if k < r + 1:
                raise ValueError(
                    f"period {k} < r+1 = {r + 1} is out of the edge bound's range"
                )
            value = 2 * (d ** (2 * r) - 1) * (k + k * d ** (r + 1))
    else:
        raise TypeError(f"unknown restart mode {restart!r}")
    return RestartBound(
        value=float(value), mode=mode, max_degree=max_degree, radius=r, restart=restart
    )


# ---------------------------------------------------------------------------
# experiments


CsvRow = tuple[str, str, CoverStats]


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.6f}"


def cover_csv(rows: Iterable[CsvRow]) -> str:
    """CSV text, header first, one line per ``(graph, walk, stats)`` row."""
    lines = ["graph,walk,mode,mean,std_err,trials,censored"]
    for graph, walk, st in rows:
        lines.append(
            f"{graph},{walk},{st.mode},{_fmt(st.mean)},{_fmt(st.std_err)},"
            f"{st.trials},{st.censored}"
        )
    return "\n".join(lines) + "\n"


def _paired_rows(
    g: Graph,
    label: str,
    walk_label: str,
    config: WalkConfig,
    trials: int,
    budget: int,
    cell: int,
    threads: int,
    edge_mode: str = "edge",
) -> list[CsvRow]:
    """A vertex row and an ``edge_mode`` row, paired per trajectory."""
    t_v, t_e = batch_cover_samples(
        g, config, trials, start=None, budget=budget, cell=cell, threads=threads,
        strict_edges=edge_mode == "edge-strict",
    )
    return [
        (label, walk_label, _stats(samples, mode, UniformRandom()))
        for mode, samples in (("vertex", t_v), (edge_mode, t_e))
    ]


def experiment_fig3(
    seed: int,
    sizes: tuple[int, ...] = (10, 20, 40),
    trials: int = 2000,
    budget: int = 100_000,
    threads: int = 1,
) -> str:
    """Cover-time table over lollipop graphs, as CSV text.

    Walk variants: uniform and minimum-degree conductances with and
    without non-backtracking, plus the p=1, q=2 biased walk.  Starts
    are uniformly random and vertex/edge times are measured on the same
    trajectories.  The default budget censors the biased walk's hopeless
    cells (its backward drift on the lollipop handle grows
    exponentially with size) instead of hanging; censored counts land
    in the CSV.
    """
    rows: list[CsvRow] = []
    cell = 0
    for m in sizes:
        g = gen_lollipop(m)
        label = f"lollipop-{2 * m}"
        for walk_label, config in _fig3_variants(seed):
            rows.extend(
                _paired_rows(g, label, walk_label, config, trials, budget, cell, threads)
            )
            cell += 1
    return cover_csv(rows)


def _fig3_variants(seed: int) -> list[tuple[str, WalkConfig]]:
    variants: list[tuple[str, WalkConfig]] = []
    for cond_label, cond in (("uniform", Constant()), ("mdlr", MDLR())):
        for nb in (False, True):
            variants.append(
                (
                    cond_label + ("+nb" if nb else ""),
                    WalkConfig(length=0, conductance=cond,
                               non_backtracking=nb, seed=seed),
                )
            )
    # p/q rendered with a slash: the label sits in an unquoted CSV field
    variants.append(
        (
            "node2vec(1/2)",
            WalkConfig(length=0, conductance=Constant(),
                       node2vec=Node2Vec(1.0, 2.0), seed=seed),
        )
    )
    # second-order rules are exclusive, so the non-backtracking "variant"
    # of the biased walk is plain NB (on degree-2 handle vertices they
    # coincide anyway: excluding the predecessor leaves one candidate)
    variants.append(
        (
            "node2vec(1/2)+nb",
            WalkConfig(length=0, conductance=Constant(),
                       non_backtracking=True, seed=seed),
        )
    )
    return variants


def experiment_sr16(
    seed: int, trials: int = 10_000, threads: int = 1
) -> str:
    """Cover times of the two strongly regular 16-vertex graphs, as CSV.

    Walk: minimum-degree conductance with non-backtracking (on these
    6-regular graphs the conductance is degree-constant, so this is the
    non-backtracking uniform walk).  Uniformly random starts, vertex and
    edge times paired per trajectory; the summary rows average the two
    graphs' means.  The edge rows use the strict both-directions notion
    (every edge traversed each way), the quantity this experiment is
    meant to estimate.
    """
    rows: list[CsvRow] = []
    config = WalkConfig(
        length=0, conductance=MDLR(), non_backtracking=True, seed=seed
    )
    per_graph: dict[str, dict[str, CoverStats]] = {}
    for cell, (label, g) in enumerate(
        (("rook4x4", gen_rook4x4()), ("shrikhande", gen_shrikhande()))
    ):
        graph_rows = _paired_rows(
            g, label, "mdlr+nb", config, trials, DEFAULT_BUDGET, cell, threads,
            edge_mode="edge-strict",
        )
        per_graph[label] = {st.mode: st for _, _, st in graph_rows}
        rows.extend(graph_rows)
    for mode in ("vertex", "edge-strict"):
        pair = [per_graph["rook4x4"][mode], per_graph["shrikhande"][mode]]
        mean = (pair[0].mean + pair[1].mean) / 2
        std_err = math.sqrt(pair[0].std_err**2 + pair[1].std_err**2) / 2
        summary = CoverStats(
            mean, std_err, pair[0].trials + pair[1].trials, mode, UniformRandom(),
            pair[0].censored + pair[1].censored,
        )
        rows.append(("sr16-mean", "mdlr+nb", summary))
    return cover_csv(rows)
