"""Cover-time estimation: global, local under restarts, and the bounds.

Every sampler here compiles the walk's step law once per call.  Global
cover (``estimate_cover_time``, ``worst_start_cover_time``,
``batch_cover_samples`` and the experiments) takes the lockstep path,
which advances groups of chunks of restart-free trials at once through
the padded arrays of :meth:`~walklab.walks.PaddedRows.compile`.  Local
cover under restarts, ``local_cover_time``, steps one trial at a time by
:meth:`~walklab.walks.StepTable.steps`, under its draw contract.
The test suite keeps a scalar global sampler as a reference and
cross-checks the two paths on small graphs.

Reproducibility contract: local-cover trial ``i`` uses the Philox stream
``(seed, i)``.  Lockstep samplers, here and in :mod:`walklab.mixing`,
share one chunk runner, :func:`chunk_groups`: it carves each cell's
trials into fixed chunks of ``CHUNK_TRIALS``, gives chunk ``j`` of
experiment cell ``c`` stream ``(seed, c, j)``, and cuts the call's
chunks, in ``(c, j)`` order, into groups of at most ``GROUP_CHUNKS``
that each step as one set of lanes, all on the calling thread.  Results
come back in chunk order.  A chunk's draws never depend on its group,
so grouping changes no byte.

Draw contract of the cover kernel: each chunk draws its uniform starts
first, if any, then each step every chunk with ``k`` live lanes draws
one ``rng.random(k)`` from its own stream, for its live lanes in lane
order; the group joins these in chunk order.  A lane leaves the draw
once every time it tracks is known; lanes still live at the budget are
censored.  The kernel, :func:`_cover_group`, keeps its arrays
compacted to the live lanes and moves them with the guide-table draw of
:meth:`~walklab.walks.PaddedRows.draw`; once fewer than ``TAIL_LANES``
of the group's lanes are left, it finishes the group in a Python loop
that picks a lane's slot with ``bisect_right`` on its ``cum`` row.  For
every ``u`` in [0, 1) both pick slot ``(u >= cum).sum()`` of the
state's padded row, the count of its sums at most ``u`` (see
:class:`~walklab.walks.PaddedRows`), so both phases consume each stream
alike and give the bytes the plain padded count gave.  How a chunk's
``k`` uniforms are grouped into calls does not matter (Philox hands out
one flat sequence of doubles); their count and order do.
"""
from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

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
    require_seed,
    require_start,
    rng_stream,
)

__all__ = [
    "CoverStats",
    "estimate_cover_time",
    "worst_start_cover_time",
    "batch_cover_samples",
    "local_cover_time",
    "theorem2_bound",
    "walk_label",
    "cover_csv",
    "experiment_fig3",
    "experiment_sr16",
    "DEFAULT_BUDGET",
    "CHUNK_TRIALS",
]

DEFAULT_BUDGET = 10**9
CHUNK_TRIALS = 1024
# a lockstep call steps up to this many of its chunks together as one set
# of lanes, each chunk drawing from its own stream
GROUP_CHUNKS = 4
# below this many live lanes a group finishes in a Python loop, where
# per-step numpy call overhead no longer pays for itself
TAIL_LANES = 64


@dataclass(frozen=True, slots=True)
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
    censored: int = 0


def _check_mode(mode: str) -> None:
    # "edge" counts a traversal in either direction; "edge-strict" is the
    # textbook notion that wants both directions of every edge.
    if mode not in ("vertex", "edge", "edge-strict"):
        raise ValueError(
            f"mode must be 'vertex', 'edge' or 'edge-strict', got {mode!r}"
        )


def _checked_seed(
    g: Graph, config: WalkConfig, trials: int, start: int | None, budget: int,
    local: bool = False,
) -> int:
    """A cover sampler's seed, once its call's arguments are checked.

    Global cover wants a restart-free walk (a restarted walk localizes,
    and its global cover time need not even have a finite mean).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # a budget below one step censors every trial that has anything to
    # cover, which reads as a NaN mean rather than as a mistake
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if local and config.restart is None:
        raise ValueError("local cover time requires a restart mode")
    if not local and config.restart is not None:
        raise ValueError("global cover time expects a restart-free config")
    if start is not None:
        require_start(g, start)
    return require_seed(config)


# ---------------------------------------------------------------------------
# lockstep path (restart-free only)


def chunk_groups(
    seed: int, cells: Iterable[int], trials: int
) -> Iterator[list[tuple[int, np.random.Generator, int]]]:
    """The chunks of ``trials`` trials per cell, in groups, as ``(cell, rng, lanes)``.

    Chunk ``j`` of cell ``c`` holds that cell's trials ``j * CHUNK_TRIALS``
    onward and draws from stream ``(seed, c, j)``.  The chunks are listed
    in ``(c, j)`` order and cut into groups of at most ``GROUP_CHUNKS``,
    so the groups' lanes, joined in order, are the cells' trials in
    order.  A group's streams are made when the group is reached.
    """
    chunks = [
        (c, j, min(CHUNK_TRIALS, trials - lo))
        for c in cells
        for j, lo in enumerate(range(0, trials, CHUNK_TRIALS))
    ]
    for i in range(0, len(chunks), GROUP_CHUNKS):
        yield [
            (c, rng_stream(seed, c, j), lanes)
            for c, j, lanes in chunks[i:i + GROUP_CHUNKS]
        ]


def joined_random(
    draws: list[tuple[np.random.Generator, int]], out: np.ndarray
) -> np.ndarray:
    """One step's uniforms: ``rng.random(k)`` for each ``(rng, k)``, in order.

    They are written one after another to the front of ``out``, which
    is returned cut to their count.  Writing them in place costs less
    than drawing fresh arrays and joining them, and reads the same
    doubles from each stream.
    """
    lo = 0
    for rng, k in draws:
        rng.random(out=out[lo:lo + k])
        lo += k
    return out[:lo]


def _live_draws(
    rngs: list[np.random.Generator], ends: np.ndarray, lane: np.ndarray | list[int]
) -> list[tuple[np.random.Generator, int]]:
    """``(rng, k)`` for each chunk of a group with ``k > 0`` live lanes.

    ``lane`` holds the indices of the group's live lanes in increasing
    order, and chunk ``c``'s lanes end before ``ends[c]``.
    """
    draws, done = [], 0
    for rng, upto in zip(rngs, np.searchsorted(lane, ends).tolist()):
        if upto > done:
            draws.append((rng, upto - done))
        done = upto
    return draws


def _cover_group(
    g: Graph,
    rows: PaddedRows,
    chunks: list[tuple[np.random.Generator, int, int | None]],
    budget: int,
    entered: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cover times for a group of chunks; -1 marks a censored lane.

    ``chunks`` holds ``(rng, lanes, start)`` per chunk, and the returned
    arrays hold the chunks' lanes joined in chunk order.  ``entered``
    maps each state to the edge target that moving into it covers
    (``rows.edge``, or ``rows.arc`` for edge-strict cover); with None
    only vertices are tracked and the edge times stay -1.  A chunk whose
    ``start`` is None first draws its lanes' uniform starts.  Then each
    step, every chunk with ``k`` live lanes draws one ``rng.random(k)``,
    in lane order, and every live lane moves once.  The group's per-lane
    state is kept compacted to the live lanes, in lane order and so
    chunk by chunk, and is compacted again only in the steps where some
    lane finishes; the chunks' live counts are recounted only then.
    Below ``TAIL_LANES`` live lanes the group finishes in a Python loop.
    """
    n = g.n
    starts = []
    for rng, k, start in chunks:
        starts.append(
            rng.integers(n, size=k) if start is None else np.full(k, start, dtype=np.int64)
        )
    state = np.concatenate(starts)
    lanes = state.size
    track_edges = entered is not None
    t_v = np.full(lanes, -1, dtype=np.int64)
    t_e = np.full(lanes, -1, dtype=np.int64)
    if n == 1:
        # the start covers the only vertex, and there is no edge to cover
        t_v[:] = 0
        if track_edges:
            t_e[:] = 0
        return t_v, t_e

    rngs = [rng for rng, _, _ in chunks]
    # chunk c's lanes end before ends[c]
    ends = np.cumsum([k for _, k, _ in chunks])
    draws = [(rng, k) for rng, k, _ in chunks]
    uniforms = np.empty(lanes)
    # Per live lane: its index, its state, how many vertices and edges it
    # has left to cover (-1 once the cover time is recorded) and the
    # offsets of its rows in the flat "not yet covered" flags.
    lane = np.arange(lanes)
    v_row = lane * n
    unvisited = np.ones(lanes * n, dtype=bool)
    unvisited[v_row + state] = False
    v_left = np.full(lanes, n - 1, dtype=np.int64)
    if track_edges:
        # the m edges, or the 2m arcs
        e_total = int(entered.max()) + 1
        e_row = lane * e_total
        untraversed = np.ones(lanes * e_total, dtype=bool)
        e_left = np.full(lanes, e_total, dtype=np.int64)
    s = state
    t = 0
    # A lane with its vertex time has no vertex flag left set, so once
    # every live lane has one (edge cover only) the vertex step is idle.
    v_busy = True
    while lane.size >= TAIL_LANES and t < budget:
        t += 1
        s = rows.draw(s, joined_random(draws, uniforms))
        if v_busy:
            cell = v_row + rows.position[s]
            v_left -= unvisited[cell]
            unvisited[cell] = False
        if track_edges:
            cell = e_row + entered[s]
            e_left -= untraversed[cell]
            untraversed[cell] = False
        # count_nonzero costs a fraction of .all() on short arrays
        finished = False
        if v_busy and np.count_nonzero(v_left) < v_left.size:
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
                draws = _live_draws(rngs, ends, lane)
            v_busy = bool((v_left >= 0).any())
    if not lane.size or t >= budget:
        return t_v, t_e

    # The tail: per-step numpy calls no longer pay for themselves, so
    # each lane steps in Python.  bisect_right on the state's padded cum
    # row picks the slot draw picks (see PaddedRows), so the streams are
    # read alike.  The flags become bytearrays of the live lanes' rows,
    # in lane order.
    cum, nxt, position = rows.cum.tolist(), rows.next.tolist(), rows.position.tolist()
    ids, states, v_lefts = lane.tolist(), s.tolist(), v_left.tolist()
    v_rows = list(range(0, len(ids) * n, n))
    unvisited = bytearray(unvisited.reshape(lanes, n)[lane].tobytes())
    if track_edges:
        arc_cell = entered.tolist()
        e_lefts = e_left.tolist()
        e_rows = list(range(0, len(ids) * e_total, e_total))
        untraversed = bytearray(untraversed.reshape(lanes, e_total)[lane].tobytes())
    else:
        # no edge target: a lane lives while it lacks its vertex time
        e_lefts = e_rows = [-1] * len(ids)
    while ids and t < budget:
        t += 1
        finished = False
        for i, u in enumerate(joined_random(draws, uniforms).tolist()):
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
            keep = [v >= 0 or e >= 0 for v, e in zip(v_lefts, e_lefts)]
            ids, states = list(compress(ids, keep)), list(compress(states, keep))
            v_lefts, v_rows = list(compress(v_lefts, keep)), list(compress(v_rows, keep))
            e_lefts, e_rows = list(compress(e_lefts, keep)), list(compress(e_rows, keep))
            draws = _live_draws(rngs, ends, ids)
    return t_v, t_e


def _lockstep_samples(
    g: Graph,
    rows: PaddedRows,
    seed: int,
    trials: int,
    starts: dict[int, int | None],
    budget: int,
    entered: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``trials`` cover-time samples per cell, on rows compiled by the caller.

    ``starts`` maps each cell to its start (None for uniform starts);
    the arrays hold the cells' trials in the order of ``starts``.
    ``entered`` says which edge targets to track, as for :func:`_cover_group`.
    """
    parts = [
        _cover_group(
            g, rows, [(rng, lanes, starts[cell]) for cell, rng, lanes in group],
            budget, entered,
        )
        for group in chunk_groups(seed, starts, trials)
    ]
    return (
        np.concatenate([t_v for t_v, _ in parts]),
        np.concatenate([t_e for _, t_e in parts]),
    )


def batch_cover_samples(
    g: Graph,
    config: WalkConfig,
    trials: int,
    start: int | None,
    budget: int = DEFAULT_BUDGET,
    cell: int = 0,
    track_edges: bool = True,
    strict_edges: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Paired (vertex, edge) cover-time samples from lockstep trials.

    Both times come from the same trajectory, so per-trial
    ``edge >= vertex`` holds wherever both are uncensored.  ``start``
    None draws a fresh uniform start per trial.  ``strict_edges``
    switches the edge time to the both-directions notion.  Returns
    int64 arrays of length ``trials`` with -1 for censored entries (the
    edge array is all -1 when ``track_edges`` is off).  The walk must be
    restart-free.
    """
    seed = _checked_seed(g, config, trials, start, budget)
    rows = PaddedRows.compile(g, config)
    entered = (rows.arc if strict_edges else rows.edge) if track_edges else None
    return _lockstep_samples(g, rows, seed, trials, {cell: start}, budget, entered)


# ---------------------------------------------------------------------------
# estimators


def _stats(samples: np.ndarray, mode: str) -> CoverStats:
    trials = samples.size
    ok = samples[samples >= 0]
    censored = int(trials - ok.size)
    if ok.size == 0:
        return CoverStats(math.nan, math.nan, trials, mode, censored)
    mean = float(ok.mean())
    std_err = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    return CoverStats(mean, std_err, trials, mode, censored)


def estimate_cover_time(
    g: Graph,
    config: WalkConfig,
    mode: str,
    trials: int,
    start: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CoverStats:
    """Monte Carlo cover-time estimate over ``trials`` lockstep trials.

    ``start`` None draws a fresh uniform start per trial.  This is
    :func:`batch_cover_samples` tracking what ``mode`` covers, as cell 0.
    """
    _check_mode(mode)
    t_v, t_e = batch_cover_samples(
        g, config, trials, start, budget,
        track_edges=mode != "vertex", strict_edges=mode == "edge-strict",
    )
    return _stats(t_v if mode == "vertex" else t_e, mode)


def worst_start_cover_time(
    g: Graph,
    config: WalkConfig,
    mode: str,
    trials: int,
    budget: int = DEFAULT_BUDGET,
) -> CoverStats:
    """Cover-time estimate from the worst start, ``trials`` per start.

    Start ``v`` runs as cell ``v``: the step table is compiled once and
    the starts' chunks run through the same groups of the chunk runner.
    The result is the start with the largest mean, NaN if some start
    fully censored (the worst case is then unknown); ``trials`` and
    ``censored`` count the trials of every start.
    """
    _check_mode(mode)
    seed = _checked_seed(g, config, trials, None, budget)
    rows = PaddedRows.compile(g, config)
    entered = {"vertex": None, "edge": rows.edge, "edge-strict": rows.arc}[mode]
    t_v, t_e = _lockstep_samples(
        g, rows, seed, trials, {v: v for v in range(g.n)}, budget, entered
    )
    samples = (t_v if mode == "vertex" else t_e).reshape(g.n, trials)
    per_start = [_stats(row, mode) for row in samples]
    # a fully censored start, NaN mean, sorts above every other
    worst = max(per_start, key=lambda st: (math.isnan(st.mean), st.mean))
    censored = sum(st.censored for st in per_start)
    return CoverStats(worst.mean, worst.std_err, trials * g.n, mode, censored)


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
    ball's members, visited (the center at the start), edge mode the
    edges they induce, traversed (in either direction, or in both for
    "edge-strict"); a restart jump visits its landing vertex but
    traverses no edge.  Trial ``i`` steps by
    :meth:`~walklab.walks.StepTable.steps` on stream ``(seed, i)``; a
    trial with nothing to cover takes no step.
    """
    _check_mode(mode)
    # local_ball checks the center
    seed = _checked_seed(g, config, trials, None, budget, local=True)
    if isinstance(config.restart, RestartPeriod) and config.restart.k < r + 1:
        raise ValueError(
            f"period {config.restart.k} too short for radius {r} (need k >= r+1)"
        )
    ball = local_ball(g, v, r)
    vertex = mode == "vertex"
    if vertex:
        targets = frozenset(ball.members) - {v}
    else:
        # the target each arc's traversal covers: the edge (a, b), a < b,
        # or in strict mode the arc itself
        strict = mode == "edge-strict"
        arc_target = {}
        for a, b in ball.edges:
            arc_target[(a, b)] = (a, b)
            arc_target[(b, a)] = (b, a) if strict else (a, b)
        targets = frozenset(arc_target.values())
    if not targets:
        return _stats(np.zeros(trials, dtype=np.int64), mode)
    table = StepTable(g, config)
    out = np.full(trials, -1, dtype=np.int64)
    for i in range(trials):
        need = set(targets)
        prev = v
        t = 0
        for x, was_restart in table.steps(v, rng_stream(seed, i)):
            t += 1
            if vertex:
                need.discard(x)
            elif not was_restart:
                need.discard(arc_target.get((prev, x)))
            if not need:
                out[i] = t
                break
            if t >= budget:
                break
            prev = x
    return _stats(out, mode)


def theorem2_bound(
    max_degree: int, r: int, restart: RestartMode, mode: str = "vertex"
) -> float:
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
    return float(value)


# ---------------------------------------------------------------------------
# experiments


CsvRow = tuple[str, str, CoverStats]


def walk_label(config: WalkConfig) -> str:
    """The walk column of a cover CSV: conductance or node2vec bias, then
    ``+nb`` and the restart mode, e.g. ``node2vec(1/2)+nb``."""
    base = "mdlr" if isinstance(config.conductance, MDLR) else "uniform"
    if config.node2vec is not None:
        # slash, not comma, so the label never needs CSV quoting
        base = f"node2vec({config.node2vec.p:g}/{config.node2vec.q:g})"
    if config.non_backtracking:
        base += "+nb"
    if isinstance(config.restart, RestartProb):
        base += f"+restart(a={config.restart.alpha:g})"
    if isinstance(config.restart, RestartPeriod):
        base += f"+restart(k={config.restart.k})"
    return base


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.6f}"


def cover_csv(rows: Iterable[CsvRow]) -> str:
    """CSV text, header first, one line per ``(graph, walk, stats)`` row.

    A field holding a comma, a quote or a line break is quoted.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["graph", "walk", "mode", "mean", "std_err", "trials", "censored"])
    writer.writerows(
        [graph, walk, st.mode, _fmt(st.mean), _fmt(st.std_err), st.trials, st.censored]
        for graph, walk, st in rows
    )
    return out.getvalue()


def _paired_rows(
    g: Graph,
    label: str,
    walk: str,
    config: WalkConfig,
    trials: int,
    budget: int,
    cell: int,
    edge_mode: str = "edge",
) -> list[CsvRow]:
    """A vertex row and an ``edge_mode`` row, paired per trajectory."""
    t_v, t_e = batch_cover_samples(
        g, config, trials, start=None, budget=budget, cell=cell,
        strict_edges=edge_mode == "edge-strict",
    )
    return [
        (label, walk, _stats(samples, mode))
        for mode, samples in (("vertex", t_v), (edge_mode, t_e))
    ]


def experiment_fig3(
    seed: int,
    sizes: tuple[int, ...] = (10, 20, 40),
    trials: int = 2000,
    budget: int = 100_000,
) -> list[CsvRow]:
    """Cover-time table over lollipop graphs, as rows for :func:`cover_csv`.

    Walk variants: uniform and minimum-degree conductances with and
    without non-backtracking, plus the p=1, q=2 biased walk.  Starts
    are uniformly random and vertex/edge times are measured on the same
    trajectories.  The default budget censors the biased walk's hopeless
    cells (its backward drift on the lollipop handle grows
    exponentially with size) instead of hanging; censored counts land
    in the rows.
    """
    rows: list[CsvRow] = []
    cell = 0
    for m in sizes:
        g = gen_lollipop(m)
        label = f"lollipop-{2 * m}"
        for walk, config in _fig3_variants(seed):
            rows.extend(_paired_rows(g, label, walk, config, trials, budget, cell))
            cell += 1
    return rows


def _fig3_variants(seed: int) -> list[tuple[str, WalkConfig]]:
    configs = [
        WalkConfig(length=0, conductance=cond, non_backtracking=nb, seed=seed)
        for cond in (Constant(), MDLR())
        for nb in (False, True)
    ]
    configs.append(WalkConfig(length=0, conductance=Constant(),
                              node2vec=Node2Vec(1.0, 2.0), seed=seed))
    variants = [(walk_label(config), config) for config in configs]
    # second-order rules are exclusive, so the non-backtracking "variant"
    # of the biased walk is plain NB (on degree-2 handle vertices they
    # coincide anyway: excluding the predecessor leaves one candidate)
    variants.append(
        ("node2vec(1/2)+nb",
         WalkConfig(length=0, conductance=Constant(), non_backtracking=True, seed=seed))
    )
    return variants


def experiment_sr16(seed: int, trials: int = 10_000) -> list[CsvRow]:
    """Cover times of the two strongly regular 16-vertex graphs, as rows
    for :func:`cover_csv`.

    Walk: minimum-degree conductance with non-backtracking (on these
    6-regular graphs the conductance is degree-constant, so this is the
    non-backtracking uniform walk).  Uniformly random starts, vertex and
    edge times paired per trajectory; the ``sr16-mean`` summary rows
    average the two graphs' means.  The edge rows use the strict
    both-directions notion (every edge traversed each way), the quantity
    this experiment is meant to estimate.
    """
    rows: list[CsvRow] = []
    config = WalkConfig(
        length=0, conductance=MDLR(), non_backtracking=True, seed=seed
    )
    walk = walk_label(config)
    per_graph: dict[str, dict[str, CoverStats]] = {}
    for cell, (label, g) in enumerate(
        (("rook4x4", gen_rook4x4()), ("shrikhande", gen_shrikhande()))
    ):
        graph_rows = _paired_rows(
            g, label, walk, config, trials, DEFAULT_BUDGET, cell,
            edge_mode="edge-strict",
        )
        per_graph[label] = {st.mode: st for _, _, st in graph_rows}
        rows.extend(graph_rows)
    for mode in ("vertex", "edge-strict"):
        pair = [per_graph["rook4x4"][mode], per_graph["shrikhande"][mode]]
        mean = (pair[0].mean + pair[1].mean) / 2
        std_err = math.sqrt(pair[0].std_err**2 + pair[1].std_err**2) / 2
        summary = CoverStats(
            mean, std_err, pair[0].trials + pair[1].trials, mode,
            pair[0].censored + pair[1].censored,
        )
        rows.append(("sr16-mean", walk, summary))
    return rows
