"""The lockstep cover kernel and its draw against references kept here.

``reference_chunk`` is the straightforward lockstep loop over one
chunk: every iteration re-gathers each per-lane array through the index
of the live lanes, draws with the padded count ``(u >= cum).sum()`` and
stops at the budget.  The package kernel steps a group of chunks as one
set of lanes, keeps them compacted, draws with the guide table of
:class:`~walklab.walks.PaddedRows` and finishes near-empty groups in a
Python loop with ``bisect_right``; chunk by chunk, its arrays must
equal the reference's exactly, on the same Philox streams.  The
guide draw itself is checked against the padded count on every state
of a range of tables, at the uniforms where an off-by-one would show:
each ``cum`` entry, each guide bin edge, and the doubles just below
them.
"""
import random

import numpy as np
import pytest

from walklab import (
    MDLR,
    Constant,
    Node2Vec,
    WalkConfig,
    batch_cover_samples,
    build_graph,
    gen_barbell,
    gen_lollipop,
    gen_rook4x4,
    gen_shrikhande,
    parse_edge_list,
    rng_stream,
)
from walklab.cover import (
    CHUNK_TRIALS,
    GROUP_CHUNKS,
    TAIL_LANES,
    _cover_group,
    chunk_groups,
)
from walklab.walks import PaddedRows


def reference_draw(cum_rows, u):
    return (u[:, None] >= cum_rows).sum(axis=1)


def reference_chunk(g, rows, rng, lanes, start, budget, track_edges, strict_edges):
    n = g.n
    if start is None:
        state = rng.integers(n, size=lanes)
    else:
        state = np.full(lanes, start, dtype=np.int64)
    t_v = np.full(lanes, -1, dtype=np.int64)
    t_e = np.full(lanes, -1, dtype=np.int64)
    if n == 1:
        t_v[:] = 0
        if track_edges:
            t_e[:] = 0
        return t_v, t_e

    entered, e_total = (rows.arc, 2 * g.m) if strict_edges else (rows.edge, g.m)
    visited = np.zeros((lanes, n), dtype=bool)
    visited[np.arange(lanes), state] = True
    v_count = np.ones(lanes, dtype=np.int64)
    if track_edges:
        traversed = np.zeros((lanes, e_total), dtype=bool)
        e_count = np.zeros(lanes, dtype=np.int64)

    alive = np.arange(lanes)
    t = 0
    while alive.size:
        t += 1
        s = state[alive]
        idx = reference_draw(rows.cum[s], rng.random(alive.size))
        nxt = rows.next[s, idx]
        w = rows.position[nxt]
        state[alive] = nxt

        newly = ~visited[alive, w]
        visited[alive, w] = True
        v_count[alive] += newly
        just_v = alive[(t_v[alive] < 0) & (v_count[alive] == n)]
        t_v[just_v] = t
        if track_edges:
            ue = entered[nxt]
            newe = ~traversed[alive, ue]
            traversed[alive, ue] = True
            e_count[alive] += newe
            just_e = alive[(t_e[alive] < 0) & (e_count[alive] == e_total)]
            t_e[just_e] = t
            alive = alive[(t_v[alive] < 0) | (t_e[alive] < 0)]
        else:
            alive = alive[t_v[alive] < 0]
        if t >= budget:
            break
    return t_v, t_e


def random_graph(rnd, max_n=9):
    """Random tree plus a few chords: leaves, hubs and cycles all occur."""
    n = rnd.randint(2, max_n)
    edges = [(rnd.randrange(i), i) for i in range(1, n)]
    for _ in range(rnd.randint(0, n)):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.append((u, v))
    return build_graph(edges, n)


def random_config(rnd, kind, seed):
    conductance = rnd.choice((Constant(), MDLR()))
    if kind == "node2vec":
        p, q = rnd.choice((0.5, 1.0, 2.0, 4.0)), rnd.choice((0.25, 0.5, 2.0))
        return WalkConfig(length=0, conductance=conductance,
                          node2vec=Node2Vec(p, q), seed=seed)
    return WalkConfig(length=0, conductance=conductance,
                      non_backtracking=kind == "nb", seed=seed)


# (track_edges, strict_edges): vertex only, plain edges, strict edges
EDGE_MODES = ((False, False), (True, False), (True, True))
LANE_COUNTS = (TAIL_LANES - 1, TAIL_LANES, TAIL_LANES + 1, 1024)
LONG_BUDGET = 3000


def reference_group(g, rows, chunks, budget, track, strict):
    """``reference_chunk`` per chunk, joined in chunk order.

    ``chunks`` holds ``(key, lanes, start)`` per chunk, each chunk on
    stream ``rng_stream(*key)``.
    """
    refs = [
        reference_chunk(g, rows, rng_stream(*key), lanes, start, budget, track, strict)
        for key, lanes, start in chunks
    ]
    return tuple(np.concatenate([r[i] for r in refs]) for i in (0, 1))


def group_both(g, rows, chunks, budget, track, strict):
    """The reference and the group kernel on the same chunks and streams."""
    ref = reference_group(g, rows, chunks, budget, track, strict)
    entered = (rows.arc if strict else rows.edge) if track else None
    got = _cover_group(
        g, rows, [(rng_stream(*key), lanes, start) for key, lanes, start in chunks],
        budget, entered,
    )
    return ref, got


def both(g, rows, key, lanes, start, budget, track, strict):
    return group_both(g, rows, [(key, lanes, start)], budget, track, strict)


def assert_same(ref, got):
    for a, b in zip(ref, got):
        assert b.dtype == a.dtype == np.int64
        assert np.array_equal(a, b)


def budget_leaving(life, alive):
    """A budget at which ``alive`` of the lanes with lifetimes ``life`` are left."""
    return int(np.sort(life)[life.size - alive - 1])


@pytest.mark.parametrize("case", range(24))
def test_kernel_matches_reference(case):
    rnd = random.Random(case)
    g = random_graph(rnd)
    # every walk order meets both kinds of start
    config = random_config(rnd, ("first-order", "nb", "node2vec")[case % 3], 1000 + case)
    rows = PaddedRows.compile(g, config)
    start = None if case // 3 % 2 else rnd.randrange(g.n)
    budgets_seen = set()
    for track, strict in EDGE_MODES:
        for lanes in LANE_COUNTS:
            budgets = set()
            key = (config.seed, case, lanes)
            ref, got = both(g, rows, key, lanes, start, LONG_BUDGET, track, strict)
            assert_same(ref, got)
            times = ref[1] if track else ref[0]
            # some walks never cover (an NB walk cannot turn back at a leaf)
            life = np.where(times < 0, LONG_BUDGET, times)
            # budgets that cut the chunk while it is wide, and while only
            # a few lanes are left (the near-empty tail)
            for alive in (lanes - 1, lanes // 2, TAIL_LANES + 8, TAIL_LANES // 2, 3, 1):
                if not 0 < alive < lanes:
                    continue
                budget = budget_leaving(life, alive)
                if not 0 < budget < LONG_BUDGET or budget in budgets:
                    continue
                budgets.add(budget)
                assert_same(*both(g, rows, key, lanes, start, budget, track, strict))
            budgets_seen |= budgets
    assert budgets_seen


def test_kernel_budget_one_and_censoring_in_both_phases():
    rnd = random.Random(99)
    g = random_graph(rnd, max_n=9)
    while g.n < 7:
        g = random_graph(rnd, max_n=9)
    config = WalkConfig(length=0, conductance=MDLR(), seed=5)
    rows = PaddedRows.compile(g, config)
    for budget in (1, 2, 5):
        assert_same(*both(g, rows, (5, budget), 1024, None, budget, True, False))
    # censored counts on either side of the tail threshold
    ref, _ = both(g, rows, (5, 0), 1024, None, LONG_BUDGET, True, True)
    life = ref[1]
    for alive in (TAIL_LANES * 4, TAIL_LANES // 4):
        budget = budget_leaving(life, alive)
        ref, got = both(g, rows, (5, 0), 1024, None, budget, True, True)
        assert_same(ref, got)
        censored = int((ref[1] < 0).sum())
        assert (censored >= TAIL_LANES) == (alive >= TAIL_LANES)


def test_batch_strict_edges_untracked_are_vertex_only():
    # strict edge cover asked for but edges not tracked: the vertex-only run
    g = gen_lollipop(4)
    config = WalkConfig(length=0, conductance=MDLR(), seed=8)
    want = batch_cover_samples(g, config, 300, None, budget=60, track_edges=False)
    got = batch_cover_samples(
        g, config, 300, None, budget=60, track_edges=False, strict_edges=True
    )
    assert_same(want, got)
    assert (got[1] == -1).all() and (got[0] >= 0).any() and (got[0] < 0).any()


@pytest.mark.parametrize("start", [None, 0])
@pytest.mark.parametrize("track", [False, True])
def test_kernel_single_vertex(start, track):
    g = parse_edge_list("1 0\n")
    rows = PaddedRows.compile(g, WalkConfig(length=0, seed=3))
    for lanes in (1, TAIL_LANES, 1024):
        assert_same(*both(g, rows, (3, lanes), lanes, start, 10, track, False))


def group_chunks(kind, size, seed, case, n, short):
    """A group of ``size`` chunks as the runner makes them, the last one short.

    "uniform" and "fixed" are consecutive chunks of one cell with uniform
    or one fixed start; "cells" are chunks of consecutive cells, each cell
    with a start of its own, as under ``worst_start_cover_time``.
    """
    lanes = [CHUNK_TRIALS] * (size - 1) + [short]
    if kind == "cells":
        return [((seed, case + c, 0), k, (case + c) % n) for c, k in enumerate(lanes)]
    start = None if kind == "uniform" else case % n
    return [((seed, case, j), k, start) for j, k in enumerate(lanes)]


@pytest.mark.parametrize("kind", ["uniform", "fixed", "cells"])
@pytest.mark.parametrize("size", range(1, GROUP_CHUNKS + 1))
def test_group_kernel_matches_reference_per_chunk(size, kind):
    case = 10 * size + len(kind)
    rnd = random.Random(case)
    g = random_graph(rnd)
    kinds = ("first-order", "nb", "node2vec")
    config = random_config(rnd, kinds[size % 3], 2000 + case)
    rows = PaddedRows.compile(g, config)
    track, strict = EDGE_MODES[(size + len(kind)) % len(EDGE_MODES)]
    short = 1 + rnd.randrange(CHUNK_TRIALS)
    chunks = group_chunks(kind, size, config.seed, case, g.n, short)
    ref, got = group_both(g, rows, chunks, LONG_BUDGET, track, strict)
    assert_same(ref, got)
    times = ref[1] if track else ref[0]
    life = np.where(times < 0, LONG_BUDGET, times)
    # budgets that cut the group while it is wide, and in the tail
    for alive in (life.size // 2, TAIL_LANES // 2):
        budget = budget_leaving(life, alive)
        if 0 < budget < LONG_BUDGET:
            assert_same(*group_both(g, rows, chunks, budget, track, strict))


def phase_ends(times, budget, ends):
    """How each chunk of a group ends: "vector", "tail" or "censored".

    ``times`` holds the group's lanes' times, -1 if censored.  The group
    switches to the tail after the first step that leaves fewer than
    ``TAIL_LANES`` lanes live.
    """
    life = np.where(times < 0, budget, times)
    steps = np.arange(1, budget + 1)
    live_after = (life[None, :] > steps[:, None]).sum(axis=1)
    switch = int(steps[live_after < TAIL_LANES][0])
    phases = []
    for lo, hi in zip([0, *ends[:-1]], ends):
        chunk = times[lo:hi]
        phases.append(
            "censored" if (chunk < 0).any()
            else "vector" if chunk.max() <= switch else "tail"
        )
    return phases


def test_group_chunks_end_in_different_phases():
    # a small chunk whose lanes all finish while the group is wide, one
    # whose last lane finishes in the tail and one whose last lane
    # censors, all in one group
    g = gen_lollipop(4)
    lanes = (8, CHUNK_TRIALS, CHUNK_TRIALS, 300)
    ends = list(np.cumsum(lanes))
    for seed in range(4):
        config = WalkConfig(length=0, conductance=MDLR(), seed=seed)
        rows = PaddedRows.compile(g, config)
        chunks = [((seed, c, 0), k, None) for c, k in enumerate(lanes)]
        _, t_e = reference_group(g, rows, chunks, LONG_BUDGET, True, False)
        life = np.where(t_e < 0, LONG_BUDGET, t_e)
        # one lane censors, in the chunk that then ends censored
        budget = budget_leaving(life, 1)
        ref, got = group_both(g, rows, chunks, budget, True, False)
        assert_same(ref, got)
        phases = phase_ends(ref[1], budget, ends)
        assert {"vector", "tail", "censored"} <= set(phases), (seed, phases)


def test_chunk_groups_list_the_chunks_in_cell_order():
    trials = 2 * CHUNK_TRIALS + 3
    groups = list(chunk_groups(7, [5, 9], trials))
    assert [len(group) for group in groups] == [GROUP_CHUNKS, 2]
    chunks = [chunk for group in groups for chunk in group]
    assert [(cell, lanes) for cell, _, lanes in chunks] == [
        (5, CHUNK_TRIALS), (5, CHUNK_TRIALS), (5, 3),
        (9, CHUNK_TRIALS), (9, CHUNK_TRIALS), (9, 3),
    ]
    keys = [(5, 0), (5, 1), (5, 2), (9, 0), (9, 1), (9, 2)]
    for (_, rng, _), key in zip(chunks, keys):
        assert rng.random() == rng_stream(7, *key).random()


def slot_rows(cum):
    """Rows over ``cum`` whose ``next`` is the flat slot: a draw names its slot."""
    slots = np.arange(cum.size).reshape(cum.shape)
    unused = np.zeros(cum.shape[0], dtype=np.int64)
    return PaddedRows(cum, slots, unused, unused, unused)


def probe_uniforms(row, bins):
    """0, each entry and bin edge below 1 with the double below it, and 1-."""
    edges = np.arange(bins) / bins
    points = np.concatenate([row[row < 1.0], edges, [1.0]])
    probes = np.concatenate([[0.0], points, np.nextafter(points, 0.0)])
    return probes[probes < 1.0]


def assert_guide_matches_padded_count(cum, extra):
    states, width = cum.shape
    bins = 1
    while bins < 4 * width:
        bins *= 2
    rows = slot_rows(cum)
    for s in range(states):
        u = np.concatenate([probe_uniforms(cum[s], bins), extra])
        want = s * width + reference_draw(cum[s], u)
        got = rows.draw(np.full(u.size, s), u)
        assert np.array_equal(got, want), s


def double_star():
    """Hubs 10 and 11 with 19 leaves each; under MDLR the hub-to-hub
    probability is about 1/400, so in hub 10's row it shares a guide bin
    with the sum before it, and some draws advance two slots."""
    edges = [(10, 11)] + [(10, v) for v in range(21) if v not in (10, 11)]
    return build_graph(edges + [(11, v) for v in range(21, 40)], 40)


DRAW_GRAPHS = {
    "lollipop-10": gen_lollipop(10),
    "lollipop-20": gen_lollipop(20),
    "rook4x4": gen_rook4x4(),
    "shrikhande": gen_shrikhande(),
    "barbell-5": gen_barbell(5),
    "double-star": double_star(),
    **{f"random-{i}": random_graph(random.Random(500 + i)) for i in range(4)},
}


@pytest.mark.parametrize("name", sorted(DRAW_GRAPHS))
def test_guide_draw_matches_padded_count(name):
    g = DRAW_GRAPHS[name]
    extra = np.random.default_rng(len(name)).random(10_000)
    for conductance in (Constant(), MDLR()):
        for kwargs in ({}, {"non_backtracking": True}, {"node2vec": Node2Vec(1.0, 2.0)}):
            config = WalkConfig(length=0, conductance=conductance, **kwargs)
            assert_guide_matches_padded_count(PaddedRows.compile(g, config).cum, extra)


def test_guide_draw_on_hand_built_rows():
    # a forced final 1.0 below its predecessor, a repeated sum, a row
    # with no successor, and sums just off the bin edges of B = 16
    cum = np.array([
        [0.25, 0.5, np.nextafter(1.0, 2.0), 1.0],
        [0.5, 0.5, 1.0, 2.0],
        [2.0, 2.0, 2.0, 2.0],
        [np.nextafter(0.0625, 1.0), np.nextafter(0.125, 0.0), 0.1875, 1.0],
    ])
    extra = np.random.default_rng(0).random(10_000)
    assert_guide_matches_padded_count(cum, extra)
    # the row's third sum exceeds every uniform, so its last slot is never drawn
    u = np.array([0.5, 0.75, np.nextafter(1.0, 0.0)])
    assert list(slot_rows(cum).draw(np.zeros(3, dtype=np.int64), u)) == [2, 2, 2]
