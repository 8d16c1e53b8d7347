"""The compiled step table against the reference step distributions.

``reference_walk`` is the sampler spelled out without the table: each
step's distribution comes straight from
``step_distribution_second_order`` and is inverted by a sequential CDF
over the sorted support, falling back to the last candidate.  Every
sampler that reads the table must agree with it bit for bit.
"""
import dataclasses
import math
import random

import pytest

from walklab import (
    Constant,
    DegreeRule,
    MDLR,
    Node2Vec,
    RestartPeriod,
    RestartProb,
    WalkConfig,
    build_graph,
    parse_edge_list,
    rng_stream,
    sample_walk,
    step_distribution_second_order,
)
from walklab.walks import StepTable

CONDUCTANCES = (
    Constant(),
    MDLR(),
    DegreeRule(lambda a, b: math.sqrt(a * b) + 0.1),
)


def reference_walk(g, config, start, walk_index):
    rng = rng_stream(config.seed, walk_index)
    if start is None:
        start = int(rng.integers(g.n))
    vertices, flags = [start], [False]
    prev, cur, was_restart = None, start, False
    for t in range(1, config.length + 1):
        restart = config.restart
        if restart is None or t < 2:
            now = False
        elif isinstance(restart, RestartProb):
            now = not was_restart and bool(rng.random() < restart.alpha)
        else:
            now = t % restart.k == 0
        if now:
            prev, cur, was_restart = cur, start, True
        else:
            items = sorted(step_distribution_second_order(g, config, prev, cur).items())
            u = rng.random()
            acc = 0.0
            nxt = items[-1][0]
            for x, prob in items:
                acc += prob
                if u < acc:
                    nxt = x
                    break
            prev, cur, was_restart = cur, nxt, False
        vertices.append(cur)
        flags.append(was_restart)
    return tuple(vertices), tuple(flags)


def random_graph(rnd, max_n=8):
    """Random tree plus a few chords, so leaves and dense spots both occur."""
    n = rnd.randint(2, max_n)
    edges = [(rnd.randrange(i), i) for i in range(1, n)]
    for _ in range(rnd.randint(0, 2 * n)):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.append((u, v))
    return build_graph(edges, n)


def random_config(rnd, length, order=None):
    order = order or rnd.choice(["plain", "nb", "n2v"])
    restart = rnd.choice([
        None,
        RestartProb(rnd.choice([0.1, 0.3, 0.7])),
        RestartPeriod(rnd.randint(1, 5)),
    ])
    return WalkConfig(
        length=length,
        conductance=rnd.choice(CONDUCTANCES),
        non_backtracking=order == "nb",
        node2vec=(
            Node2Vec(rnd.choice([0.25, 1.0, 3.0]), rnd.choice([0.5, 2.0]))
            if order == "n2v" else None
        ),
        restart=restart,
        seed=rnd.randrange(2**31),
    )


def test_sample_walk_matches_reference_stepper():
    rnd = random.Random(2024)
    seen = set()
    for trial in range(1200):
        g = random_graph(rnd)
        config = random_config(rnd, rnd.randint(0, 30))
        start = rnd.choice([None, rnd.randrange(g.n)])
        walk = sample_walk(g, config, start=start, walk_index=trial)
        expected = reference_walk(g, config, start, trial)
        assert (walk.vertices, walk.restart_flags) == expected, (g.adjacency, config)
        seen.add((
            type(config.conductance).__name__,
            config.non_backtracking,
            config.node2vec is not None,
            type(config.restart).__name__,
        ))
    # every conductance x second-order rule x restart mode was exercised
    assert len(seen) == 3 * 3 * 3


@pytest.mark.parametrize("length", [1000, 2500, 5000])
@pytest.mark.parametrize("config", [
    WalkConfig(length=0, restart=RestartProb(0.3)),
    WalkConfig(length=0, conductance=MDLR(), node2vec=Node2Vec(0.25, 2.0)),
    WalkConfig(length=0, node2vec=Node2Vec(3.0, 0.5), restart=RestartProb(0.7)),
], ids=["restart", "node2vec", "node2vec+restart"])
def test_long_walks_match_reference_stepper(config, length):
    # uniforms are drawn in blocks that grow from 16 to 4096; thousands of
    # steps cross many block ends and every block size
    rnd = random.Random(length)
    for trial in range(3):
        g = random_graph(rnd, max_n=12)
        cfg = dataclasses.replace(config, length=length, seed=rnd.randrange(2**31))
        start = rnd.choice([None, rnd.randrange(g.n)])
        walk = sample_walk(g, cfg, start=start, walk_index=trial)
        expected = reference_walk(g, cfg, start, trial)
        assert (walk.vertices, walk.restart_flags) == expected


def test_rows_off_the_arcs_come_from_the_reference():
    # After a restart the state (prev, cur) need not be an arc: prev may
    # be any vertex, cur itself included.  Such rows must be the
    # reference law, which for NB renormalizes the first-order row and
    # so is not bitwise the vertex row.
    rnd = random.Random(5)
    nb_differs = 0
    for _ in range(300):
        g = random_graph(rnd)
        for order in ("plain", "nb", "n2v"):
            config = random_config(rnd, 0, order)
            table = StepTable(g, config)
            for prev in range(g.n):
                for cur in range(g.n):
                    if prev != cur and g.has_edge(prev, cur):
                        continue
                    row = table.row(prev, cur)
                    ref = sorted(step_distribution_second_order(g, config, prev, cur).items())
                    assert list(zip(row.successors, row.probs)) == ref
                    acc, cum = 0.0, []
                    for prob in row.probs:
                        acc += prob
                        cum.append(acc)
                    cum[-1] = 1.0
                    assert row.cum == cum
                    if order == "nb" and prev == cur:
                        nb_differs += row.probs != table.row(None, cur).probs
    assert nb_differs > 0


def test_padded_rows_mirror_the_table():
    rnd = random.Random(11)
    for _ in range(60):
        g = random_graph(rnd)
        config = random_config(rnd, 0)
        table = StepTable(g, config)
        rows = table.padded()
        arcs = [(u, v) for u in range(g.n) for v in g.neighbors(u)]
        edges = list(g.edges())
        states = [(None, v) for v in range(g.n)] + arcs
        assert rows.cum.shape == (len(states), g.max_degree())
        for s, (prev, cur) in enumerate(states):
            row = table.row(prev, cur)
            k = len(row.successors)
            assert list(rows.cum[s, :k]) == list(row.cum)
            assert (rows.cum[s, k:] == 2.0).all()
            assert rows.position[s] == cur
            if prev is None:
                assert rows.arc[s] == rows.edge[s] == -1
            else:
                assert arcs[rows.arc[s]] == (prev, cur)
                assert edges[rows.edge[s]] == tuple(sorted((prev, cur)))
            for i, x in enumerate(row.successors):
                assert states[rows.next[s, i]] == (cur, x)


def test_single_vertex_rows_are_empty():
    g = parse_edge_list("1 0\n")
    config = WalkConfig(length=3, non_backtracking=True, seed=1)
    table = StepTable(g, config)
    assert table.row(None, 0) == ([], [], [])
    assert table.padded().cum.shape == (1, 0)
    assert sample_walk(g, WalkConfig(length=0, seed=1)).vertices == (0,)
    with pytest.raises(ValueError, match="no neighbor"):
        sample_walk(g, config)
