"""Walk laws: conductances, second-order rules, restarts, enumeration."""
import gc
import itertools
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import (
    Constant,
    DegreeRule,
    MDLR,
    Node2Vec,
    RestartPeriod,
    RestartProb,
    Walk,
    WalkConfig,
    batch_cover_samples,
    build_graph,
    conductance,
    enumerate_walk_distribution,
    estimate_cover_time,
    gen_clique,
    gen_csl,
    gen_cycle,
    gen_lollipop,
    gen_path,
    gen_star,
    local_cover_time,
    mc_visit_frequencies,
    random_connected_graph,
    rng_stream,
    sample_cover_time,
    sample_walk,
    step_distribution_first_order,
    step_distribution_second_order,
    transition_matrix,
    worst_start_cover_time,
)
from walklab.walks import ENUMERATION_GUARD, _check_depth


def test_conductance_values():
    g = gen_path(4)
    assert conductance(g, Constant(), 0, 1) == 1.0
    # min degree rule: deg(0)=1, deg(1)=2, deg(2)=2
    assert conductance(g, MDLR(), 0, 1) == 1.0
    assert conductance(g, MDLR(), 1, 2) == 0.5
    assert conductance(g, MDLR(), 2, 1) == 0.5


def test_conductance_requires_edge():
    with pytest.raises(ValueError, match="not an edge"):
        conductance(gen_path(4), Constant(), 0, 2)


def test_degree_rule_positivity_enforced():
    g = gen_path(3)
    rule = DegreeRule(lambda a, b: a + b - 3.0)  # zero on the (1,2)-degree edge
    with pytest.raises(ValueError, match="nonpositive"):
        conductance(g, rule, 0, 1)


@pytest.mark.parametrize(
    "kind", [Constant(), MDLR(), DegreeRule(lambda a, b: 1.0 / (a + 2 * b))],
    ids=["constant", "mdlr", "degree-rule"],
)
def test_first_order_distribution_is_normalized_public_conductance(kind):
    """Same floats as weighting each neighbor by ``conductance``, which
    still refuses every non-edge."""
    rng = rng_stream(8, 0)
    graphs = [gen_lollipop(5), gen_star(4)] + [
        random_connected_graph(int(rng.integers(2, 9)), rng) for _ in range(20)
    ]
    for g in graphs:
        for u in range(g.n):
            weights = {x: conductance(g, kind, u, x) for x in g.neighbors(u)}
            total = 0.0
            for w in weights.values():
                total += w
            expected = [(x, (w / total).hex()) for x, w in weights.items()]
            got = step_distribution_first_order(g, kind, u)
            assert [(x, p.hex()) for x, p in got.items()] == expected
            for v in set(range(g.n)) - set(g.neighbors(u)):
                with pytest.raises(ValueError, match="not an edge"):
                    conductance(g, kind, u, v)


def test_degree_rule_finiteness_enforced():
    rule = DegreeRule(lambda a, b: math.inf)
    with pytest.raises(ValueError, match="non-finite weight inf on \\(0, 1\\)"):
        conductance(gen_path(3), rule, 0, 1)
    with pytest.raises(ValueError, match="non-finite weight"):
        step_distribution_first_order(gen_path(3), rule, 1)


def test_degree_rule_weights_whose_sum_overflows_are_refused():
    # each weight is finite, but their sum is not: the center's row would
    # be all zeros, and its walks would always take the last leaf
    g, rule = gen_star(3), DegreeRule(lambda a, b: 1e308)
    why = "^edge weights out of vertex 0 sum to inf$"
    with pytest.raises(ValueError, match=why):
        step_distribution_first_order(g, rule, 0)
    with pytest.raises(ValueError, match=why):
        sample_walk(g, WalkConfig(length=6, conductance=rule, seed=1), start=0)
    with pytest.raises(ValueError, match=why):
        transition_matrix(g, rule)


def test_degree_rule_weights_with_a_finite_sum_still_sample():
    g, rule = gen_star(3), DegreeRule(lambda a, b: 1e307)
    dist = step_distribution_first_order(g, rule, 0)
    assert dist == pytest.approx({1: 1 / 3, 2: 1 / 3, 3: 1 / 3})
    config = WalkConfig(length=6, conductance=rule, seed=1)
    leaves = {
        v for i in range(20)
        for v in sample_walk(g, config, start=0, walk_index=i).vertices[1::2]
    }
    assert leaves == {1, 2, 3}


@pytest.mark.parametrize("p,q", [
    (math.inf, 1.0), (1.0, math.inf), (1e-320, 1.0), (1.0, 1e-320), (math.nan, 1.0),
])
def test_node2vec_refuses_biases_without_finite_reciprocals(p, q):
    with pytest.raises(ValueError, match="positive and finite, with finite reciprocals"):
        Node2Vec(p, q)


def test_walk_on_the_one_vertex_graph_is_refused_unless_empty():
    g = build_graph([], 1)
    assert sample_walk(g, WalkConfig(length=0, seed=0)).vertices == (0,)
    for restart in (None, RestartPeriod(1)):
        config = WalkConfig(length=1, restart=restart, seed=0)
        for start in (None, 0):
            with pytest.raises(ValueError, match="^vertex 0 has no neighbor to step to$"):
                sample_walk(g, config, start=start)


def test_first_order_distribution_refuses_a_zero_degree_rule_weight():
    rule = DegreeRule(lambda a, b: a + b - 3.0)  # zero on the (1,2)-degree edge
    with pytest.raises(ValueError, match="nonpositive weight 0.0 on \\(1, 0\\)"):
        step_distribution_first_order(gen_path(3), rule, 1)


def test_first_order_distribution_mdlr_oracle():
    """P4 from the second vertex: the leaf edge has twice the weight."""
    dist = step_distribution_first_order(gen_path(4), MDLR(), 1)
    assert dist == pytest.approx({0: 2 / 3, 2: 1 / 3})


def test_first_order_distribution_uniform():
    dist = step_distribution_first_order(gen_star(3), Constant(), 0)
    assert dist == pytest.approx({1: 1 / 3, 2: 1 / 3, 3: 1 / 3})


def test_non_backtracking_forces_third_vertex():
    cfg = WalkConfig(length=1, non_backtracking=True)
    assert step_distribution_second_order(gen_cycle(3), cfg, 0, 1) == {2: 1.0}


def test_non_backtracking_begrudging_at_leaf():
    """At a dangling vertex the only move is back the way we came."""
    cfg = WalkConfig(length=1, non_backtracking=True)
    assert step_distribution_second_order(gen_path(3), cfg, 1, 2) == {1: 1.0}


def test_node2vec_oracle_on_square():
    # from prev=0 at cur=1 on C4: returning to 0 weighs 1/p, moving to
    # the far vertex weighs 1/q
    cfg = WalkConfig(length=1, node2vec=Node2Vec(2.0, 1.0))
    dist = step_distribution_second_order(gen_cycle(4), cfg, 0, 1)
    assert dist == pytest.approx({0: 1 / 3, 2: 2 / 3})


def test_node2vec_falls_back_first_order_without_valid_prev():
    g = gen_cycle(4)
    cfg = WalkConfig(length=1, node2vec=Node2Vec(2.0, 1.0))
    first = step_distribution_first_order(g, Constant(), 1)
    assert step_distribution_second_order(g, cfg, 1, 1) == pytest.approx(first)
    # prev not adjacent to cur (as after a restart jump)
    assert step_distribution_second_order(g, cfg, 2, 1) != pytest.approx(first)
    assert step_distribution_second_order(g, cfg, 0, 2) == pytest.approx(
        step_distribution_first_order(g, Constant(), 2)
    )


def test_transition_matrix_oracle():
    P = transition_matrix(gen_path(4), MDLR())
    assert P.shape == (4, 4)
    np.testing.assert_allclose(P.sum(axis=1), 1.0)
    np.testing.assert_allclose(P[1], [2 / 3, 0.0, 1 / 3, 0.0])


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(length=-1)
    with pytest.raises(ValueError):
        WalkConfig(length=1, non_backtracking=True, node2vec=Node2Vec(1.0, 1.0))
    with pytest.raises(ValueError):
        Node2Vec(0.0, 1.0)
    with pytest.raises(ValueError):
        RestartProb(1.0)
    with pytest.raises(ValueError):
        RestartPeriod(0)
    with pytest.raises(TypeError):
        WalkConfig(length=1, conductance="mdlr")


def test_walk_validation():
    with pytest.raises(ValueError):
        Walk((), ())
    with pytest.raises(ValueError):
        Walk((0, 1), (False,))
    with pytest.raises(ValueError):
        Walk((0, 1), (True, False))
    w = Walk((2, 1), (False, False))
    assert w.start == 2 and len(w) == 2


def test_sample_walk_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        sample_walk(gen_path(3), WalkConfig(length=2))


def test_every_sampler_names_the_missing_seed_alike():
    g, unseeded = gen_path(3), WalkConfig(length=2)
    samplers = (
        lambda: sample_walk(g, unseeded),
        lambda: sample_cover_time(g, unseeded, 0, "vertex"),
        lambda: batch_cover_samples(g, unseeded, 4, None),
        lambda: estimate_cover_time(g, unseeded, "edge", 4, 0),
        lambda: worst_start_cover_time(g, unseeded, "edge", 4),
        lambda: local_cover_time(
            g, 1, 1, WalkConfig(length=0, restart=RestartProb(0.5)), "vertex", 4),
        lambda: mc_visit_frequencies(g, None, 0, 2, 4),
    )
    for sample in samplers:
        with pytest.raises(ValueError, match="^config.seed is required for sampling$"):
            sample()


def test_every_sampler_names_a_bad_start_alike():
    g, config = gen_path(3), WalkConfig(length=2, seed=1)
    samplers = (
        lambda s: sample_walk(g, config, start=s),
        lambda s: sample_cover_time(g, config, s, "vertex"),
        lambda s: batch_cover_samples(g, config, 4, s),
        lambda s: estimate_cover_time(g, config, "edge", 4, s),
        lambda s: mc_visit_frequencies(g, 1, s, 2, 4),
    )
    for start in (3, -1):
        for sample in samplers:
            with pytest.raises(ValueError, match=f"^start {start} out of range for n=3$"):
                sample(start)


def test_sample_walk_rejects_bad_start():
    with pytest.raises(ValueError, match="out of range"):
        sample_walk(gen_path(3), WalkConfig(length=2, seed=1), start=7)


def test_sample_walk_deterministic_in_seed_and_index():
    g = gen_clique(5)
    cfg = WalkConfig(length=20, seed=3)
    a = sample_walk(g, cfg, walk_index=4)
    b = sample_walk(g, cfg, walk_index=4)
    assert a == b
    assert a != sample_walk(g, cfg, walk_index=5)
    assert a != sample_walk(g, WalkConfig(length=20, seed=4), walk_index=4)


def test_restart_prob_discipline():
    """Restarts start at t=2, never fire twice in a row, and jump home."""
    g = gen_cycle(3)
    cfg = WalkConfig(length=120, restart=RestartProb(0.8), seed=11)
    seen_restart = False
    for i in range(60):
        w = sample_walk(g, cfg, start=2, walk_index=i)
        assert not w.restart_flags[1]
        for a, b in zip(w.restart_flags, w.restart_flags[1:]):
            assert not (a and b)
        for t, flag in enumerate(w.restart_flags):
            if flag:
                seen_restart = True
                assert w.vertices[t] == 2
    assert seen_restart


def test_restart_period_fires_on_schedule():
    g = gen_cycle(3)
    cfg = WalkConfig(length=9, restart=RestartPeriod(3), seed=7)
    for i in range(10):
        w = sample_walk(g, cfg, start=0, walk_index=i)
        expected = [t >= 2 and t % 3 == 0 for t in range(10)]
        assert list(w.restart_flags) == expected


def test_restart_period_one_fires_every_step_after_first():
    w = sample_walk(
        gen_path(3),
        WalkConfig(length=6, restart=RestartPeriod(1), seed=5),
        start=1,
    )
    assert list(w.restart_flags) == [False, False, True, True, True, True, True]
    assert all(v == 1 for t, v in enumerate(w.vertices) if w.restart_flags[t])


def test_enumerate_walk_distribution_oracle():
    dist = dict(enumerate_walk_distribution(gen_path(3), WalkConfig(length=2), start=1))
    by_vertices = {w.vertices: p for w, p in dist.items()}
    assert by_vertices == pytest.approx({(1, 0, 1): 0.5, (1, 2, 1): 0.5})


def test_enumerate_averages_over_starts():
    dist = dict(enumerate_walk_distribution(gen_clique(2), WalkConfig(length=1)))
    assert {w.vertices: p for w, p in dist.items()} == pytest.approx(
        {(0, 1): 0.5, (1, 0): 0.5}
    )


@pytest.mark.parametrize(
    "config",
    [
        WalkConfig(length=3),
        WalkConfig(length=3, conductance=MDLR()),
        WalkConfig(length=3, non_backtracking=True),
        WalkConfig(length=3, node2vec=Node2Vec(0.5, 2.0)),
        WalkConfig(length=4, restart=RestartProb(0.4)),
        WalkConfig(length=4, restart=RestartPeriod(2)),
    ],
)
def test_enumeration_is_a_probability_distribution(config):
    g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)], 4)
    dist = dict(enumerate_walk_distribution(g, config))
    assert all(p > 0 for p in dist.values())
    assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)


def test_enumeration_guard_rejects_huge_state_space():
    with pytest.raises(ValueError):
        list(enumerate_walk_distribution(gen_clique(10), WalkConfig(length=12)))


def test_enumeration_guard_refuses_a_huge_length_at_once():
    # the bound's product stops once past the guard, so a length of 10**12
    # is refused as fast as a short one.  The run goes apart, under a
    # memory cap, as the exact bound 2**(10**12) would not be done by the
    # timeout
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = [sys.executable, "-m", "walklab", "invariance", "--seed", "1", "--max-n", "2",
            "--samples", "0", "--max-l", str(10**12)]
    began = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                          preexec_fn=cap_memory, env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - began < 30
    assert done.returncode == 2 and done.stdout == ""
    assert "enumeration bound of about 10**301029995663.7 exceeds guard" in done.stderr


def test_enumeration_guard_refuses_a_long_walk_that_never_branches():
    # on a graph of largest degree 1 the leaf bound is the start count at
    # any length, so the levels are guarded too: 10**12 of them on one
    # edge are refused at once, where enumerating them would run for
    # days.  The run goes apart, under a memory cap, with a timeout
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    _check_depth(2, ENUMERATION_GUARD // 2 - 1)
    with pytest.raises(ValueError, match=f"^enumeration of {ENUMERATION_GUARD // 2 + 1} "
                       f"levels from 2 starts exceeds guard {ENUMERATION_GUARD}$"):
        _check_depth(2, ENUMERATION_GUARD // 2)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("from walklab import WalkConfig, enumerate_walk_distribution, gen_path\n"
            "try:\n"
            "    next(enumerate_walk_distribution(gen_path(2), WalkConfig(length=10**12)))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    began = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, preexec_fn=cap_memory,
                          env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - began < 30
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (f"enumeration of {10**12 + 1} levels from 2 starts "
                           f"exceeds guard {ENUMERATION_GUARD}\n")


def test_enumeration_from_one_start_stays_local():
    # a fixed start on a long path reaches five vertices; nothing may be
    # sized by the n**2 (prev, cur) states the graph has room for
    g = gen_path(10_001)
    tracemalloc.start()
    try:
        dist = list(enumerate_walk_distribution(g, WalkConfig(length=2), start=5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(w.vertices, p) for w, p in dist] == [
        ((5000, 4999, 4998), 0.25), ((5000, 4999, 5000), 0.25),
        ((5000, 5001, 5000), 0.25), ((5000, 5001, 5002), 0.25),
    ]
    assert peak < 1 << 18


def test_enumeration_frees_its_table_without_the_cycle_collector(monkeypatch):
    """The compiled rows die with the exhausted generator, not at the next gc pass."""
    import walklab.walks as walks

    tables = []

    class TrackedCompiler(walks._RowCompiler):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(weakref.ref(self))

    monkeypatch.setattr(walks, "_RowCompiler", TrackedCompiler)
    config = WalkConfig(length=3, non_backtracking=True)
    gc.disable()
    try:
        for _ in range(5):
            assert sum(p for _, p in enumerate_walk_distribution(gen_csl(8, 3), config))
        assert len(tables) == 5
        assert all(ref() is None for ref in tables)
    finally:
        gc.enable()


@pytest.mark.parametrize("restart", [None, RestartProb(0.3), RestartPeriod(2), RestartPeriod(3)],
                         ids=["none", "prob", "period-2", "period-3"])
def test_leaf_probabilities_are_products_of_reference_rows(restart):
    # each leaf's probability is its start's times, left to right, each
    # step's branch: alpha for a restart in probability mode, nothing for
    # one in period mode, and a move's reference probability, scaled by
    # 1 - alpha where a restart could have been
    alpha = restart.alpha if isinstance(restart, RestartProb) else None
    graphs = [gen_lollipop(3), build_graph([(0, 1), (1, 2), (2, 0), (2, 3)], 4), gen_star(3)]
    rules = [dict(non_backtracking=nb, node2vec=n2v)
             for nb, n2v in ((False, None), (True, None), (False, Node2Vec(0.5, 2.0)))]
    kinds = [Constant(), MDLR(), DegreeRule(lambda a, b: math.sqrt(a * b) + 0.1)]
    for g, rule, kind in itertools.product(graphs, rules, kinds):
        config = WalkConfig(length=4, conductance=kind, restart=restart, **rule)
        for start in (None, 0, g.n - 1):
            leaves = list(enumerate_walk_distribution(g, config, start))
            for walk, prob in leaves:
                expected = 1.0 if start is not None else 1.0 / g.n
                vs, flags = walk.vertices, walk.restart_flags
                for t in range(1, len(vs)):
                    if flags[t]:
                        expected *= 1.0 if alpha is None else alpha
                        continue
                    prev = None if t == 1 else vs[t - 2]
                    p = step_distribution_second_order(g, config, prev, vs[t - 1])[vs[t]]
                    if alpha is not None and t >= 2 and not flags[t - 1]:
                        p = (1.0 - alpha) * p
                    expected *= p
                assert prob.hex() == expected.hex(), (g, config, walk)
            assert math.isclose(sum(p for _, p in leaves), 1.0, abs_tol=1e-12)


def test_rows_sum_left_to_right():
    # out of vertex 0 the MDLR weights are 1, 1, 1/3 and 1/3, whose
    # compensated sum (Python 3.12's sum()) rounds otherwise than the
    # left-to-right fold every row is normalized by
    g = build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (3, 4), (3, 5), (4, 5)], 6)
    weights = [1.0, 1.0, 1 / 3, 1 / 3]
    total = 0.0
    for w in weights:
        total += w
    assert total != math.fsum(weights)
    expected = [(w / total).hex() for w in weights]
    assert [p.hex() for p in step_distribution_first_order(g, MDLR(), 0).values()] == expected
    config = WalkConfig(length=1, conductance=MDLR())
    leaves = {w.vertices[1]: p for w, p in enumerate_walk_distribution(g, config, start=0)}
    assert [leaves[x].hex() for x in (1, 2, 3, 4)] == expected


def test_enumeration_matches_sampling():
    """Empirical walk frequencies agree with the enumerated law."""
    g = gen_path(3)
    cfg = WalkConfig(length=3, conductance=MDLR(), seed=17)
    exact = {
        w.vertices: p
        for w, p in enumerate_walk_distribution(g, cfg, start=0)
    }
    trials = 20_000
    counts: dict[tuple, int] = {}
    for i in range(trials):
        w = sample_walk(g, cfg, start=0, walk_index=i)
        counts[w.vertices] = counts.get(w.vertices, 0) + 1
    assert set(counts) == set(exact)
    for verts, p in exact.items():
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[verts] / trials - p) < 5 * sigma + 1e-9


def test_rng_stream_is_keyed():
    a = rng_stream(1, 2).integers(1 << 30, size=4)
    b = rng_stream(1, 2).integers(1 << 30, size=4)
    c = rng_stream(1, 3).integers(1 << 30, size=4)
    d = rng_stream(2, 2).integers(1 << 30, size=4)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert list(a) != list(d)


@st.composite
def connected_graph_and_config(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(rnd.randrange(i), i) for i in range(1, n)]
    for _ in range(n):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.append((u, v))
    g = build_graph(edges, n)
    cond = draw(st.sampled_from([Constant(), MDLR()]))
    order = draw(st.sampled_from(["plain", "nb", "n2v"]))
    restart = draw(st.sampled_from([None, RestartProb(0.3), RestartPeriod(3)]))
    cfg = WalkConfig(
        length=draw(st.integers(min_value=0, max_value=12)),
        conductance=cond,
        non_backtracking=order == "nb",
        node2vec=Node2Vec(2.0, 0.5) if order == "n2v" else None,
        restart=restart,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )
    return g, cfg


@settings(deadline=None, max_examples=60)
@given(connected_graph_and_config(), st.integers(min_value=0, max_value=50))
def test_sampled_walks_live_on_edges(gc, walk_index):
    g, cfg = gc
    w = sample_walk(g, cfg, walk_index=walk_index)
    assert len(w) == cfg.length + 1
    for t in range(1, len(w)):
        if w.restart_flags[t]:
            assert w.vertices[t] == w.start
        else:
            assert g.has_edge(w.vertices[t - 1], w.vertices[t])
