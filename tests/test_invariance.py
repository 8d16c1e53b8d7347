"""Relabeling-invariance machinery (the full grid runs in acceptance)."""
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest

from walklab import (
    EXACT_N,
    MDLR,
    Constant,
    Node2Vec,
    RestartProb,
    WalkConfig,
    connected_graphs_exact,
    random_connected_graph,
    rng_stream,
    run_invariance_suite,
    sample_walk,
    suite_configs,
)
from walklab import invariance, records
from walklab.generators import gen_cycle, gen_lollipop
from walklab.graphs import Permutation
from walklab.records import LevelRecorder
from walklab.walks import TreeLevel, Walk, _RowCompiler


def test_connected_graph_counts():
    # labeled connected graphs: OEIS A001187
    assert len(connected_graphs_exact(1)) == 1
    assert len(connected_graphs_exact(2)) == 1
    assert len(connected_graphs_exact(3)) == 4
    assert len(connected_graphs_exact(4)) == 38


def test_random_connected_graph_is_connected_by_construction():
    rng = rng_stream(0, 1)
    for _ in range(20):
        g = random_connected_graph(6, rng, p=0.3)
        assert g.n == 6
        assert g.m >= g.n - 1  # anything less could not have been connected


def test_suite_configs_grid():
    configs = suite_configs(4)
    assert len(configs) == 7
    assert sum(c.non_backtracking for c in configs) == 2
    assert sum(c.node2vec is not None for c in configs) == 2
    restarting = [c for c in configs if c.restart is not None]
    assert len(restarting) == 1
    assert restarting[0].length == 3


@pytest.mark.parametrize("max_l", [1, 2, 4])
def test_suite_configs_form_three_support_classes(max_l):
    # {uniform, mdlr} x {plain, node2vec}; {uniform, mdlr} + NB; restart
    configs = suite_configs(max_l)
    classes = invariance.support_classes(configs)
    assert [[configs.index(c) for c in cls] for cls in classes] == [
        [0, 2, 3, 5], [1, 4], [6]]


def test_small_suite_run_is_clean():
    report = run_invariance_suite(max_n=3, max_l=3, seed=0, permutations_per_graph=2)
    assert report.graphs == 5  # one on two vertices, four on three
    assert report.permutations == 10
    assert report.configs_per_graph == 7
    assert report.walks_compared > 0
    assert report.max_probability_gap <= 1e-9


def test_sampled_sizes_extend_the_exact_range():
    report = run_invariance_suite(
        max_n=EXACT_N + 1, max_l=2, seed=3, samples_per_n=5,
        permutations_per_graph=1,
    )
    assert report.graphs == 1 + 4 + 38 + 5


@pytest.mark.parametrize("kw", [
    {"max_n": 1},
    {"permutations_per_graph": 0},
    {"samples_per_n": -1},
])
def test_vacuous_runs_are_rejected(kw):
    with pytest.raises(ValueError):
        run_invariance_suite(**{"max_n": 3, "max_l": 1, **kw})


def test_leaky_anonymizer_is_caught(monkeypatch):
    # naming vertices by raw label ties every record to the labeling
    def leaky(self, ids, named, v):
        token = (v + 1).astype(ids.dtype)
        ids[np.arange(len(v)), v] = token
        return token

    monkeypatch.setattr(LevelRecorder, "name", leaky)
    with pytest.raises(AssertionError, match="records differ"):
        run_invariance_suite(max_n=3, max_l=3)


@pytest.fixture
def relabeled(monkeypatch):
    # every graph the suite relabels, so a mutant can act on those alone
    graphs = []
    real_apply = invariance.apply_permutation

    def apply(g, perm):
        graphs.append(real_apply(g, perm))
        return graphs[-1]

    monkeypatch.setattr(invariance, "apply_permutation", apply)
    return graphs


def _mutated_rows(monkeypatch, mutate):
    # every row the enumeration reads passes through mutate(compiler,
    # tree, probs) first, which may change probs in place
    rows = _RowCompiler.rows

    def mutated(self, tree, prev, cur):
        succ, probs = rows(self, tree, prev, cur)
        mutate(self, tree, probs)
        return succ, probs

    monkeypatch.setattr(_RowCompiler, "rows", mutated)


def test_perturbed_relabeled_row_is_caught(monkeypatch, relabeled):
    # shift 1e-6 of probability between the first two successors of every
    # row on the relabeled graph only; the supports stay equal
    def perturb(compiler, tree, probs):
        for c, i in itertools.product(range(len(probs)), range(len(tree))):
            slots = np.flatnonzero(probs[c, i])
            if len(slots) >= 2 and any(compiler.graphs[tree[i]] is pg for pg in relabeled):
                probs[c, i, slots[:2]] += (1e-6, -1e-6)

    _mutated_rows(monkeypatch, perturb)
    with pytest.raises(AssertionError, match="probability gap"):
        run_invariance_suite(max_n=3, max_l=3)


def test_violations_would_raise():
    # the suite reports nothing unless every check passed; an impossible
    # tolerance proves the assertion path is wired up
    with pytest.raises(AssertionError):
        run_invariance_suite(max_n=3, max_l=3, seed=0, tol=-1.0)


def _dropping_last_successor(drops):
    # rows that lose their last successor under config c on graph g
    # where drops(c, g)
    def drop(compiler, tree, probs):
        for c, i in itertools.product(range(len(probs)), range(len(tree))):
            slots = np.flatnonzero(probs[c, i])
            if len(slots) and drops(compiler.configs[c], compiler.graphs[tree[i]]):
                probs[c, i, slots[-1]] = 0.0

    return drop


def test_misgrouped_config_is_caught(monkeypatch):
    # node2vec loses its last successor on both graphs alike, so its own
    # walk counts still agree; only the class-support check can see it
    _mutated_rows(monkeypatch, _dropping_last_successor(
        lambda config, g: config.node2vec is not None))
    with pytest.raises(AssertionError, match="support class"):
        run_invariance_suite(max_n=3, max_l=2)


def test_branch_dropped_on_relabeled_graphs_is_caught(monkeypatch, relabeled):
    # every config loses its last successor on the relabeled graph only,
    # so each tree is consistent within its class but the walk sets differ
    _mutated_rows(monkeypatch, _dropping_last_successor(
        lambda config, g: any(g is pg for pg in relabeled)))
    with pytest.raises(AssertionError, match="walk supports differ"):
        run_invariance_suite(max_n=3, max_l=2)


def _texts_by_record(forest, k, dists, c):
    # tree k's record distribution under config c: texts -> float.hex
    _, first, sums = dists
    rows = forest.rows[forest.trees[k]]
    return {forest.texts(rows[i]): prob.hex()
            for i, prob in zip(first.tolist(), sums[c].tolist())}


def _checked(g, perm, classes):
    # per config: its walk count and both record distributions, each sum
    # as float.hex; and the worst gap over the classes
    pg = invariance.apply_permutation(g, perm)
    counts, dists, worst = [], [], 0.0
    for cls in classes:
        forest = invariance._Forest([g, pg], cls)
        own, relabeled = forest.record_distributions(0), forest.record_distributions(1)
        gap = invariance._compare_relabeled(forest, 0, own, 1, perm.mapping, 1e-9)
        worst = max(worst, gap)
        counts += [forest.trees[0].stop - forest.trees[0].start] * len(cls)
        dists += [
            (_texts_by_record(forest, 0, own, c), _texts_by_record(forest, 1, relabeled, c))
            for c in range(len(cls))
        ]
    return counts, dists, worst.hex()


def test_grouped_pass_matches_one_pass_per_config():
    configs = suite_configs(3)
    classes = invariance.support_classes(configs)
    singletons = [[c] for cls in classes for c in cls]
    rng = rng_stream(11, 0)
    graphs = [g for n in range(2, EXACT_N + 1) for g in connected_graphs_exact(n)]
    graphs += [random_connected_graph(5, rng) for _ in range(4)]
    for g in graphs:
        perm = Permutation(tuple(int(x) for x in rng.permutation(g.n)))
        assert _checked(g, perm, classes) == _checked(g, perm, singletons)


def _recorded_set_texts(walk, g):
    # the rule both recorders replace, kept as their reference: a step
    # records its edge, then announces the named neighbors whose edge is
    # not yet recorded, ascending by id, and records those edges; a
    # restart does neither
    ids = {walk.vertices[0]: 1}
    anon, named = ["1"], ["1"]
    recorded = set()
    for u, v, restart in zip(walk.vertices, walk.vertices[1:], walk.restart_flags[1:]):
        i = ids.setdefault(v, len(ids) + 1)
        anon.append(f";{i}" if restart else f"-{i}")
        named.append(anon[-1])
        if restart:
            continue
        recorded.add(frozenset((u, v)))
        edges = {frozenset((x, v)): ids[x] for x in g.neighbors(v) if x in ids}
        named.extend(f"#{i}" for e, i in sorted(edges.items(), key=lambda item: item[1])
                     if e not in recorded)
        recorded.update(edges)
    return "".join(anon), "".join(named)


def _record_mismatches(graphs, max_l):
    # every leaf of every class, all graphs in one batch: the vector
    # recorder's texts, and the recorded-set reference's, against the one
    # pass's for the same walk
    found = []
    for cls in invariance.support_classes(suite_configs(max_l)):
        forest = invariance._Forest(graphs, cls)
        for k, g in enumerate(graphs):
            tree = forest.trees[k]
            for vertices, flags, row in zip(forest.vertices[tree].tolist(),
                                            forest.restarts[tree].tolist(),
                                            forest.rows[tree]):
                walk = Walk(tuple(vertices), tuple(flags))
                _, anon, named = records._record_walk(walk, g)
                expected = (anon.text, named.text)
                if forest.texts(row) != expected or _recorded_set_texts(walk, g) != expected:
                    found.append((g, vertices, flags, forest.texts(row), expected))
    return found


@pytest.mark.parametrize("graphs,max_l", [
    (invariance.suite_graphs(EXACT_N, 0, 0), 4),  # the exact grid
    (invariance.suite_graphs(5, 7, 3), 4),  # the graphs of the l4-sampled-5 pin
    # walks that restart from two steps out and then name a neighbor of
    # the start by another way round
    ([gen_cycle(4), gen_lollipop(3)], 7),
], ids=["exact", "l4-sampled-5", "long-restarts"])
def test_vector_recorder_matches_recorder(graphs, max_l):
    assert _record_mismatches(graphs, max_l) == []


def test_record_cross_check_sees_a_leaky_recorder(monkeypatch):
    # gate 2 checks the vector recorder; the cross-check carries its
    # strength over to the one pass, so a one pass naming vertices by
    # label must fail it
    one_pass = records._record_walk

    def leaky(walk, g=None):
        # the one pass's records, with each id renamed to its vertex's label + 1
        order, *recs = one_pass(walk, g)

        def rename(match):
            return str(order[int(match.group()) - 1] + 1)

        return order, *(SimpleNamespace(text=re.sub(r"\d+", rename, r.text)) for r in recs)

    monkeypatch.setattr(records, "_record_walk", leaky)
    assert _record_mismatches(invariance.suite_graphs(3, 0, 0), 2)


def _level_recorder(g, walks):
    # LevelRecorder after walks of one length on g, each walk a tree of
    # its own with one node per level
    vertices = np.array([w.vertices for w in walks])
    restarts = np.array([w.restart_flags for w in walks])
    k = len(walks)
    tree, nodes, probs = np.zeros(k, dtype=np.intp), np.arange(k), np.ones((1, k))
    recorder = LevelRecorder(_RowCompiler([g], []))
    recorder.start(TreeLevel(tree, np.full(k, -1), vertices[:, 0], restarts[:, 0], probs))
    for t in range(1, vertices.shape[1]):
        level = TreeLevel(tree, nodes, vertices[:, t], restarts[:, t], probs)
        recorder.step(level, vertices[:, t - 1])
    return recorder


def test_vector_recorder_matches_the_one_pass_on_long_walks():
    # the tree leaves above are at most 7 steps long; the reconstruction
    # fuzz records walks of up to 4 n**2 steps.  Every walk rule of the
    # fuzz grid, with and without restarts, on two graphs per size: the
    # vector recorder, the one pass and the recorded-set reference agree
    rng = rng_stream(20250819, 1)
    rules = [
        dict(conductance=cond, non_backtracking=nb, node2vec=n2v, restart=restart)
        for cond in (Constant(), MDLR())
        for nb, n2v in ((False, None), (True, None), (False, Node2Vec(2.0, 1.0)),
                        (False, Node2Vec(1.0, 2.0)))
        for restart in (None, RestartProb(0.2))
    ]
    found = []
    for n in range(2, 13):
        for g in (random_connected_graph(n, rng), random_connected_graph(n, rng)):
            walks = [
                sample_walk(g, WalkConfig(length=4 * n * n, seed=j, **rule), int(rng.integers(n)))
                for j, rule in enumerate(rules)
            ]
            recorder = _level_recorder(g, walks)
            for w, row in zip(walks, recorder.rows):
                _, anon, named = records._record_walk(w, g)
                expected = _recorded_set_texts(w, g)
                if recorder.texts(row) != expected or (anon.text, named.text) != expected:
                    found.append((g, w))
    assert found == []
