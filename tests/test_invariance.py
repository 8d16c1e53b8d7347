"""Relabeling-invariance machinery (the full grid runs in acceptance)."""
import itertools
import re
import tracemalloc
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
from walklab.walks import TreeLevel, Walk, _RowCompiler, check_enumeration_bound


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
    # tree, succ, probs) first, which may change succ and probs in place
    rows = _RowCompiler.rows

    def mutated(self, tree, prev, cur):
        succ, probs = rows(self, tree, prev, cur)
        mutate(self, tree, succ, probs)
        return succ, probs

    monkeypatch.setattr(_RowCompiler, "rows", mutated)


def test_perturbed_relabeled_row_is_caught(monkeypatch, relabeled):
    # shift 1e-6 of probability between the first two successors of every
    # row on the relabeled graph only; the supports stay equal
    def perturb(compiler, tree, succ, probs):
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


def test_walk_held_twice_by_the_original_is_caught(monkeypatch, relabeled):
    # rows of the original graphs only send their last successor's walks
    # to the first: as many walks as the relabeled trees hold, but some
    # twice and others not at all.  The walk held twice has no second
    # counterpart
    def redirect(compiler, tree, succ, probs):
        for i in range(len(tree)):
            slots = np.flatnonzero(probs[0, i])
            if len(slots) >= 2 and not any(compiler.graphs[tree[i]] is pg for pg in relabeled):
                succ[i, slots[-1]] = succ[i, slots[0]]

    _mutated_rows(monkeypatch, redirect)
    with pytest.raises(AssertionError, match=r"walk \(0, 1, 0\) has no relabeled counterpart"):
        run_invariance_suite(max_n=3, max_l=2)


def _dropping_last_successor(drops):
    # rows that lose their last successor under config c on graph g
    # where drops(c, g)
    def drop(compiler, tree, succ, probs):
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


@pytest.mark.parametrize("faults", [
    {"late": "perturb"},
    {"late": "drop"},
    {"late": "redirect"},
    {"late": "creep"},
    {"early": "creep", "late": "drop"},
], ids=["late-gap", "late-support", "late-counterpart", "late-distribution",
        "early-distribution-first"])
def test_batched_pass_names_the_first_failing_graph(monkeypatch, faults):
    # faults on the relabelings of graphs in one multi-graph pass: a
    # perturbed row (a probability gap); a dropped last successor (the
    # walk counts differ); a last successor redirected to the first (as
    # many walks, some twice, others missing); or 6e-9 more on each
    # row's first successor, which keeps every walk within the
    # tolerance but not the sums of records that several walks share.
    # The pass raises the message that a pass of the first faulty graph
    # alone raises, which names that graph (a record distribution's
    # names the record).  An earlier graph's fault comes first, even
    # where a later graph's comes earlier in a pair's order of checks
    graphs = invariance.suite_graphs(EXACT_N, 0, 0)
    classes = invariance.support_classes(suite_configs(3))
    leaves = [3 * max(check_enumeration_bound(g, cls[0], g.n) for cls in classes) for g in graphs]
    batch = next(b for b in invariance._batches(leaves) if len(b) >= 20)
    # the last graph is K4; the early one, K4 less an edge: dense enough
    # that the extra 6e-9 keeps every walk within the tolerance
    at = {"early": next(gi for gi in batch if graphs[gi].m == 5), "late": batch[-1]}
    monkeypatch.setattr(invariance, "suite_graphs", lambda *args: graphs)
    relabelings = {name: [] for name in faults}  # (relabeled graph, permutation)
    real_apply = invariance.apply_permutation

    def apply(g, perm):
        pg = real_apply(g, perm)
        for name in faults:
            if g is graphs[at[name]]:
                relabelings[name].append((pg, perm))
        return pg

    def mutate(compiler, tree, succ, probs):
        for name, kind in faults.items():
            on = np.array([any(g is pg for pg, _ in relabelings[name]) for g in compiler.graphs])
            for c, i in itertools.product(range(len(probs)), np.flatnonzero(on[tree])):
                slots = np.flatnonzero(probs[c, i])
                if kind == "perturb" and len(slots) >= 2:
                    probs[c, i, slots[:2]] += (1e-6, -1e-6)
                elif kind == "drop" and len(slots):
                    probs[c, i, slots[-1]] = 0.0
                elif kind == "creep" and len(slots):
                    probs[c, i, slots[0]] += 6e-9
                elif kind == "redirect" and len(slots) >= 2:
                    succ[i, slots[-1]] = succ[i, slots[0]]

    monkeypatch.setattr(invariance, "apply_permutation", apply)
    _mutated_rows(monkeypatch, mutate)
    with pytest.raises(AssertionError) as batched:
        run_invariance_suite(max_n=EXACT_N, max_l=3, seed=0)

    first = "early" if "early" in faults else "late"
    g = graphs[at[first]]
    back = np.array([range(g.n), *(np.argsort(perm.mapping) for _, perm in relabelings[first])])
    with pytest.raises(AssertionError) as alone:
        for cls in classes:
            forest = invariance._Forest([g, *(pg for pg, _ in relabelings[first])], cls)
            invariance._check_forest(forest, np.zeros(3, dtype=np.intp), back, 1e-9)
    assert str(batched.value) == str(alone.value)
    message = {"perturb": f"probability gap .* on {re.escape(str(g))}$",
               "drop": f"walk supports differ .* walks on {re.escape(str(g))} with ",
               "redirect": r"walk \(.*\) has no relabeled counterpart on Graph",
               "creep": "record-distribution gap "}[faults[first]]
    assert re.match(message, str(alone.value))


def _texts_by_record(forest, k, c):
    # tree k's record distribution under config c, each record's
    # probability summed in leaf order: texts -> float.hex
    dist = {}
    tree = forest.trees[k]
    for row, prob in zip(forest.rows[tree], forest.probs[c, tree].tolist()):
        texts = forest.texts(row)
        dist[texts] = dist.get(texts, 0.0) + prob
    return {texts: prob.hex() for texts, prob in dist.items()}


def _checked(g, perm, classes):
    # per config: its walk count and both record distributions, each sum
    # as float.hex; and the worst gap over the classes
    pg = invariance.apply_permutation(g, perm)
    own, back = np.zeros(2, dtype=np.intp), np.array([range(g.n), np.argsort(perm.mapping)])
    counts, dists, worst = [], [], 0.0
    for cls in classes:
        forest = invariance._Forest([g, pg], cls)
        walks, gap = invariance._check_forest(forest, own, back, 1e-9)
        worst = max(worst, gap)
        counts += [walks // len(cls)] * len(cls)
        dists += [(_texts_by_record(forest, 0, c), _texts_by_record(forest, 1, c))
                  for c in range(len(cls))]
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


def test_suite_memory_is_pinned():
    # the tracemalloc peak of the enum-invariance workload's suite call,
    # 1.13 MB when pinned (at LEAF_BUDGET = 1 << 14); a larger budget, or
    # a pass that holds more per leaf, cannot grow it unnoticed
    run_invariance_suite(max_n=5, samples_per_n=10, seed=0)  # imports and caches
    tracemalloc.start()
    try:
        run_invariance_suite(max_n=5, samples_per_n=10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


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
