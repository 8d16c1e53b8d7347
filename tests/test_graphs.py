"""Graph core: construction, relabeling, balls, edge-list I/O."""
import dataclasses
import gc
import tracemalloc
from itertools import repeat

import pytest
from hypothesis import given, strategies as st

from walklab import (
    Graph,
    LocalBall,
    Node2Vec,
    Permutation,
    WalkConfig,
    apply_permutation,
    build_graph,
    decode,
    format_edge_list,
    gen_barbell,
    gen_clique,
    gen_csl,
    gen_cycle,
    gen_lollipop,
    gen_path,
    gen_rook4x4,
    gen_shrikhande,
    gen_star,
    generators,
    local_ball,
    parse_edge_list,
    random_connected_graph,
    record_anonymized,
    record_named_neighbors,
    rng_stream,
    sample_walk,
)
from walklab.walks import PaddedRows


def test_build_graph_dedups_edges():
    g = build_graph([(0, 1), (1, 0), (0, 1)], 2)
    assert g.m == 1
    assert g.adjacency == ((1,), (0,))


def test_build_graph_sorts_neighbors():
    g = build_graph([(0, 3), (0, 1), (0, 2), (1, 2), (2, 3)], 4)
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(0) == 3
    assert g.max_degree() == 3


GENERATED = {
    "gen_path": lambda: gen_path(5),
    "gen_cycle": lambda: gen_cycle(6),
    "gen_clique": lambda: gen_clique(5),
    "gen_star": lambda: gen_star(4),
    "gen_lollipop": lambda: gen_lollipop(4),
    "gen_barbell": lambda: gen_barbell(4),
    "gen_csl": lambda: gen_csl(11, 3),
    "gen_rook4x4": gen_rook4x4,
    "gen_shrikhande": gen_shrikhande,
}


def test_every_graph_source_keeps_neighbor_tuples_ascending():
    # the scalar step law, has_edge's bisect and _RowCompiler all read a
    # neighbor tuple as strictly ascending; every way a Graph is made
    # must keep it so
    assert set(GENERATED) == set(generators.__all__)
    graphs = [make() for make in GENERATED.values()]
    graphs.append(build_graph([(3, 0), (2, 0), (3, 1), (1, 0), (3, 0)], 4))
    graphs.append(parse_edge_list("4 4\n3 0\n0 2\n1 3\n0 1\n"))
    rng = rng_stream(35, 0)
    for n in range(2, 13):
        g = random_connected_graph(n, rng)
        perm = Permutation(tuple(int(x) for x in rng.permutation(n)))
        walk = sample_walk(g, WalkConfig(length=4 * n * n, seed=n))
        graphs += [g, apply_permutation(g, perm), decode(record_named_neighbors(walk, g)).graph,
                   decode(record_anonymized(walk)).graph]
    for g in graphs:
        for u, nbrs in enumerate(g.adjacency):
            assert all(a < b for a, b in zip(nbrs, nbrs[1:])), (g, u, nbrs)


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([(0, 0), (0, 1)], 2)


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_graph([(0, 2)], 2)


def test_build_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        build_graph([(0, 1), (2, 3)], 4)


def test_disconnection_errors_list_at_most_three_components_of_eight():
    # a listing within the cap is the components' plain repr
    with pytest.raises(ValueError) as small:
        build_graph([(0, 1), (2, 3)], 5)
    assert str(small.value) == "graph is disconnected: 3 components [[0, 1], [2, 3], [4]]"
    path9 = [(v, v + 1) for v in range(8)]
    with pytest.raises(ValueError) as big:
        build_graph(path9, 12)
    assert str(big.value) == (
        "graph is disconnected: 4 components "
        "[[0, 1, 2, 3, 4, 5, 6, 7, ...], [9], [10], ...]"
    )


def test_build_graph_rejects_empty_vertex_set():
    with pytest.raises(ValueError):
        build_graph([], 0)


def test_single_vertex_graph():
    g = build_graph([], 1)
    assert g.n == 1 and g.m == 0
    assert g.neighbors(0) == ()


def test_has_edge_both_directions():
    g = gen_path(3)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def _fuzz_graphs(seed, count):
    rng = rng_stream(seed, 0)
    return [random_connected_graph(int(rng.integers(2, 13)), rng) for _ in range(count)]


def _has_edge_graphs():
    lollipop = gen_lollipop(20)
    walk = sample_walk(lollipop, WalkConfig(length=400, seed=3), start=0)
    rng = rng_stream(5, 0)
    return _fuzz_graphs(4, 200) + [
        lollipop,
        gen_star(2000),
        decode(record_named_neighbors(walk, lollipop)).graph,
        apply_permutation(lollipop, Permutation(tuple(int(x) for x in rng.permutation(40)))),
    ]


def test_has_edge_agrees_with_adjacency_on_every_ordered_pair():
    """Every (u, v), v from -1 to n: the vertex itself, below the first
    neighbor, above the last, between two, and out of range."""
    for g in _has_edge_graphs():
        values = range(-1, g.n + 1)
        for u, nbrs in enumerate(g.adjacency):
            assert list(map(g.has_edge, repeat(u), values)) == [v in nbrs for v in values]


def test_using_a_graph_does_not_grow_it():
    """What the samplers, recorders and balls do with a graph leaves it
    holding its three fields, and retains no memory per graph."""
    graphs = _fuzz_graphs(6, 500)
    node2vec = WalkConfig(length=0, node2vec=Node2Vec(2.0, 0.5))
    walk = WalkConfig(length=30, seed=1)
    bound = 64 * 1024  # bytes for all 500 graphs; a cache of one set per vertex exceeds it
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for g in graphs:
            for u in range(g.n):
                for v in range(g.n):
                    g.has_edge(u, v)
            PaddedRows.compile(g, node2vec)
            record_named_neighbors(sample_walk(g, walk, start=0), g)
            local_ball(g, 0, 1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    for g in graphs:
        assert not hasattr(g, "__dict__")
        assert [f.name for f in dataclasses.fields(g)] == ["n", "adjacency", "m"]
    assert retained < bound


def test_edges_yields_each_once_ordered():
    g = gen_cycle(4)
    es = list(g.edges())
    assert es == sorted(es)
    assert all(u < v for u, v in es)
    assert len(es) == g.m == 4


def test_permutation_roundtrip():
    p = Permutation((2, 0, 1))
    inv = p.inverse()
    assert [inv.mapping[p.mapping[v]] for v in range(3)] == [0, 1, 2]


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))


def test_apply_permutation_preserves_structure():
    g = gen_star(3)
    p = Permutation((3, 0, 1, 2))
    h = apply_permutation(g, p)
    assert h.m == g.m
    assert sorted(h.degree(v) for v in range(4)) == sorted(
        g.degree(v) for v in range(4)
    )
    # the center moved to label 3
    assert h.degree(3) == 3


def test_apply_permutation_size_mismatch():
    with pytest.raises(ValueError):
        apply_permutation(gen_path(3), Permutation((1, 0)))


def test_local_ball_radius_zero():
    b = local_ball(gen_path(5), 2, 0)
    assert b.members == (2,)
    assert b.edges == ()


def test_local_ball_radius_one_on_path():
    b = local_ball(gen_path(5), 2, 1)
    assert b.members == (1, 2, 3)
    assert b.edges == ((1, 2), (2, 3))


def test_local_ball_covers_whole_star():
    g = gen_star(4)
    b = local_ball(g, 0, 1)
    assert b.members == (0, 1, 2, 3, 4)
    assert b.edges == tuple(g.edges())


def test_local_ball_validates_arguments():
    g = gen_path(3)
    with pytest.raises(ValueError):
        local_ball(g, 5, 1)
    with pytest.raises(ValueError):
        local_ball(g, 0, -1)


def _ball_reference(g, v, r):
    """Members by repeated neighborhoods, induced edges by a scan of every edge."""
    members, frontier = {v}, {v}
    for _ in range(r):
        frontier = {w for u in frontier for w in g.adjacency[u]} - members
        members |= frontier
    edges = [(a, b) for a, b in g.edges() if a in members and b in members]
    return tuple(sorted(members)), tuple(edges)


def test_local_ball_matches_a_build_graph_reference():
    cases = [(g, v, r) for g in _fuzz_graphs(8, 100) for v in range(g.n) for r in range(4)]
    path, lollipop = gen_path(10001), gen_lollipop(20)
    cases += [(path, v, r) for v in (0, 1, 5000, 10000) for r in (0, 1, 2, 50)]
    cases += [(lollipop, v, r) for v in range(lollipop.n) for r in (1, 2, 5)]
    for g, v, r in cases:
        ball = local_ball(g, v, r)
        assert (ball.members, ball.edges) == _ball_reference(g, v, r), (g, v, r)


def test_local_ball_reads_only_the_members_adjacency(monkeypatch):
    """A ball costs the sum of its members' degrees, not a scan of every edge."""
    g = gen_path(10001)

    def scan(self):
        raise AssertionError("local_ball scanned every edge of the graph")

    monkeypatch.setattr(Graph, "edges", scan)
    ball = local_ball(g, 5000, 1)
    assert ball.members == (4999, 5000, 5001)
    assert ball.edges == ((4999, 5000), (5000, 5001))


def test_parse_edge_list_roundtrip():
    g = gen_cycle(4)
    assert parse_edge_list(format_edge_list(g)).adjacency == g.adjacency


def test_parse_edge_list_comments_and_blanks():
    text = "3 2  # header\n\n0 1\n# comment line\n1 2\n"
    g = parse_edge_list(text)
    assert (g.n, g.m) == (3, 2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1\n1 2",
        "3 2\n0 1 9\n1 2",
        "3 3\n0 1\n1 2",  # declared edge count wrong
    ],
)
def test_parse_edge_list_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


@pytest.mark.parametrize(
    "text,message",
    [
        # the duplicate leaves vertex 2 isolated; the count is the first fault
        ("3 2\n0 1\n0 1\n", "header declares 2 edges, found 1"),
        ("a b\n", "line 1: 'a b' is not an integer 'n m' header"),
        ("# c\n3 2\n0 1\n\n1 x  # tail\n", "line 5: '1 x' is not an integer 'u v' edge line"),
        ("\n3\n0 1\n1 2\n", "line 2: expected 'n m' header, got ['3']"),
        ("3 2\n0 1 9\n1 2\n", "line 2: expected 'u v' edge line, got ['0', '1', '9']"),
    ],
    ids=["duplicate-edge", "header", "edge-line", "header-fields", "edge-line-fields"],
)
def test_parse_edge_list_names_the_first_fault(text, message):
    with pytest.raises(ValueError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
def test_edge_list_roundtrip_random(n, rnd):
    """format -> parse is the identity on arbitrary connected graphs."""
    # spanning tree plus random extras keeps the sample connected
    edges = [(rnd.randrange(i), i) for i in range(1, n)]
    for _ in range(n):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.append((u, v))
    g = build_graph(edges, n)
    h = parse_edge_list(format_edge_list(g))
    assert h.n == g.n and h.adjacency == g.adjacency


@given(st.permutations(list(range(6))))
def test_permutation_preserves_edge_count(perm):
    g = gen_cycle(6)
    h = apply_permutation(g, Permutation(tuple(perm)))
    assert h.m == g.m
    assert {frozenset(e) for e in h.edges()} == {
        frozenset((perm[u], perm[v])) for u, v in g.edges()
    }
