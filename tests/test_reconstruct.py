"""Decoding records to graphs and the isomorphism check behind it."""
import gc
import weakref
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from test_records import engine_walks
from walklab import (
    ISOMORPHISM_GUARD,
    Neighbor,
    Permutation,
    Restart,
    WalkConfig,
    apply_permutation,
    build_graph,
    check_reconstruction,
    connected_graphs_exact,
    decode,
    gen_clique,
    gen_csl,
    gen_cycle,
    gen_path,
    gen_star,
    is_isomorphic,
    parse,
    record_anonymized,
    record_named_neighbors,
    rng_stream,
)


def test_decode_triangle_loop():
    got = decode(parse("1-2-3-1"))
    assert got.graph.n == 3 and got.graph.m == 3


def test_decode_restart_walk_is_a_star():
    g = decode(parse("1-2;1-3")).graph
    assert g.n == 3
    assert sorted(g.edges()) == [(0, 1), (0, 2)]


def test_decode_named_neighbors_gives_k4():
    g = decode(parse("1-2-3#1-4#1#2")).graph
    assert g.n == 4 and g.m == 6


def test_decode_restart_contributes_no_edge():
    # same id trace, but the ; move must not become an edge
    with_restart = decode(parse("1-2;1-2")).graph
    assert with_restart.m == 1
    without = decode(parse("1-2-1-2")).graph
    assert without.m == 1


def test_decode_ids_map_to_vertices_off_by_one():
    g = decode(parse("1-2-3")).graph
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_is_isomorphic_invariant_under_relabeling():
    g = gen_csl(8, 3)
    for mapping in ((3, 0, 6, 1, 7, 2, 5, 4), (7, 6, 5, 4, 3, 2, 1, 0)):
        h = apply_permutation(g, Permutation(mapping))
        assert is_isomorphic(g, h)


def test_is_isomorphic_counts_matter():
    assert not is_isomorphic(gen_path(4), gen_cycle(4))
    assert not is_isomorphic(gen_star(3), gen_path(4))


def test_is_isomorphic_same_degree_sequence_not_enough():
    """Prism vs K_{3,3}: both 3-regular on six vertices."""
    prism = build_graph(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)], 6
    )
    k33 = build_graph([(i, 3 + j) for i in range(3) for j in range(3)], 6)
    assert prism.m == k33.m == 9
    assert not is_isomorphic(prism, k33)


def test_is_isomorphic_frees_its_graphs_without_the_cycle_collector():
    """The graphs die with the call's last reference, not at the next gc pass."""
    refs = []
    gc.disable()
    try:
        for k in range(5):
            g = gen_csl(8, 3)
            h = apply_permutation(g, Permutation((3, 0, 6, 1, 7, 2, 5, 4)))
            assert is_isomorphic(g, h) and not is_isomorphic(g, gen_cycle(8))
            refs += [weakref.ref(g), weakref.ref(h)]
            del g, h
        assert len(refs) == 10
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def _signature_multiset(g):
    deg = [len(x) for x in g.adjacency]
    return tuple(sorted(
        (deg[u], tuple(sorted(deg[v] for v in g.adjacency[u]))) for u in range(g.n)
    ))


def _triangle_profile(g):
    """An invariant finer than the signatures: per vertex, its degree and
    triangle count, with those of its neighbors."""
    adj = [set(x) for x in g.adjacency]
    tri = [sum(w in adj[v] for v in adj[u] for w in adj[u] if v < w) for u in range(g.n)]
    return tuple(sorted(
        (len(adj[u]), tri[u], tuple(sorted((len(adj[v]), tri[v]) for v in adj[u])))
        for u in range(g.n)
    ))


def _isomorphic_by_brute_force(g, h):
    arcs = {(u, v) for u in range(h.n) for v in h.adjacency[u]}
    edges = list(g.edges())
    return g.n == h.n and g.m == h.m and any(
        all((p[u], p[v]) in arcs for u, v in edges) for p in permutations(range(g.n))
    )


def test_is_isomorphic_agrees_with_brute_force_on_look_alikes():
    """2,000 pairs of connected labeled graphs on at most 6 vertices with the
    same signature multiset.  Odd pairs relabel a graph; even pairs draw
    both graphs from a signature class that holds graphs of different
    triangle profiles, so many are non-isomorphic look-alikes."""
    graphs, classes = [], {}
    for n in range(2, 7):
        for g in connected_graphs_exact(n):
            graphs.append(g)
            classes.setdefault(_signature_multiset(g), []).append(g)
    mixed = [c for c in classes.values() if len(set(map(_triangle_profile, c))) > 1]
    rng = rng_stream(2026, 0)
    verdicts = []
    for i in range(2000):
        if i % 2:
            g = graphs[int(rng.integers(len(graphs)))]
            h = apply_permutation(g, Permutation(tuple(int(x) for x in rng.permutation(g.n))))
        else:
            c = mixed[int(rng.integers(len(mixed)))]
            g, h = (c[int(k)] for k in rng.integers(len(c), size=2))
        assert _signature_multiset(g) == _signature_multiset(h)
        expected = _isomorphic_by_brute_force(g, h)
        assert is_isomorphic(g, h) is expected, (g.adjacency, h.adjacency)
        verdicts.append(expected)
    assert verdicts.count(False) >= 300  # the look-alikes are really there


def test_is_isomorphic_guard():
    big = gen_path(ISOMORPHISM_GUARD + 1)
    with pytest.raises(ValueError, match="limited"):
        is_isomorphic(big, big)


def test_check_reconstruction_counts_covering_walks():
    frac = check_reconstruction(gen_cycle(3), WalkConfig(length=8, seed=2), trials=300)
    assert 0.5 < frac <= 1.0


def test_check_reconstruction_zero_when_too_short():
    # a length-1 walk cannot see three vertices
    frac = check_reconstruction(gen_cycle(3), WalkConfig(length=1, seed=2), trials=50)
    assert frac == 0.0


def test_check_reconstruction_validates():
    with pytest.raises(ValueError):
        check_reconstruction(gen_cycle(3), WalkConfig(length=2, seed=1), trials=0)
    with pytest.raises(ValueError):
        check_reconstruction(gen_path(20), WalkConfig(length=2, seed=1), trials=5)


def test_edge_covering_anonymized_walk_rebuilds_graph():
    """A walk down every edge needs no neighbor tokens to decode."""
    from walklab import Walk, record_anonymized

    tri = gen_cycle(3)
    w = Walk((0, 1, 2, 0), (False,) * 4)
    got = decode(record_anonymized(w))
    assert is_isomorphic(got.graph, tri)


def test_vertex_covering_named_walk_rebuilds_clique():
    from walklab import Walk, record_named_neighbors

    k5 = gen_clique(5)
    w = Walk((0, 1, 2, 3, 4), (False,) * 5)
    got = decode(record_named_neighbors(w, k5))
    assert is_isomorphic(got.graph, k5)


# -- decode against the edge-list construction ---------------------------------


def _decoded_by_build_graph(rec):
    """The recorded subgraph through the validating edge-list builder."""
    pos, edges = 1, []
    for tok in rec.tokens[1:]:
        if not isinstance(tok, Restart):
            edges.append((pos - 1, tok.id - 1))
        if not isinstance(tok, Neighbor):
            pos = tok.id
    return build_graph(edges, max(tok.id for tok in rec.tokens))


def _assert_decode_matches_build_graph(rec):
    got = decode(rec).graph
    want = _decoded_by_build_graph(rec)
    assert got == want
    assert (got.n, got.adjacency, got.m) == (want.n, want.adjacency, want.m)


@settings(deadline=None, max_examples=150)
@given(engine_walks())
def test_decode_matches_build_graph_on_engine_records(gw):
    g, w = gw
    _assert_decode_matches_build_graph(record_anonymized(w))
    _assert_decode_matches_build_graph(record_named_neighbors(w, g))


@st.composite
def record_texts(draw):
    """Well-formed record text with restarts and neighbor tokens."""
    n_max, pos, after_restart, parts = 1, 1, False, ["1"]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from("-;#"))
        if kind == "-":
            i = draw(st.integers(1, n_max + 1))
            if i == pos:
                continue
            n_max, pos, after_restart = max(n_max, i), i, False
        elif kind == ";":
            i = pos = draw(st.integers(1, n_max))
            after_restart = True
        else:
            i = draw(st.integers(1, n_max))
            if after_restart or i == pos:
                continue
        parts.append(kind + str(i))
    return "".join(parts)


@settings(deadline=None, max_examples=300)
@given(record_texts())
def test_decode_matches_build_graph_on_parsed_records(text):
    _assert_decode_matches_build_graph(parse(text))


@pytest.mark.parametrize("text", [
    "1", "1-2;1", "1-2-3;2-1#3", "1-2-3#1;2-4#1#3", "1-2-1-2;1-3#2-2-3", "1-2;1;2;1-3",
])
def test_decode_matches_build_graph_on_hand_written_records(text):
    _assert_decode_matches_build_graph(parse(text))
