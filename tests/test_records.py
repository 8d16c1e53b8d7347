"""Record grammar, the three recording schemes, and parsing."""
import re

import pytest
from hypothesis import given, settings, strategies as st

from walklab import (
    AttributeProvider,
    Permutation,
    apply_permutation,
    Neighbor,
    Record,
    Restart,
    Step,
    Walk,
    build_graph,
    gen_clique,
    gen_cycle,
    gen_path,
    parse,
    record_anonymized,
    record_attributed,
    record_named_neighbors,
    rng_stream,
    sample_walk,
    WalkConfig,
    RestartProb,
)
import walklab.records as records_mod
from walklab.records import check_walk


def walk(vertices, restarts=()):
    flags = [t in restarts for t in range(len(vertices))]
    return Walk(tuple(vertices), tuple(flags))


# -- serialization oracles ---------------------------------------------------


def test_anonymized_triangle_loop():
    assert record_anonymized(walk([0, 1, 2, 0])).text == "1-2-3-1"


def test_anonymized_single_position():
    assert record_anonymized(walk([5])).text == "1"


def test_anonymized_restart_separator():
    assert record_anonymized(walk([0, 1, 0, 2], restarts={2})).text == "1-2;1-3"


def test_anonymized_names_by_first_discovery():
    # first-discovery order is what matters, not vertex labels
    assert record_anonymized(walk([9, 4, 9, 7])).text == "1-2-1-3"


def test_named_neighbors_on_k4():
    rec = record_named_neighbors(walk([0, 1, 2, 3]), gen_clique(4))
    assert rec.text == "1-2-3#1-4#1#2"


def test_named_neighbors_on_triangle():
    rec = record_named_neighbors(walk([0, 1, 2, 0]), gen_cycle(3))
    assert rec.text == "1-2-3#1-1"


def test_named_neighbors_on_path_announces_nothing():
    rec = record_named_neighbors(walk([0, 1]), gen_path(2))
    assert rec.text == "1-2"


def test_named_neighbors_skip_recorded_edges_on_revisit():
    # the second arrival at vertex 1 has nothing new to announce
    rec = record_named_neighbors(walk([0, 1, 0, 1]), gen_cycle(3))
    assert rec.text == "1-2-1-2"


def test_named_neighbors_restart_announces_nothing():
    rec = record_named_neighbors(walk([0, 1, 0, 2], restarts={2}), gen_cycle(3))
    assert rec.text == "1-2;1-3#2"


def test_named_neighbors_reject_non_edge_step():
    with pytest.raises(ValueError, match="not an edge"):
        record_named_neighbors(walk([0, 2]), gen_path(3))


@pytest.mark.parametrize("w,why", [
    (walk([0, 2]), "walk step (0, 2) is not an edge of the graph"),
    (walk([0, 1, 9]), "walk step (1, 9) is not an edge of the graph"),
    (walk([7, 1]), "walk vertex 7 is out of range for n=3"),
    (walk([0, 1, 0, 2], restarts={2}), "walk step (0, 2) is not an edge of the graph"),
], ids=["w0-(0, 2)", "w1-(1, 9)", "w2-(7, 1)", "w3-(0, 2)"])
def test_walks_off_the_graph_are_refused_before_recording(w, why):
    g = gen_path(3)
    attrs = AttributeProvider(vertex_text={v: "t" for v in range(10)})
    why = re.escape(why)
    with pytest.raises(ValueError, match=why):
        record_named_neighbors(w, g)
    with pytest.raises(ValueError, match=why):
        record_attributed(w, g, attrs)


def test_attributed_refuses_a_step_onto_the_current_position():
    attrs = AttributeProvider(vertex_text={0: "A", 1: "B"})
    with pytest.raises(ValueError, match="step onto current position 1"):
        record_attributed(walk([0, 1, 1]), gen_path(2), attrs)


@pytest.mark.parametrize("w,why", [
    (walk([0, 2, 0], restarts={1}), "restart to unvisited vertex 2"),
    (walk([0, 2, 1], restarts={2}), "walk step (0, 2) is not an edge of the graph"),
    (walk([0, 1, 1, 0, 2]), "step onto current position 1"),
    (walk([0, 1, 9, 2], restarts={2}), "walk vertex 9 is out of range for n=3"),
], ids=["restart-before-non-edge", "non-edge-before-restart", "stay-before-non-edge",
        "out-of-range-restart"])
def test_a_walk_with_several_faults_names_the_first(w, why):
    g = gen_path(3)
    attrs = AttributeProvider(vertex_text={v: "t" for v in range(10)})
    why = f"^{re.escape(why)}$"
    with pytest.raises(ValueError, match=why):
        record_named_neighbors(w, g)
    with pytest.raises(ValueError, match=why):
        record_attributed(w, g, attrs)
    with pytest.raises(ValueError, match=why):
        check_walk(w, g)


@pytest.mark.parametrize("w,why", [
    (walk([0, 1], restarts={1}), "restart to unvisited vertex 1"),
    (walk([5, 9, 5, 7], restarts={3}), "restart to unvisited vertex 7"),
    (walk([0, 0]), "step onto current position 0"),
    (walk([4, 1, 1, 3], restarts={3}), "step onto current position 1"),
    (walk([4, 3, 1], restarts={1}), "restart to unvisited vertex 3"),
])
def test_check_walk_without_a_graph_refuses_both_discipline_faults(w, why):
    with pytest.raises(ValueError, match=f"^{why}$"):
        check_walk(w)


def test_check_walk_without_a_graph_passes_any_disciplined_walk():
    # no graph: no range and no edge to check, so only the discipline counts
    check_walk(walk([7, 99, -3, 7, 7, 99], restarts={3, 4}))


def test_the_recorders_refusals_all_come_from_check_walk(monkeypatch):
    """The recorder trusts its walk: with the one check disabled, a walk
    breaking the discipline is recorded without complaint."""
    monkeypatch.setattr(records_mod, "check_walk", lambda walk, g=None: None)
    assert record_anonymized(walk([0, 0])).text == "1-1"
    assert record_named_neighbors(walk([0, 1, 2], restarts={2}), gen_path(3)).text == "1-2;3"


# -- record discipline -------------------------------------------------------


def test_parse_roundtrip_tokens():
    rec = parse("1-2;1-3#2")
    assert rec.tokens == (Step(1), Step(2), Restart(1), Step(3), Neighbor(2))
    assert rec.text == "1-2;1-3#2"


def test_parse_allows_trailing_restart():
    assert parse("1-2;1").tokens == (Step(1), Step(2), Restart(1))


def test_restart_onto_current_position_is_legal():
    # a restart jump can land where the walker already stands
    assert record_anonymized(walk([0, 1, 0, 0], restarts={2, 3})).text == "1-2;1;1"


@pytest.mark.parametrize("record", [
    record_anonymized,
    lambda w: record_named_neighbors(w, gen_path(3)),
])
@pytest.mark.parametrize("w,why", [
    (walk([0, 1], restarts={1}), "restart to unvisited vertex 1"),
    (walk([0, 1, 2, 1, 0, 2], restarts={5}), None),  # legal: 2 was visited
    (walk([0, 0]), "step onto current position 0"),
    (walk([0, 1, 1]), "step onto current position 1"),
])
def test_recorders_refuse_walks_breaking_the_discipline(record, w, why):
    if why is None:
        assert Record(record(w).tokens) == record(w)
    else:
        with pytest.raises(ValueError, match=why):
            record(w)


@pytest.mark.parametrize(
    "text,why",
    [
        ("2-1", "first id must be 1"),
        ("1-3", "fresh id out of order"),
        ("1-2#3", "fresh id on a neighbor token"),
        ("1-2;3", "restart to an unknown id"),
        ("1-2;4", "restart past the frontier"),
        ("1-2;1#2", "neighbor immediately after a restart"),
        ("1-2#2", "neighbor naming the current position"),
        ("1-2-2", "step onto the current position"),
    ],
)
def test_parse_rejects_discipline_violations(text, why):
    with pytest.raises(ValueError):
        parse(text)


@pytest.mark.parametrize("text", ["", "1-", "-1", "1--2", "a-b", "1 2", "1,2"])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError, match="malformed"):
        parse(text)


def test_record_constructor_checks_first_token():
    with pytest.raises(ValueError):
        Record((Step(2),))
    with pytest.raises(ValueError):
        Record((Neighbor(1),))


# -- attributed prose --------------------------------------------------------


def test_attributed_basic_sentence():
    g = gen_path(2)
    attrs = AttributeProvider(vertex_text={0: "A", 1: "B"})
    text = record_attributed(walk([0, 1]), g, attrs)
    assert text == "Paper 1 - Title: A Paper 1 is linked to Paper 2 - Title: B"


def test_attributed_labels_revisits_and_restarts():
    g = gen_cycle(3)
    attrs = AttributeProvider(
        vertex_text={0: "A", 1: "B", 2: "C"},
        labels={1: "y", 2: "z"},
    )
    text = record_attributed(walk([0, 1, 0, 2], restarts={2}), g, attrs)
    assert text == (
        "Paper 1 - Title: A"
        " Paper 1 is linked to Paper 2 - Title: B, Category: y"
        " Restart at Paper 1."
        " Paper 1 is linked to Paper 3 - Title: C, Category: z"
        " Paper 3 is linked to Paper 2."
    )


def test_attributed_directed_wording():
    g = gen_path(3)
    attrs = AttributeProvider(
        vertex_text={0: "A", 1: "B", 2: "C"},
        edge_direction={(0, 1): "cites", (2, 1): "cites"},
    )
    text = record_attributed(walk([0, 1, 2]), g, attrs)
    assert text == (
        "Paper 1 - Title: A"
        " Paper 1 cites Paper 2 - Title: B"
        " Paper 2 is cited by Paper 3 - Title: C"
    )


def test_attributed_custom_entity():
    g = gen_path(2)
    attrs = AttributeProvider(vertex_text={0: "a", 1: "b"}, entity="Page")
    assert record_attributed(walk([0, 1]), g, attrs).startswith("Page 1 - Title: a")


def test_attributed_requires_text_for_visited():
    g = gen_path(3)
    attrs = AttributeProvider(vertex_text={0: "A", 1: "B"})
    with pytest.raises(ValueError, match="no vertex text"):
        record_attributed(walk([0, 1, 2]), g, attrs)


def test_attributed_requires_direction_for_walked_edge():
    g = gen_path(3)
    attrs = AttributeProvider(
        vertex_text={0: "A", 1: "B", 2: "C"}, edge_direction={(0, 1): "cites"}
    )
    with pytest.raises(ValueError, match="no direction"):
        record_attributed(walk([0, 1, 2]), g, attrs)


# -- properties --------------------------------------------------------------


@st.composite
def engine_walks(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(rnd.randrange(i), i) for i in range(1, n)]
    for _ in range(n):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.append((u, v))
    g = build_graph(edges, n)
    cfg = WalkConfig(
        length=draw(st.integers(min_value=0, max_value=10)),
        restart=draw(st.sampled_from([None, RestartProb(0.4)])),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )
    return g, sample_walk(g, cfg, walk_index=draw(st.integers(0, 20)))


@settings(deadline=None, max_examples=80)
@given(engine_walks())
def test_parse_inverts_serialize(gw):
    g, w = gw
    for rec in (record_anonymized(w), record_named_neighbors(w, g)):
        again = parse(rec.text)
        assert again.tokens == rec.tokens
        assert again.text == rec.text


@settings(deadline=None, max_examples=80)
@given(engine_walks())
def test_anonymized_ids_are_contiguous_from_one(gw):
    _, w = gw
    rec = record_anonymized(w)
    ids = {tok.id for tok in rec.tokens}
    assert ids == set(range(1, len(set(w.vertices)) + 1))
    assert max(tok.id for tok in rec.tokens) == len(set(w.vertices))


@settings(deadline=None, max_examples=80)
@given(engine_walks())
def test_recorder_output_passes_the_full_check(gw):
    # the recorders skip the discipline check; rebuilding their tokens
    # through the checking constructor and through parse must agree
    g, w = gw
    for rec in (record_anonymized(w), record_named_neighbors(w, g)):
        checked = Record(rec.tokens)
        assert checked == rec
        assert checked.text == rec.text
        assert repr(checked) == repr(rec)
        assert parse(rec.text) == rec


@settings(deadline=None, max_examples=80)
@given(engine_walks(), st.randoms(use_true_random=False), st.booleans())
def test_attributed_prose_is_invariant_under_relabeling(gw, rnd, directed):
    # attributes move with the vertices, so the text may not change
    g, w = gw
    mapping = list(range(g.n))
    rnd.shuffle(mapping)
    p = Permutation(tuple(mapping))
    texts = {v: f"T{rnd.randrange(4)}" for v in range(g.n)}
    labels = {v: rnd.choice("xy") for v in range(g.n) if rnd.random() < 0.5}
    directions = None
    if directed:
        directions = {
            (u, v) if rnd.random() < 0.5 else (v, u): rnd.choice(["cites", "cited-by"])
            for u, v in g.edges()
        }
    attrs = AttributeProvider(texts, directions, labels or None)
    moved = AttributeProvider(
        {mapping[v]: t for v, t in texts.items()},
        None if directions is None
        else {(mapping[u], mapping[v]): d for (u, v), d in directions.items()},
        {mapping[v]: c for v, c in labels.items()} or None,
    )
    relabeled = Walk(tuple(mapping[v] for v in w.vertices), w.restart_flags)
    assert (record_attributed(relabeled, apply_permutation(g, p), moved)
            == record_attributed(w, g, attrs))


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=8)
)
def test_recorders_on_arbitrary_walks_refuse_or_pass_the_full_check(steps):
    # walks from outside the engine (the record subcommand reads them
    # from files): the recorders either raise or emit a record that
    # passes the checking constructor
    w = Walk(tuple(v for v, _ in steps),
             (False,) + tuple(r for _, r in steps[1:]))
    for record in (record_anonymized,
                   lambda w: record_named_neighbors(w, gen_clique(4))):
        try:
            rec = record(w)
        except ValueError:
            continue
        assert Record(rec.tokens) == rec
        assert parse(rec.text) == rec
