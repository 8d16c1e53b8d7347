"""Record grammar, the three recording schemes, and parsing."""
import pytest
from hypothesis import given, settings, strategies as st

from walklab import (
    AttributeProvider,
    Neighbor,
    Node2Vec,
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
    serialize,
    rng_stream,
    sample_walk,
    WalkConfig,
    RestartPeriod,
    RestartProb,
    enumerate_walk_distribution,
    gen_csl,
)
from walklab.records import Recorder


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


# -- record discipline -------------------------------------------------------


def test_parse_roundtrip_tokens():
    rec = parse("1-2;1-3#2")
    assert rec.tokens == (Step(1), Step(2), Restart(1), Step(3), Neighbor(2))
    assert serialize(rec) == "1-2;1-3#2"


def test_parse_allows_trailing_restart():
    assert parse("1-2;1").tokens == (Step(1), Step(2), Restart(1))


def test_restart_onto_current_position_is_legal():
    # a restart jump can land where the walker already stands
    assert record_anonymized(walk([0, 1, 0, 0], restarts={2, 3})).text == "1-2;1;1"
    assert parse("1-2;1;1").max_id() == 2


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
        assert serialize(again) == rec.text


@settings(deadline=None, max_examples=80)
@given(engine_walks())
def test_anonymized_ids_are_contiguous_from_one(gw):
    _, w = gw
    rec = record_anonymized(w)
    ids = {tok.id for tok in rec.tokens}
    assert ids == set(range(1, len(set(w.vertices)) + 1))
    assert rec.max_id() == len(set(w.vertices))


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


# K4 on 0..3 with a pendant path 0-4-5 and a leaf 6 on vertex 2: leaves
# saturate at their first visit, the clique only after many steps
LEAFY = build_graph(
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5), (2, 6)], 7
)


@pytest.mark.parametrize("config", [
    WalkConfig(length=4, restart=RestartProb(0.3)),
    WalkConfig(length=4, non_backtracking=True),
    WalkConfig(length=5, node2vec=Node2Vec(2.0, 0.5)),
    WalkConfig(length=6, restart=RestartPeriod(3)),
])
def test_recorder_rollback_matches_fresh_recording(config):
    # walk the enumeration tree depth first with one recorder, rolling
    # back to the common prefix between consecutive walks
    for g in (gen_csl(6, 2), LEAFY):
        for start in (0, 5) if g is LEAFY else (0,):
            rec = Recorder(start, g)
            marks = [rec.mark()]  # marks[k]: after positions 0..k
            previous: list[tuple[int, bool]] = [(start, False)]
            for w, _ in enumerate_walk_distribution(g, config, start=start):
                steps = list(zip(w.vertices, w.restart_flags))
                common = 1
                while common < len(previous) and steps[common] == previous[common]:
                    common += 1
                rec.rollback(marks[common - 1])
                del marks[common:]
                for v, restart in steps[common:]:
                    rec.step(v, restart)
                    marks.append(rec.mark())
                previous = steps
                assert rec.anonymized().text == record_anonymized(w).text
                assert rec.named_neighbors().text == record_named_neighbors(w, g).text
                assert rec.named_neighbors() == record_named_neighbors(w, g)
                # rollback restores the per-vertex counts of unrecorded
                # edges, saturated vertices included
                fresh = Recorder(start, g)
                for v, restart in steps[1:]:
                    fresh.step(v, restart)
                assert rec._unrecorded == fresh._unrecorded
                assert rec._recorded == fresh._recorded


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
