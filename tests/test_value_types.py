"""The value types: every dataclass the package exports is frozen and
slotted, so no instance carries a dictionary, and it survives pickle,
``copy.deepcopy`` and ``dataclasses.replace`` unchanged."""
import ast
import copy
import dataclasses
import pathlib
import pickle
import weakref

import pytest

import walklab
from walklab import (
    MDLR,
    AttributeProvider,
    Constant,
    CoverStats,
    DecodedGraph,
    Graph,
    InvarianceReport,
    LocalBall,
    Neighbor,
    Node2Vec,
    Permutation,
    Record,
    Restart,
    RestartPeriod,
    RestartProb,
    Step,
    Walk,
    WalkConfig,
    decode,
    gen_lollipop,
    local_ball,
    parse,
    record_anonymized,
    sample_walk,
)

MODULES = sorted(pathlib.Path(walklab.__file__).parent.glob("*.py"))


def _examples():
    g = gen_lollipop(6)
    walk = sample_walk(g, WalkConfig(length=12, restart=RestartProb(0.3), seed=4), start=0)
    return {
        Graph: g,
        Permutation: Permutation((2, 0, 1)),
        LocalBall: local_ball(g, 0, 1),
        Constant: Constant(),
        MDLR: MDLR(),
        Node2Vec: Node2Vec(2.0, 0.5),
        RestartProb: RestartProb(0.3),
        RestartPeriod: RestartPeriod(4),
        WalkConfig: WalkConfig(length=5, conductance=MDLR(), node2vec=Node2Vec(1.0, 2.0),
                               restart=RestartPeriod(3), seed=7),
        Walk: walk,
        Step: Step(2),
        Restart: Restart(1),
        Neighbor: Neighbor(3),
        Record: record_anonymized(walk),  # trusted: its text is kept in a slot
        AttributeProvider: AttributeProvider({0: "a", 1: "b"}, {(0, 1): "cites"}, {0: "x"}),
        DecodedGraph: decode(parse("1-2-3#1")),
        CoverStats: CoverStats(12.5, 0.5, 40, "vertex", censored=1),
        InvarianceReport: InvarianceReport(3, 4, 5, 60, 0.0),
    }


EXAMPLES = _examples()


def test_every_exported_dataclass_has_an_example():
    exported = {obj for obj in map(walklab.__dict__.get, walklab.__all__)
                if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert exported == set(EXAMPLES)


@pytest.mark.parametrize("x", EXAMPLES.values(), ids=lambda x: type(x).__name__)
def test_value_has_no_dict_and_survives_copies(x):
    assert not hasattr(x, "__dict__")
    for field in dataclasses.fields(x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, field.name, None)
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), dataclasses.replace(x)):
        assert twin == x  # a dataclass equals only its own class
        assert repr(twin) == repr(x)


def test_graph_is_weakly_referenceable():
    g = gen_lollipop(5)
    ref = weakref.ref(g)
    assert ref() is g
    del g
    assert ref() is None


def unslotted_dataclasses(source: str) -> list[str]:
    """The ``@dataclass`` decorations in ``source`` that do not set ``slots=True``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            func = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name != "dataclass":
                continue
            slots = [kw.value for kw in getattr(dec, "keywords", ()) if kw.arg == "slots"]
            if not (slots and isinstance(slots[0], ast.Constant) and slots[0].value is True):
                found.append(f"line {node.lineno}: {node.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_is_slotted(path):
    assert unslotted_dataclasses(path.read_text()) == []


def test_the_check_finds_an_unslotted_dataclass():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "@dataclass(frozen=True, slots=True)\n"
              "class A:\n"
              "    x: int\n"
              "@dataclass\n"
              "class B:\n"
              "    x: int\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class C:\n"
              "    x: int\n"
              "@dataclass(slots=False)\n"
              "class D:\n"
              "    x: int\n")
    assert unslotted_dataclasses(source) == ["line 7: B", "line 10: C", "line 13: D"]
