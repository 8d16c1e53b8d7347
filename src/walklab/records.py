"""Walk recording: anonymization, named neighbors, attributed text.

A record renames vertices by order of first discovery (the start is
``1``, the next new vertex ``2``, and so on) and writes the walk as a
token string: ``-`` for an ordinary step, ``;`` for a restart jump,
``#`` for an already-named neighbor announced alongside a step.
:attr:`Record.text` is that string and :func:`parse` reads it back.  Two
walks that differ only by a vertex relabeling produce byte-identical
records, which is the whole point.

The attributed variant renders the named-neighbor record as prose
built from per-vertex text snippets, for feeding records to text models.

All three schemes record a walk in one pass, which refuses nothing.
Each scheme first refuses a walk no record may state, and with a graph
a walk that leaves it, by :func:`check_walk`, so the records skip the
whole-record check that :class:`Record` makes on outside input
(``Record(...)`` and :func:`parse`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .graphs import Graph
from .walks import TreeLevel, Walk, _RowCompiler

__all__ = [
    "Step",
    "Restart",
    "Neighbor",
    "Token",
    "Record",
    "AttributeProvider",
    "check_walk",
    "record_anonymized",
    "record_named_neighbors",
    "record_attributed",
    "parse",
]


@dataclass(frozen=True, slots=True)
class Step:
    id: int


@dataclass(frozen=True, slots=True)
class Restart:
    id: int


@dataclass(frozen=True, slots=True)
class Neighbor:
    id: int


Token = Union[Step, Restart, Neighbor]

_SEPARATOR = {Step: "-", Restart: ";", Neighbor: "#"}
_KIND = {"": Step, **{sep: kind for kind, sep in _SEPARATOR.items()}}  # "": the first token
_TOKEN_RE = re.compile(r"\d+(?:[-;#]\d+)*")


def _token_text(tok: Token) -> str:
    """A token's text in a record after the first: separator, then id."""
    return _SEPARATOR[type(tok)] + str(tok.id)


class _TextSlot:
    # the slot of the text a trusted record is built with; a slotted
    # dataclass takes no slot that is not a field, so a base declares it
    __slots__ = ("_text",)


@dataclass(frozen=True, slots=True)
class Record(_TextSlot):
    """A validated token sequence.

    The constructor enforces the record discipline: the first token is
    ``Step(1)``; a fresh id (one above the running maximum) may appear
    only in a Step token; Restart and Neighbor tokens refer to already
    known ids; Neighbor tokens attach to the preceding step, never to a
    restart; and no token states a self-loop (a step onto the current
    position, or a neighbor equal to it).  The record schemes build
    their records, of walks :func:`check_walk` has passed, without the
    check, through :meth:`_trusted`.
    """

    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        toks = self.tokens
        if not toks:
            raise ValueError("empty record")
        if toks[0] != Step(1):
            raise ValueError(f"record must begin with Step(1), got {toks[0]!r}")
        max_seen = 1
        pos = 1
        after_restart = False
        for tok in toks[1:]:
            if tok.id < 1:
                raise ValueError(f"ids are positive, got {tok.id}")
            if isinstance(tok, Step):
                if tok.id > max_seen:
                    if tok.id != max_seen + 1:
                        raise ValueError(
                            f"id {tok.id} introduced before {max_seen + 1}"
                        )
                    max_seen = tok.id
                if tok.id == pos:
                    raise ValueError(f"step onto current position {pos}")
                pos = tok.id
                after_restart = False
            elif isinstance(tok, Restart):
                if tok.id > max_seen:
                    raise ValueError(f"restart to unknown id {tok.id}")
                pos = tok.id
                after_restart = True
            elif isinstance(tok, Neighbor):
                if after_restart:
                    raise ValueError("neighbor token after a restart")
                if tok.id > max_seen:
                    raise ValueError(f"neighbor names unknown id {tok.id}")
                if tok.id == pos:
                    raise ValueError(f"neighbor equal to current position {pos}")
            else:
                raise TypeError(f"unknown token {tok!r}")

    @classmethod
    def _trusted(cls, pieces: Sequence[tuple[str, Token]]) -> Record:
        """A record from its (text, token) pieces, of a walk that keeps
        the discipline: no re-check, and its text joined from the pieces."""
        texts, tokens = zip(*pieces)
        rec = object.__new__(cls)
        object.__setattr__(rec, "tokens", tokens)
        object.__setattr__(rec, "_text", "".join(texts))
        return rec

    @property
    def text(self) -> str:
        """Canonical text of the record; :func:`parse` inverts it."""
        try:
            return self._text  # set by _trusted
        except AttributeError:
            first, *rest = self.tokens
            return str(first.id) + "".join(map(_token_text, rest))

    def __repr__(self) -> str:
        return f"Record({self.text!r})"


def parse(text: str) -> Record:
    """Parse record text back into tokens.

    Raises ``ValueError`` on malformed text or any violation of the
    record discipline (see :class:`Record`).
    """
    if not _TOKEN_RE.fullmatch(text):
        raise ValueError(f"malformed record text: {text!r}")
    pieces = re.findall(r"([-;#]?)(\d+)", text)
    return Record(tuple(_KIND[sep](int(raw)) for sep, raw in pieces))


def _new_piece(
    made: dict[tuple[type, int], tuple[str, Token]], key: tuple[type, int]
) -> tuple[str, Token]:
    """The text piece and token of ``key``, a (kind, id) pair, kept in ``made``."""
    tok = key[0](key[1])
    piece = made[key] = (_token_text(tok), tok)
    return piece


def _record_walk(
    walk: Walk, g: Graph | None = None
) -> tuple[list[int], Record, Record | None]:
    """Record a walk in one pass: its vertices in id order, its anonymized
    record and, given ``g``, its named-neighbor record (else None).

    Ids are assigned by first discovery.  In the named record an
    ordinary step to a vertex ``v`` named by that step is followed by
    the neighbors it announces: ``v``'s already-named neighbors other
    than the vertex it came from, ascending by id.  Any other step, and
    a restart, announces nothing.  This is the rule "announce each
    named neighbor whose edge is not yet recorded, the traversed edge
    recorded first": after every token the recorded edges are exactly
    the edges among the named vertices.  Each record is built as (text,
    token) pieces, each piece made once per call.  The walk is trusted
    (see :func:`check_walk`): this refuses nothing.
    """
    vertices = walk.vertices
    order = [vertices[0]]  # the vertex of id i is order[i - 1]
    ids = {vertices[0]: 1}
    made: dict[tuple[type, int], tuple[str, Token]] = {}
    anon = [("1", Step(1))]
    named = anon.copy()
    adjacency = None if g is None else g.adjacency
    # a plain loop, with no comprehension: one would make cells of the
    # locals it reads, a cost every step would pay
    for u, v, restart in zip(vertices, vertices[1:], walk.restart_flags[1:]):
        i = ids.get(v)
        fresh = i is None
        if fresh:
            order.append(v)
            i = ids[v] = len(order)
        key = (Restart, i) if restart else (Step, i)
        piece = made.get(key) or _new_piece(made, key)
        anon.append(piece)
        if adjacency is None:
            continue
        named.append(piece)
        if not fresh:  # a restart lands on a named vertex
            continue
        announced = []
        for x in adjacency[v]:
            i = ids.get(x)
            if i is not None and x != u:
                announced.append(i)
        announced.sort()
        for i in announced:
            key = (Neighbor, i)
            named.append(made.get(key) or _new_piece(made, key))
    return order, Record._trusted(anon), None if g is None else Record._trusted(named)


class LevelRecorder:
    """Named-neighbor records of a batch of walk trees, a level at a time.

    It follows :func:`~walklab.walks.walk_tree_levels` over the trees of
    a row compiler built over all the vertices of its graphs, and reads
    their neighbors from the compiler's padded adjacency: :meth:`start`
    takes depth 0 and :meth:`step` each level after it, or
    :meth:`follow` runs both along the levels.  Per node it
    keeps an id row (``ids[i, v]`` is ``v``'s id, 0 while unnamed) and
    its record as one integer row (:attr:`rows`): ``1`` for the start,
    then per step a block of the step's id, negated for a restart, and
    the ids it announces, ascending, padded with 0 to the batch's
    largest degree.  The rules are those of the one-pass recorder the
    record schemes run; within one batch, two rows are equal exactly
    when their records are, and :meth:`texts` renders a row's two texts.
    """

    def __init__(self, compiler: _RowCompiler) -> None:
        self.compiler = compiler
        n = max(g.n for g in compiler.graphs)
        self.dtype = np.min_scalar_type(-n - 2)  # ids 1..n, and a larger pad
        self.width = 1 + compiler.adj.shape[1]
        self.columns = n + 1  # column n, never named, is the padding's (-1)

    def start(self, level: TreeLevel) -> None:
        """Begin each root's record at its start vertex, id 1."""
        k = len(level.vertex)
        self.ids = np.zeros((k, self.columns), dtype=self.dtype)
        self.ids[np.arange(k), level.vertex] = 1
        self.named = np.ones(k, dtype=self.dtype)
        self.rows = np.ones((k, 1), dtype=self.dtype)

    def follow(self, levels: Iterable[TreeLevel]) -> Iterator[TreeLevel]:
        """Record along ``levels``, depth 0 first, yielding each level
        once its records are made; at the end only :attr:`rows` is kept."""
        prev = None
        for level in levels:
            if prev is None:
                self.start(level)
            else:
                self.step(level, prev)
            prev = level.vertex
            yield level
        del self.ids, self.named

    def name(self, ids: np.ndarray, named: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per node, the id of its vertex ``v``, naming a new one next.

        ``ids`` and ``named`` (the count of named vertices) are the
        nodes' own copies, updated in place.
        """
        nodes = np.arange(len(v))
        token = ids[nodes, v]
        new = token == 0
        named += new
        token[new] = named[new]
        ids[nodes, v] = token
        return token

    def step(self, level: TreeLevel, prev: np.ndarray) -> None:
        """Extend the parents' records by ``level``; ``prev`` holds the
        parents' positions."""
        parent, v = level.parent, level.vertex
        ids, named = self.ids[parent], self.named[parent]
        # only a move to a vertex not yet named announces: its named
        # neighbors but the one it came from, ascending
        fresh = np.flatnonzero((ids[np.arange(len(v)), v] == 0) & ~level.restart)
        token = self.name(ids, named, v)
        block = np.zeros((len(v), self.width), dtype=self.dtype)
        block[:, 0] = np.where(level.restart, -token, token)

        compiler = self.compiler
        nbrs = compiler.adj[compiler.index(level.tree[fresh], v[fresh])]
        known = ids[fresh[:, None], nbrs]
        top = np.iinfo(self.dtype).max
        announced = np.where((known > 0) & (nbrs != prev[parent[fresh], None]), known, top)
        announced.sort(axis=1)
        announced[announced == top] = 0
        block[fresh, 1:] = announced

        self.ids, self.named = ids, named
        self.rows = np.hstack((self.rows[parent], block))

    def texts(self, row: Sequence[int]) -> tuple[str, str]:
        """The anonymized and the named-neighbor text of a record row."""
        anon, named = ["1"], ["1"]
        for i in range(1, len(row), self.width):
            k = int(row[i])
            text = _token_text(Restart(-k) if k < 0 else Step(k))
            anon.append(text)
            named.append(text)
            named.extend(_token_text(Neighbor(int(a))) for a in row[i + 1:i + self.width] if a)
        return "".join(anon), "".join(named)


def check_walk(walk: Walk, g: Graph | None = None) -> None:
    """Refuse a walk no record may state, naming its first fault in walk order.

    A restart must land on a vertex already visited, and an ordinary
    step must leave the current position.  With ``g``, the start and
    restart targets must also be vertices of ``g``, and every ordinary
    step an edge.  Every record scheme runs this one check.
    """
    n = None if g is None else g.n
    seen = set()
    prev = None
    for v, restart in zip(walk.vertices, walk.restart_flags):
        if prev is None or restart:
            if n is not None and not 0 <= v < n:
                raise ValueError(f"walk vertex {v} is out of range for n={n}")
            if restart and v not in seen:
                raise ValueError(f"restart to unvisited vertex {v}")
        elif v == prev:
            raise ValueError(f"step onto current position {v}")
        elif n is not None and not g.has_edge(prev, v):
            raise ValueError(f"walk step ({prev}, {v}) is not an edge of the graph")
        seen.add(v)
        prev = v


def record_anonymized(walk: Walk) -> Record:
    """Rename vertices by first discovery and transcribe the walk."""
    check_walk(walk)
    return _record_walk(walk)[1]


def record_named_neighbors(walk: Walk, g: Graph) -> Record:
    """Anonymized record that also announces already-named neighbors.

    After each ordinary step to ``v``, every previously discovered
    neighbor of ``v`` whose edge has not yet been recorded is emitted
    as a Neighbor token, ascending by id.  The traversed edge counts as
    recorded first, so it is never announced redundantly.  Restart
    steps announce nothing.
    """
    check_walk(walk, g)
    return _record_walk(walk, g)[2]


@dataclass(frozen=True, slots=True)
class AttributeProvider:
    """Per-vertex text for attributed records.

    ``vertex_text`` must cover every visited vertex.  ``edge_direction``
    optionally maps ordered pairs to ``"cites"`` or ``"cited-by"``; a
    missing pair is resolved by looking up the reverse pair and
    flipping; the clauses read "cites" and "is cited by".  Without it
    every edge reads "is linked to".  ``labels`` adds a category clause
    on first visits to labeled vertices.
    """

    vertex_text: Mapping[int, str]
    edge_direction: Mapping[tuple[int, int], str] | None = None
    labels: Mapping[int, str] | None = None
    entity: str = "Paper"

    def text_of(self, v: int) -> str:
        try:
            return self.vertex_text[v]
        except KeyError:
            raise ValueError(f"no vertex text for visited vertex {v}") from None

    def direction_word(self, u: int, v: int) -> str:
        """Wording for traversing ``u -> v``."""
        if self.edge_direction is None:
            return "is linked to"
        d = self.edge_direction.get((u, v))
        if d is None:
            rev = self.edge_direction.get((v, u))
            if rev is None:
                raise ValueError(f"no direction for traversed edge ({u}, {v})")
            d = "cited-by" if rev == "cites" else "cites"
        if d == "cites":
            return "cites"
        if d == "cited-by":
            return "is cited by"
        raise ValueError(f"edge direction must be 'cites' or 'cited-by', got {d!r}")


def record_attributed(walk: Walk, g: Graph, attrs: AttributeProvider) -> str:
    """Render the walk's named-neighbor record as attributed prose.

    Each token becomes one clause.  The start and every step to a new
    id get a ``Title:`` clause (plus ``Category:`` when labeled), a step
    to a known id closes with a period, a restart becomes a restart
    sentence naming its target, and each announced neighbor becomes a
    sentence with its direction word.
    """
    check_walk(walk, g)
    vertex, _, named = _record_walk(walk, g)  # the vertex of id k is vertex[k - 1]
    ent = attrs.entity
    parts = [f"{ent} 1 - Title: {attrs.text_of(vertex[0])}"]
    pos = known = 1
    for tok in named.tokens[1:]:
        k = tok.id
        if isinstance(tok, Restart):
            parts.append(f" Restart at {ent} {k}.")
        else:
            word = attrs.direction_word(vertex[pos - 1], vertex[k - 1])
            parts.append(f" {ent} {pos} {word} {ent} {k}")
            if isinstance(tok, Step) and k > known:
                known = k
                v = vertex[k - 1]
                parts.append(f" - Title: {attrs.text_of(v)}")
                if attrs.labels is not None and v in attrs.labels:
                    parts.append(f", Category: {attrs.labels[v]}")
            else:
                parts.append(".")
        if not isinstance(tok, Neighbor):
            pos = k
    return "".join(parts)
