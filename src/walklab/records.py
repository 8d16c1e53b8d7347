"""Walk recording: anonymization, named neighbors, attributed text.

A record renames vertices by order of first discovery (the start is
``1``, the next new vertex ``2``, and so on) and writes the walk as a
token string: ``-`` for an ordinary step, ``;`` for a restart jump,
``#`` for an already-named neighbor announced alongside a step.  Two
walks that differ only by a vertex relabeling produce byte-identical
records, which is the whole point.

The attributed variant renders the same structure as prose built from
per-vertex text snippets, for feeding records to text models.

All three schemes run on one incremental :class:`Recorder`.  It refuses
the walk moves that would break the record discipline as they come, so
its records skip the whole-record check that :class:`Record` makes on
outside input (``Record(...)`` and :func:`parse`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .graphs import Graph
from .walks import Walk

__all__ = [
    "Step",
    "Restart",
    "Neighbor",
    "Token",
    "Record",
    "AttributeProvider",
    "Recorder",
    "record_anonymized",
    "record_named_neighbors",
    "record_attributed",
    "serialize",
    "parse",
]


@dataclass(frozen=True)
class Step:
    id: int


@dataclass(frozen=True)
class Restart:
    id: int


@dataclass(frozen=True)
class Neighbor:
    id: int


Token = Union[Step, Restart, Neighbor]

_SEPARATOR = {Step: "-", Restart: ";", Neighbor: "#"}
_KIND = {"": Step, "-": Step, ";": Restart, "#": Neighbor}  # "": the first token
_TOKEN_RE = re.compile(r"\d+(?:[-;#]\d+)*")


@dataclass(frozen=True)
class Record:
    """A validated token sequence.

    The constructor enforces the record discipline: the first token is
    ``Step(1)``; a fresh id (one above the running maximum) may appear
    only in a Step token; Restart and Neighbor tokens refer to already
    known ids; Neighbor tokens attach to the preceding step, never to a
    restart; and no token states a self-loop (a step onto the current
    position, or a neighbor equal to it).  :class:`Recorder` builds its
    records without the check, through :meth:`_trusted`.
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
    def _trusted(cls, tokens: tuple[Token, ...], text: str) -> Record:
        """A record from :class:`Recorder`, which keeps the discipline
        step by step: no re-check, and ``text`` given."""
        rec = object.__new__(cls)
        object.__setattr__(rec, "tokens", tokens)
        object.__setattr__(rec, "_text", text)
        return rec

    @property
    def text(self) -> str:
        text = self.__dict__.get("_text")  # set by _trusted
        if text is not None:
            return text
        first, *rest = self.tokens
        return str(first.id) + "".join(_SEPARATOR[type(t)] + str(t.id) for t in rest)

    def max_id(self) -> int:
        return max(tok.id for tok in self.tokens)

    def __repr__(self) -> str:
        return f"Record({self.text!r})"


def serialize(rec: Record) -> str:
    """Canonical text of a record; inverse of :func:`parse`."""
    return rec.text


def parse(text: str) -> Record:
    """Parse record text back into tokens.

    Raises ``ValueError`` on malformed text or any violation of the
    record discipline (see :class:`Record`).
    """
    if not _TOKEN_RE.fullmatch(text):
        raise ValueError(f"malformed record text: {text!r}")
    pieces = re.findall(r"([-;#]?)(\d+)", text)
    return Record(tuple(_KIND[sep](int(raw)) for sep, raw in pieces))


class Recorder:
    """Anonymized and named-neighbor records of one walk, built step by step.

    :meth:`step` appends the walk's next position to both records;
    without a graph only the anonymized record is kept.  :meth:`mark`
    and :meth:`rollback` return to an earlier prefix, so a depth-first
    pass over a walk tree records each shared prefix once.  Each record
    is held as its text pieces (``"1"``, ``"-2"``, ``";1"``, ``"#3"``),
    which join to :attr:`Record.text`; its tokens are looked up from the
    pieces when the record is taken.  :meth:`step` refuses the moves
    that would break the record discipline, so the records come out
    without a second check.  Recorded edges ``u < v`` are kept as keys
    ``u * n + v``, and per vertex a count of edges not yet recorded lets
    a saturated vertex announce nothing at once.
    """

    def __init__(self, start: int, g: Graph | None = None) -> None:
        self.g = g
        self.pos = start
        self.ids = {start: 1}
        self.anon_text = ["1"]
        self.named_text = ["1"]
        self._recorded: set[int] = set()
        self._recorded_log: list[int] = []
        self._unrecorded = [] if g is None else [len(x) for x in g.adjacency]
        self._texts: dict[tuple[type, int], str] = {}
        self._tokens: dict[str, Token] = {"1": Step(1)}

    def name(self, v: int) -> int:
        """The id of ``v``, assigning the next one on first discovery."""
        return self.ids.setdefault(v, len(self.ids) + 1)

    def _text(self, cls: type, i: int) -> str:
        # one piece, and one immutable token for it, per (kind, id)
        text = self._texts.get((cls, i))
        if text is None:
            text = self._texts[(cls, i)] = _SEPARATOR[cls] + str(i)
            self._tokens[text] = cls(i)
        return text

    def traverse(self, u: int, v: int) -> list[int]:
        """Record the move ``u -> v`` and return what it announces.

        The announced vertices are the already-named neighbors of ``v``
        whose edge to ``v`` is not yet recorded, ascending by id; their
        edges become recorded.  The traversed edge counts as recorded
        first, so it is never announced redundantly.  Raises
        ``ValueError`` when ``u``-``v`` is not an edge of the graph.
        """
        g = self.g
        n = g.n
        if not (0 <= u < n and 0 <= v < n) or not g.has_edge(u, v):
            raise ValueError(f"walk step ({u}, {v}) is not an edge of the graph")
        recorded, log, unrecorded = self._recorded, self._recorded_log, self._unrecorded
        e = u * n + v if u < v else v * n + u
        if e not in recorded:
            recorded.add(e)
            log.append(e)
            unrecorded[u] -= 1
            unrecorded[v] -= 1
        if not unrecorded[v]:
            return []
        ids = self.ids
        announced = [x for x in g.neighbors(v)
                     if x in ids and (x * n + v if x < v else v * n + x) not in recorded]
        announced.sort(key=ids.__getitem__)
        for x in announced:
            e = x * n + v if x < v else v * n + x
            recorded.add(e)
            log.append(e)
            unrecorded[x] -= 1
        unrecorded[v] -= len(announced)
        return announced

    def step(self, v: int, restart: bool = False) -> None:
        """Append position ``v``, reached by a restart jump if ``restart``.

        In the named record an ordinary step is followed by the
        neighbors it announces (see :meth:`traverse`); a restart
        announces nothing.  Raises ``ValueError`` on a restart to a
        vertex not yet visited or an ordinary step onto the current
        position, which no record may state.
        """
        u = self.pos
        if restart:
            if v not in self.ids:
                raise ValueError(f"restart to unvisited vertex {v}")
        elif v == u:
            raise ValueError(f"step onto current position {v}")
        self.pos = v
        text = self._text(Restart if restart else Step, self.name(v))
        self.anon_text.append(text)
        if self.g is None:
            return
        self.named_text.append(text)
        if not restart:
            for x in self.traverse(u, v):
                self.named_text.append(self._text(Neighbor, self.ids[x]))

    def mark(self) -> tuple[int, ...]:
        """A handle on the current prefix, for :meth:`rollback`."""
        return (self.pos, len(self.ids), len(self.anon_text), len(self.named_text),
                len(self._recorded_log))

    def rollback(self, mark: tuple[int, ...]) -> None:
        """Forget every step taken since ``mark`` was made."""
        self.pos, n_ids, n_anon, n_named, n_recorded = mark
        ids = self.ids
        while len(ids) > n_ids:
            ids.popitem()  # ids are only ever added, newest last
        del self.anon_text[n_anon:], self.named_text[n_named:]
        log, unrecorded = self._recorded_log, self._unrecorded
        for e in log[n_recorded:]:
            self._recorded.remove(e)
            u, v = divmod(e, self.g.n)
            unrecorded[u] += 1
            unrecorded[v] += 1
        del log[n_recorded:]

    def anonymized(self) -> Record:
        """The anonymized record of the walk so far."""
        return self._record(self.anon_text)

    def named_neighbors(self) -> Record:
        """The named-neighbor record of the walk so far (needs the graph)."""
        return self._record(self.named_text)

    def _record(self, pieces: list[str]) -> Record:
        tokens = tuple(map(self._tokens.__getitem__, pieces))
        return Record._trusted(tokens, "".join(pieces))


def _record_walk(walk: Walk, g: Graph | None = None) -> Recorder:
    rec = Recorder(walk.vertices[0], g)
    for v, restart in zip(walk.vertices[1:], walk.restart_flags[1:]):
        rec.step(v, restart)
    return rec


def record_anonymized(walk: Walk) -> Record:
    """Rename vertices by first discovery and transcribe the walk."""
    return _record_walk(walk).anonymized()


def record_named_neighbors(walk: Walk, g: Graph) -> Record:
    """Anonymized record that also announces already-named neighbors.

    After each ordinary step to ``v``, every previously discovered
    neighbor of ``v`` whose edge has not yet been recorded is emitted
    as a Neighbor token, ascending by id.  The traversed edge counts as
    recorded first, so it is never announced redundantly.  Restart
    steps announce nothing.
    """
    return _record_walk(walk, g).named_neighbors()


@dataclass(frozen=True)
class AttributeProvider:
    """Per-vertex text for attributed records.

    ``vertex_text`` must cover every visited vertex.  ``edge_direction``
    optionally maps ordered pairs to ``"cites"`` or ``"cited-by"``; a
    missing pair is resolved by looking up the reverse pair and
    flipping.  Without it every edge is rendered with
    ``undirected_word``.  ``labels`` adds a category clause on first
    visits to labeled vertices.  ``link_words`` is the (forward,
    backward) wording pair; the defaults give citation-style prose.
    """

    vertex_text: Mapping[int, str]
    edge_direction: Mapping[tuple[int, int], str] | None = None
    labels: Mapping[int, str] | None = None
    entity: str = "Paper"
    link_words: tuple[str, str] = ("cites", "is cited by")
    undirected_word: str = "is linked to"

    def text_of(self, v: int) -> str:
        try:
            return self.vertex_text[v]
        except KeyError:
            raise ValueError(f"no vertex text for visited vertex {v}") from None

    def direction_word(self, u: int, v: int) -> str:
        """Wording for traversing ``u -> v``."""
        if self.edge_direction is None:
            return self.undirected_word
        d = self.edge_direction.get((u, v))
        if d is None:
            rev = self.edge_direction.get((v, u))
            if rev is None:
                raise ValueError(f"no direction for traversed edge ({u}, {v})")
            d = "cited-by" if rev == "cites" else "cites"
        if d == "cites":
            return self.link_words[0]
        if d == "cited-by":
            return self.link_words[1]
        raise ValueError(f"edge direction must be 'cites' or 'cited-by', got {d!r}")


def record_attributed(walk: Walk, g: Graph, attrs: AttributeProvider) -> str:
    """Render the walk as attributed prose.

    Same structure as :func:`record_named_neighbors`, but vertices carry
    text: the start and every first visit get a ``Title:`` clause (plus
    ``Category:`` when labeled), revisits close with a period, restarts
    become restart sentences, and announced neighbor edges become full
    sentences with direction words.
    """
    ent = attrs.entity
    rec = Recorder(walk.vertices[0], g)
    ids = rec.ids
    parts = [f"{ent} 1 - Title: {attrs.text_of(walk.vertices[0])}"]
    for t in range(1, len(walk.vertices)):
        v = walk.vertices[t]
        fresh = v not in ids
        rec.name(v)
        if walk.restart_flags[t]:
            parts.append(f" Restart at {ent} 1.")
            continue
        u_prev = walk.vertices[t - 1]
        announced = rec.traverse(u_prev, v)
        word = attrs.direction_word(u_prev, v)
        parts.append(f" {ent} {ids[u_prev]} {word} {ent} {ids[v]}")
        if fresh:
            parts.append(f" - Title: {attrs.text_of(v)}")
            if attrs.labels is not None and v in attrs.labels:
                parts.append(f", Category: {attrs.labels[v]}")
        else:
            parts.append(".")
        for u in announced:
            parts.append(f" {ent} {ids[v]} {attrs.direction_word(v, u)} {ent} {ids[u]}.")
    return "".join(parts)
