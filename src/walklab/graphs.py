"""Immutable graph core: construction, relabeling, local balls.

Graphs here are simple (no loops, no multi-edges), undirected and
connected.  Everything downstream -- walk samplers, recorders, the
decoder -- leans on those guarantees, so ``build_graph`` enforces them
up front instead of every consumer re-checking.
"""
from __future__ import annotations

import collections
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "Permutation",
    "LocalBall",
    "build_graph",
    "apply_permutation",
    "local_ball",
    "parse_edge_list",
    "format_edge_list",
]


class _WeakReferenceable:
    # a slotted base that adds only a weak-reference slot: a slotted
    # dataclass gets one through ``weakref_slot``, from Python 3.11 only
    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Graph(_WeakReferenceable):
    """A simple connected undirected graph on vertices ``0..n-1``.

    It holds these three fields in slots, with no instance dictionary,
    so it caches nothing on itself; it can be weakly referenced and
    pickled.  ``has_edge`` bisects the sorted neighbor tuple, O(log deg).

    Attributes
    ----------
    n : int
        Number of vertices.
    adjacency : tuple of tuple of int
        ``adjacency[u]`` is the sorted tuple of neighbors of ``u``.
    m : int
        Number of undirected edges.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.adjacency)

    def __repr__(self) -> str:  # the default dataclass repr drowns the terminal
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on ``0..n-1``, stored as ``mapping[old] == new``."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError("mapping is not a permutation of 0..n-1")

    def __len__(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for old, new in enumerate(self.mapping):
            inv[new] = old
        return Permutation(tuple(inv))


@dataclass(frozen=True, slots=True)
class LocalBall:
    """The radius-``r`` ball around a center vertex, in parent-graph labels.

    ``members`` are sorted ascending; ``edges`` are the edges they
    induce, ``(u, v)`` with ``u < v``, in ``Graph.edges`` order.
    """

    members: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def _adjacency_from_edge_set(n: int, edge_set: set[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in nbrs)


def _reach(adjacency: Sequence[Sequence[int]], source: int,
           radius: int | None = None) -> list[int]:
    """The vertices within ``radius`` steps of ``source``, nearest first;
    without a radius, its whole component."""
    dist = {source: 0}
    queue = collections.deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return list(dist)


def _components(adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    comps: list[list[int]] = []
    seen: set[int] = set()
    for s in range(len(adjacency)):
        if s not in seen:
            comps.append(sorted(_reach(adjacency, s)))
            seen.update(comps[-1])
    return comps


def _listing(comps: list[list[int]]) -> str:
    """``str(comps)`` cut to three components of at most eight vertices, then ``...``."""
    def cut(items: list, k: int, fmt: Callable) -> str:
        return "[" + ", ".join([*map(fmt, items[:k])] + ["..."] * (len(items) > k)) + "]"
    return cut(comps, 3, lambda comp: cut(comp, 8, str))


def _normalize_edges(edges: Iterable[tuple[int, int]], n: int) -> set[tuple[int, int]]:
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    edge_set: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) not allowed")
        edge_set.add((u, v) if u < v else (v, u))
    return edge_set


def build_graph(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a validated simple connected graph.

    Duplicate edges and reversed duplicates collapse to one undirected
    edge.  Self-loops, out-of-range endpoints and disconnected inputs
    raise ``ValueError``; the disconnection error counts the components
    and lists the first few so callers can see what went wrong.

    Parameters
    ----------
    edges : iterable of (int, int)
        Undirected edges over vertices ``0..n-1``.
    n : int
        Vertex count.

    Returns
    -------
    Graph
    """
    edge_set = _normalize_edges(edges, n)
    adjacency = _adjacency_from_edge_set(n, edge_set)
    if len(_reach(adjacency, 0)) < n:  # one search settles a connected input
        comps = _components(adjacency)
        raise ValueError(
            f"graph is disconnected: {len(comps)} components {_listing(comps)}"
        )
    return Graph(n=n, adjacency=adjacency, m=len(edge_set))


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel ``g`` by ``p``: vertex ``u`` becomes ``p(u)``."""
    if len(p) != g.n:
        raise ValueError(f"permutation on {len(p)} points, graph has {g.n} vertices")
    new, old = p.mapping, p.inverse().mapping  # vertex v of the result is old[v]
    adjacency = tuple(tuple(sorted(new[w] for w in g.adjacency[u])) for u in old)
    return Graph(n=g.n, adjacency=adjacency, m=g.m)


def local_ball(g: Graph, v: int, r: int) -> LocalBall:
    """BFS ball of radius ``r`` around ``v``, with the edges it induces.

    ``r = 0`` gives the singleton ball ``{v}`` with no edges.  The ball
    reads only its members' neighbor tuples.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"center {v} out of range for n={g.n}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    members = tuple(sorted(_reach(g.adjacency, v, r)))
    inside = set(members)
    edges = tuple((u, w) for u in members for w in g.adjacency[u] if u < w and w in inside)
    return LocalBall(members=members, edges=edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: ``n m`` header, then ``u v`` lines.

    Blank lines and ``#`` comments are skipped.  The declared edge count
    must match after dedup; it is checked before connectivity.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise ValueError("empty edge list")
    n, m = _int_pair(*rows[0], "'n m' header")
    edges = [_int_pair(lineno, line, "'u v' edge line") for lineno, line in rows[1:]]
    edge_set = _normalize_edges(edges, n)
    if len(edge_set) != m:
        raise ValueError(f"header declares {m} edges, found {len(edge_set)}")
    return build_graph(edge_set, n)


def _int_pair(lineno: int, line: str, what: str) -> tuple[int, int]:
    fields = line.split()
    if len(fields) != 2:
        raise ValueError(f"line {lineno}: expected {what}, got {fields!r}")
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"line {lineno}: {line!r} is not an integer {what}") from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
