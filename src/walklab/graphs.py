"""Immutable graph core: construction, relabeling, local balls.

Graphs here are simple (no loops, no multi-edges), undirected and
connected.  Everything downstream -- walk samplers, recorders, the
decoder -- leans on those guarantees, so ``build_graph`` enforces them
up front instead of every consumer re-checking.
"""
from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "Permutation",
    "LocalBall",
    "build_graph",
    "apply_permutation",
    "local_ball",
    "induced_subgraph",
    "parse_edge_list",
    "format_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """A simple connected undirected graph on vertices ``0..n-1``.

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
        return v in self._neighbor_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.adjacency)

    @functools.cached_property
    def _neighbor_sets(self) -> tuple[frozenset[int], ...]:
        # computed on first use, then an instance attribute: cached_property
        # writes the instance __dict__, which frozen dataclasses still have
        return tuple(frozenset(nbrs) for nbrs in self.adjacency)

    def __repr__(self) -> str:  # the default dataclass repr drowns the terminal
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Permutation:
    """A bijection on ``0..n-1``, stored as ``mapping[old] == new``."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError("mapping is not a permutation of 0..n-1")

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    def __len__(self) -> int:
        return len(self.mapping)

    def apply_sequence(self, seq: Iterable[int]) -> tuple[int, ...]:
        return tuple(self.mapping[v] for v in seq)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for old, new in enumerate(self.mapping):
            inv[new] = old
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


@dataclass(frozen=True)
class LocalBall:
    """The radius-``r`` ball around a center vertex.

    ``members`` are vertex labels of the parent graph, sorted ascending.
    ``induced`` is the subgraph they induce, relabeled ``0..k-1`` in
    member order; ``induced`` may be built without the connectivity
    check (a ball is always connected, but the constructor used for it
    does not insist).
    """

    center: int
    radius: int
    members: tuple[int, ...]
    induced: Graph

    def edges_in_parent(self) -> Iterator[tuple[int, int]]:
        """Induced edges, in parent-graph labels, ``(u, v)`` with ``u < v``."""
        for a, b in self.induced.edges():
            u, v = self.members[a], self.members[b]
            yield (u, v) if u < v else (v, u)


def _adjacency_from_edge_set(n: int, edge_set: set[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in nbrs)


def _components(n: int, adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = collections.deque([s])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


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
    raise ``ValueError``; the disconnection error lists the components
    so callers can see what went wrong.

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
    comps = _components(n, adjacency)
    if len(comps) > 1:
        raise ValueError(
            f"graph is disconnected: {len(comps)} components {comps}"
        )
    return Graph(n=n, adjacency=adjacency, m=len(edge_set))


def induced_subgraph(
    g: Graph, members: Sequence[int], *, require_connected: bool = False
) -> Graph:
    """Subgraph induced by ``members``, relabeled ``0..k-1`` in member order."""
    members = sorted(set(members))
    index = {v: i for i, v in enumerate(members)}
    edge_set = {
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    }
    adjacency = _adjacency_from_edge_set(len(members), edge_set)
    if require_connected:
        comps = _components(len(members), adjacency)
        if len(comps) > 1:
            raise ValueError(f"induced subgraph disconnected: {comps}")
    return Graph(n=len(members), adjacency=adjacency, m=len(edge_set))


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel ``g`` by ``p``: vertex ``u`` becomes ``p(u)``."""
    if len(p) != g.n:
        raise ValueError(f"permutation on {len(p)} points, graph has {g.n} vertices")
    edge_set = {
        (p(u), p(v)) if p(u) < p(v) else (p(v), p(u)) for u, v in g.edges()
    }
    adjacency = _adjacency_from_edge_set(g.n, edge_set)
    return Graph(n=g.n, adjacency=adjacency, m=g.m)


def local_ball(g: Graph, v: int, r: int) -> LocalBall:
    """BFS ball of radius ``r`` around ``v``, with its induced subgraph.

    ``r = 0`` gives the singleton ball ``{v}`` with no edges.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"center {v} out of range for n={g.n}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    dist = {v: 0}
    queue = collections.deque([v])
    while queue:
        u = queue.popleft()
        if dist[u] == r:
            continue
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    members = tuple(sorted(dist))
    induced = induced_subgraph(g, members, require_connected=False)
    return LocalBall(center=v, radius=r, members=members, induced=induced)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: ``n m`` header, then ``u v`` lines.

    Blank lines and ``#`` comments are skipped.  The declared edge count
    must match after dedup.
    """
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise ValueError("empty edge list")
    if len(rows[0]) != 2:
        raise ValueError(f"expected 'n m' header, got {rows[0]!r}")
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"expected 'u v' edge line, got {row!r}")
        edges.append((int(row[0]), int(row[1])))
    g = build_graph(edges, n)
    if g.m != m:
        raise ValueError(f"header declares {m} edges, found {g.m}")
    return g


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
