"""Decoding records back into graphs, and checking what came back.

A record pins down a subgraph exactly: walked steps and announced
neighbors are edges, restarts are not.  When the walk covered enough of
the source graph (all vertices under named-neighbor recording, or all
edges under plain anonymization) the decoded graph is the source graph
up to relabeling.  ``check_reconstruction`` Monte-Carlos that claim.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
# Not called here: perfbench/tracing.py wraps this name on this module.
from .graphs import build_graph  # noqa: F401
from .records import Record, Restart, Step, record_named_neighbors
from .walks import WalkConfig, sample_walk

__all__ = [
    "DecodedGraph",
    "decode",
    "is_isomorphic",
    "check_reconstruction",
    "ISOMORPHISM_GUARD",
]

ISOMORPHISM_GUARD = 16


@dataclass(frozen=True)
class DecodedGraph:
    """A decoded record: record id ``k`` is vertex ``k - 1`` of ``graph``.

    ``complete`` is advisory; set it when the generating walk is known
    to have covered the source (so ``graph`` is the whole thing, not a
    subgraph).
    """

    graph: Graph
    complete: bool = False


def decode(rec: Record, *, complete: bool = False) -> DecodedGraph:
    """Rebuild the recorded subgraph from a record.

    Steps add the edge from the walker's position to the step id,
    neighbor tokens add the edge from the current step to the named id,
    restarts only move the walker.  Ids map to vertices as ``id - 1``.
    Every :class:`Record` keeps the record discipline, so the subgraph
    is simple and connected, and is built without ``build_graph``'s checks.
    """
    # a fresh id always arrives on a step, from a vertex already known
    nbrs: list[set[int]] = [set()]
    n = 1
    pos = 0
    for tok in rec.tokens[1:]:
        v = tok.id - 1
        kind = type(tok)
        if kind is Restart:
            pos = v
            continue
        if v == n:
            nbrs.append(set())
            n += 1
        nbrs[pos].add(v)
        nbrs[v].add(pos)
        if kind is Step:
            pos = v
    adjacency = tuple(tuple(sorted(x)) for x in nbrs)
    m = sum(map(len, adjacency)) // 2
    return DecodedGraph(Graph(n=n, adjacency=adjacency, m=m), complete)


def _signatures(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    degs = [g.degree(u) for u in range(g.n)]
    return [
        (degs[u], tuple(sorted(degs[v] for v in g.neighbors(u))))
        for u in range(g.n)
    ]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test for small graphs (n <= 16).

    Backtracking over vertices, pruned by (degree, sorted neighbor
    degrees) signatures; candidates for each vertex of ``g`` are the
    vertices of ``h`` in the same signature class.
    """
    if g.n > ISOMORPHISM_GUARD or h.n > ISOMORPHISM_GUARD:
        raise ValueError(
            f"isomorphism check limited to n <= {ISOMORPHISM_GUARD}"
        )
    if g.n != h.n or g.m != h.m:
        return False
    sig_g = _signatures(g)
    sig_h = _signatures(h)
    if sorted(sig_g) != sorted(sig_h):
        return False

    candidates: dict[int, list[int]] = {
        u: [v for v in range(h.n) if sig_h[v] == sig_g[u]] for u in range(g.n)
    }
    # Assign most-constrained vertices first; ties broken by index so
    # the search is deterministic.
    order = sorted(range(g.n), key=lambda u: (len(candidates[u]), u))
    mapping = [-1] * g.n
    used = [False] * h.n

    def assign(i: int) -> bool:
        if i == g.n:
            return True
        u = order[i]
        adj_u = set(g.neighbors(u))
        for v in candidates[u]:
            # v must be adjacent exactly to the images of u's assigned neighbors
            adj_v = set(h.neighbors(v))
            if used[v] or any((w in adj_u) != (mapping[w] in adj_v) for w in order[:i]):
                continue
            mapping[u] = v
            used[v] = True
            if assign(i + 1):
                return True
            used[v] = False
        return False

    return assign(0)


def check_reconstruction(g: Graph, config: WalkConfig, trials: int) -> float:
    """Fraction of sampled walks that visit every vertex of ``g``.

    Each covering walk is recorded with named neighbors, decoded, and
    asserted isomorphic to ``g``; a failure there is a bug, not a
    statistic, so it raises.
    """
    if g.n > ISOMORPHISM_GUARD:
        raise ValueError(
            f"reconstruction check limited to n <= {ISOMORPHISM_GUARD}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    covered = 0
    for i in range(trials):
        walk = sample_walk(g, config, start=None, walk_index=i)
        if len(set(walk.vertices)) == g.n:
            covered += 1
            got = decode(record_named_neighbors(walk, g), complete=True)
            if not is_isomorphic(got.graph, g):
                raise AssertionError(
                    f"covering walk failed to reconstruct the graph "
                    f"(trial {i}, walk {walk.vertices})"
                )
    return covered / trials
