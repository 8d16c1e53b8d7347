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
from .records import Record, Restart, Step, _record_walk
from .walks import WalkConfig, sample_walk

__all__ = [
    "DecodedGraph",
    "decode",
    "is_isomorphic",
    "check_reconstruction",
    "ISOMORPHISM_GUARD",
]

ISOMORPHISM_GUARD = 16


@dataclass(frozen=True, slots=True)
class DecodedGraph:
    """A decoded record: record id ``k`` is vertex ``k - 1`` of ``graph``."""

    graph: Graph


def decode(rec: Record) -> DecodedGraph:
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
    return DecodedGraph(Graph(n=n, adjacency=adjacency, m=m))


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
    vertices of ``h`` in its signature class.  Each vertex ``v`` of ``h``
    is a bitmask of its neighbors (bits ``0..n-1``) and itself (bit ``n + v``).
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
    classes: dict[tuple, list[int]] = {}
    for v, sig in enumerate(sig_h):
        classes.setdefault(sig, []).append(v)
    candidates = [classes[sig] for sig in sig_g]
    # Assign most-constrained vertices first; ties broken by index so
    # the search is deterministic.
    order = sorted(range(g.n), key=lambda u: (len(candidates[u]), u))
    h_bits = [sum(1 << x for x in xs) | 1 << (h.n + v) for v, xs in enumerate(h.adjacency)]
    return _extend(0, order, candidates, g.adjacency, h_bits, [0] * g.n, 0)


def _extend(
    i: int,
    order: list[int],
    candidates: list[list[int]],
    adj_g: tuple[tuple[int, ...], ...],
    h_bits: list[int],
    image: list[int],
    placed: int,
) -> bool:
    """Extend the map from ``order[:i]`` to every vertex, or say it cannot.

    ``image[u]`` is the bit of ``u``'s image (0 while unplaced); ``placed``
    sets both bits of each placed image, so one comparison refuses a used
    candidate and one whose adjacency to the placed images differs.
    A module function, not a closure: a recursive closure is a reference
    cycle that would keep both graphs alive until the cycle collector runs.
    """
    if i == len(order):
        return True
    u = order[i]
    want = 0  # the images of u's placed neighbors
    for w in adj_g[u]:
        want |= image[w]
    shift = len(h_bits)
    for v in candidates[u]:
        if h_bits[v] & placed == want:
            bit = image[u] = 1 << v
            if _extend(i + 1, order, candidates, adj_g, h_bits, image,
                       placed | bit | bit << shift):
                return True
    image[u] = 0
    return False


def check_reconstruction(g: Graph, config: WalkConfig, trials: int) -> float:
    """Fraction of sampled walks that visit every vertex of ``g``.

    Each covering walk is recorded with named neighbors, decoded, and
    asserted isomorphic to ``g``; a failure there is a bug, not a
    statistic, so it raises.  The walks are the package's own draws
    from :func:`~walklab.walks.sample_walk`, so they are recorded
    without :func:`~walklab.records.check_walk`'s re-check: a covering
    walk that steps off an edge decodes to a graph with an edge too many,
    and a sampler bug fails the assertion rather than being refused.
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
            got = decode(_record_walk(walk, g)[2])
            if not is_isomorphic(got.graph, g):
                raise AssertionError(
                    f"covering walk failed to reconstruct the graph "
                    f"(trial {i}, walk {walk.vertices})"
                )
    return covered / trials
