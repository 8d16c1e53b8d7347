"""Stationary distributions and averaged-propagation identities.

The linearized view of a walk-driven network: features propagate by the
transition matrix ``P`` and the reader averages over walk positions, so
its expectation is ``(1/(l+1)) sum_t P^t x``.  The entries of the
averaged matrix power are exactly the expected visit frequencies of the
walk, which is what ``mc_visit_frequencies`` estimates and the test
suite pins against the matrix computation.

As ``l`` grows that average tends to the stationary mix ``pi @ x`` for
any chain with one stationary distribution, periodic ones included.
:func:`stationary` finds ``pi`` by one linear solve of
``pi (P - I) = 0, sum(pi) = 1``, which has exactly one solution when
the chain has a single closed class (every irreducible chain does).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .cover import chunk_groups, joined_random
from .generators import gen_barbell, gen_cycle, gen_lollipop
from .graphs import Graph, build_graph
from .walks import StepTable, WalkConfig, require_seed, require_start

__all__ = [
    "stationary",
    "expected_output",
    "jacobian_expectation",
    "averaged_row",
    "mc_visit_frequencies",
    "mixing_suite",
]


def _check_square(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {P.shape}")
    return P


def _check_transition_matrix(P: np.ndarray) -> np.ndarray:
    P = _check_square(P)
    if (P < 0).any():
        raise ValueError("transition matrix has negative entries")
    if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must sum to 1")
    return P


def stationary(P: np.ndarray) -> np.ndarray:
    """The stationary distribution of ``P``: ``pi P = pi`` with ``sum(pi) = 1``.

    One least-squares solve of ``[P^T - I; 1^T] pi = [0; 1]``.  That
    system has full rank exactly when the chain has a single closed
    class, which is when ``pi`` is unique; periodic chains such as a
    walk on a bipartite graph qualify.  Raises ``ValueError`` when
    ``P`` has more than one stationary distribution (several closed
    classes, e.g. a disconnected support).
    """
    P = _check_transition_matrix(P)
    n = P.shape[0]
    system = np.vstack([P.T - np.eye(n), np.ones(n)])
    target = np.zeros(n + 1)
    target[n] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(system, target, rcond=None)
    if rank < n:
        raise ValueError("transition matrix has more than one stationary distribution")
    return pi


def _position_average(
    step: Callable[[np.ndarray], np.ndarray], start: np.ndarray, l: int
) -> np.ndarray:
    """``(1/(l+1)) sum_{t=0..l} step^t(start)``, summed in order of ``t``."""
    acc = start.copy()
    cur = start
    for _ in range(l):
        cur = step(cur)
        acc += cur
    return acc / (l + 1)


def expected_output(P: np.ndarray, x: np.ndarray, l: int) -> np.ndarray:
    """Expectation of the position-averaged reader: (1/(l+1)) sum P^t x."""
    P = _check_transition_matrix(P)
    x = np.asarray(x, dtype=float)
    if x.shape != (P.shape[0],):
        raise ValueError(f"feature vector shape {x.shape} does not match n={P.shape[0]}")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return _position_average(lambda cur: P @ cur, x, l)


def jacobian_expectation(P: np.ndarray, u: int, v: int, l: int) -> float:
    """Influence of input ``v`` on output ``u``: (1/(l+1)) [sum P^t]_{uv}.

    Equals the walk's expected visit frequency of ``v`` over positions
    0..l starting from ``u``; entry ``v`` of :func:`averaged_row`.
    """
    row = averaged_row(P, u, l)
    if not 0 <= v < row.size:
        raise ValueError(f"v={v} out of range for n={row.size}")
    return float(row[v])


def averaged_row(P: np.ndarray, u: int, l: int) -> np.ndarray:
    """Row ``u`` of ``(1/(l+1)) sum_{t=0..l} P^t``.

    Entry ``v`` is the walk's expected visit frequency of ``v`` over
    positions 0..l starting from ``u``.  At ``l == 0`` the row is the
    indicator of ``u`` whatever ``P`` holds, so ``P`` need only be square
    there: an edgeless graph's transition matrix has zero rows.
    """
    P = _check_square(P)
    n = P.shape[0]
    if not 0 <= u < n:
        raise ValueError(f"u={u} out of range for n={n}")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if l > 0:
        P = _check_transition_matrix(P)
    row = np.zeros(n)
    row[u] = 1.0
    return _position_average(lambda cur: cur @ P, row, l)


def mc_visit_frequencies(
    g: Graph,
    seed: int,
    u: int,
    l: int,
    trials: int,
    cell: int = 0,
) -> np.ndarray:
    """Empirical visit frequencies of every vertex, walks of length ``l`` from ``u``.

    Entry ``v`` is the mean over trials of (visits to v in positions
    0..l) / (l+1).  Entries sum to 1.  The walk is the plain uniform
    one, whose visit frequencies the identity gives.  Trials advance in
    lockstep over the step table's padded rows, counting visits per
    state and folding them onto vertices at the end.  They run in the
    chunks of :func:`~walklab.cover.chunk_groups`, chunk ``j`` on Philox
    stream ``(seed, cell, j)``, and the chunks of a group step together:
    each step every chunk draws its ``rng.random(lanes)``, joined in
    chunk order, and the group makes one guide draw and one
    ``bincount``.  Grouping changes no byte.
    """
    config = WalkConfig(length=0, seed=seed)
    require_seed(config)
    require_start(g, u)
    if l < 0 or trials < 1:
        raise ValueError("need l >= 0 and trials >= 1")
    if l > 0 and g.m == 0:
        raise ValueError(f"vertex {u} has no neighbor to step to")

    rows = StepTable(g, config).padded()
    per_state = np.zeros(rows.position.size, dtype=np.int64)
    for group in chunk_groups(seed, [cell], trials):
        draws = [(rng, lanes) for _, rng, lanes in group]
        state = np.full(sum(lanes for _, lanes in draws), u, dtype=np.int64)
        per_state[u] += state.size
        uniforms = np.empty(state.size)
        for _ in range(l):
            state = rows.draw(state, joined_random(draws, uniforms))
            per_state += np.bincount(state, minlength=per_state.size)
    visits = np.zeros(g.n, dtype=np.int64)
    np.add.at(visits, rows.position, per_state)
    return visits / (trials * (l + 1))


def mixing_suite() -> list[tuple[str, Graph]]:
    """The non-bipartite reference graphs the identity checks run on."""
    star_plus_edge = build_graph([(0, 1), (0, 2), (0, 3), (1, 2)], 4)
    return [
        ("triangle", gen_cycle(3)),
        ("star-plus-edge", star_plus_edge),
        ("barbell-5", gen_barbell(5)),
        ("lollipop-4", gen_lollipop(4)),
    ]
