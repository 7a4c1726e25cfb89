"""Exact reference computations used to validate the task kernels.

These are straightforward single-machine algorithms — no simulation, no
engines — used by the test-suite and examples to check that the
vertex-centric kernels compute the right answers:

* :func:`exact_ppr` — personalized PageRank by dense power iteration
  under the α-decay random-walk semantics (walks absorb at danglings).
* :func:`bfs_distances` — single-source hop distances.
* :func:`k_hop_set` — brute-force k-hop reachability.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import TaskError
from repro.graph.csr import Graph, propagate_mass


def exact_ppr(
    graph: Graph,
    source: int,
    alpha: float = 0.15,
    tolerance: float = 1e-12,
    max_iterations: int = 10_000,
) -> np.ndarray:
    """Exact PPR(source, ·) under the paper's walk semantics.

    A walk at vertex ``v`` stops with probability α (or with certainty
    when ``v`` is dangling) and otherwise moves to a uniform
    out-neighbour. ``PPR(s, u)`` is the probability the walk stops at
    ``u``. Computed by propagating probability mass until the in-flight
    residue falls below ``tolerance``.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise TaskError(f"source {source} out of range")
    degrees = np.diff(graph.indptr).astype(np.float64)
    dangling = degrees == 0

    mass = np.zeros(n, dtype=np.float64)
    mass[source] = 1.0
    stopped = np.zeros(n, dtype=np.float64)
    for _ in range(max_iterations):
        stop_fraction = np.where(dangling, 1.0, alpha)
        stopped += mass * stop_fraction
        moving = mass * (1.0 - stop_fraction)
        share = np.divide(
            moving, degrees, out=np.zeros_like(moving), where=degrees > 0
        )
        mass = propagate_mass(graph, share)
        if mass.sum() < tolerance:
            break
    stopped += mass  # attribute any tail to its current location
    return stopped


def exact_ppr_matrix(
    graph: Graph, alpha: float = 0.15, tolerance: float = 1e-12
) -> np.ndarray:
    """All-pairs PPR matrix (row s = PPR(s, ·)); small graphs only."""
    if graph.num_vertices > 4096:
        raise TaskError("exact_ppr_matrix is meant for small graphs")
    return np.stack(
        [
            exact_ppr(graph, s, alpha=alpha, tolerance=tolerance)
            for s in range(graph.num_vertices)
        ]
    )


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` (inf where unreachable)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise TaskError(f"source {source} out of range")
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for v in frontier:
            for u in graph.neighbors(v):
                if dist[u] == np.inf:
                    dist[u] = level
                    next_frontier.append(int(u))
        frontier = next_frontier
    return dist


def shortest_path_distances(graph: Graph, source: int) -> np.ndarray:
    """Shortest-path distances from ``source``: every arc is one hop,
    so :func:`bfs_distances`."""
    return bfs_distances(graph, source)


def k_hop_set(graph: Graph, source: int, k: int) -> np.ndarray:
    """Boolean mask of vertices within ``k`` hops of ``source``."""
    dist = bfs_distances(graph, source)
    return dist <= k


def exact_pagerank(
    graph: Graph,
    damping: float = 0.85,
    tolerance: float = 1e-12,
    max_iterations: int = 10_000,
) -> np.ndarray:
    """Reference PageRank with uniform teleport and dangling smoothing."""
    n = graph.num_vertices
    degrees = np.diff(graph.indptr).astype(np.float64)
    dangling = degrees == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        share = np.divide(
            rank, degrees, out=np.zeros_like(rank), where=degrees > 0
        )
        incoming = propagate_mass(graph, share)
        dangling_mass = float(rank[dangling].sum())
        new_rank = (1.0 - damping) / n + damping * (
            incoming + dangling_mass / n
        )
        if np.abs(new_rank - rank).sum() < tolerance:
            rank = new_rank
            break
        rank = new_rank
    return rank


def optional_networkx_graph(graph: Graph):
    """Convert to a networkx DiGraph when networkx is available, else None.

    Tests prefer cross-validating against networkx; this helper keeps
    the hard dependency out of the library itself.
    """
    try:
        import networkx as nx
    except ImportError:  # pragma: no cover - depends on environment
        return None
    g: "Optional[object]" = nx.DiGraph()
    for v in range(graph.num_vertices):
        g.add_node(v)
    g.add_edges_from(graph.iter_edges())
    return g
