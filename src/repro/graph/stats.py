"""Descriptive graph statistics used in reports and sanity tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import Graph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics in the style of the paper's Table 1."""

    name: str
    num_vertices: int
    num_arcs: int
    avg_degree: float
    max_degree: int
    median_degree: float
    degree_p99: float
    isolated_vertices: int
    gini_degree: float

    def as_row(self) -> dict:
        """Dictionary form, convenient for tabular reports."""
        return {
            "name": self.name,
            "n": self.num_vertices,
            "arcs": self.num_arcs,
            "d_avg": round(self.avg_degree, 2),
            "d_max": self.max_degree,
            "d_median": self.median_degree,
            "d_p99": self.degree_p99,
            "isolated": self.isolated_vertices,
            "gini": round(self.gini_degree, 3),
        }


def degree_gini(degrees: np.ndarray) -> float:
    """Gini coefficient of the degree distribution (0 = uniform).

    Used as a scalar skew measure when checking that synthetic dataset
    stand-ins reproduce the hub structure mirroring depends on.
    """
    if degrees.size == 0:
        return 0.0
    sorted_deg = np.sort(degrees.astype(np.float64))
    total = sorted_deg.sum()
    if total == 0:
        return 0.0
    n = sorted_deg.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * sorted_deg).sum()) / (n * total) - (n + 1) / n)


def compute_stats(graph: Graph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    degrees = np.diff(graph.indptr)
    if degrees.size == 0:
        return GraphStats(graph.name, 0, 0, 0.0, 0, 0.0, 0.0, 0, 0.0)
    return GraphStats(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_arcs=graph.num_arcs,
        avg_degree=graph.average_degree,
        max_degree=int(degrees.max()),
        median_degree=float(np.median(degrees)),
        degree_p99=float(np.percentile(degrees, 99)),
        isolated_vertices=int(np.count_nonzero(degrees == 0)),
        gini_degree=degree_gini(degrees),
    )
