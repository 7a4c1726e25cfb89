"""Correctness gate: the three task kernels against exact oracles.

Runs before any number is printed. A seeded 2 000-vertex Chung-Lu graph
is small enough for brute-force answers and large enough that every
kernel takes several rounds:

* MSSP distances equal ``tasks.exact.shortest_path_distances``;
* BKHS reachable sets and counts equal ``tasks.exact.k_hop_set``;
* BPPR's aggregate stop distribution (the production, untracked kernel)
  equals alpha-decay mass propagation from the uniform start. That
  oracle is a plain ``np.add.at`` loop sharing no code with
  ``graph.csr``; it is itself checked against ``tasks.exact.exact_ppr``
  on single sources, and the aggregate follows by linearity.

Tolerances: exact equality for MSSP/BKHS as in the tier-1 tests; BPPR
``atol`` 5e-6 on entries of order 5e-4 (tier-1 uses 5e-4 on a 60-vertex
graph), which the kernel's tail fast-forward meets with a decade spare.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graph.generators import chung_lu
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import hash_partition
from repro.messages.routing import PointToPointRouter
from repro.rng import make_rng
from repro.tasks import exact
from repro.tasks.bkhs import BKHSKernel
from repro.tasks.bppr import BPPRKernel
from repro.tasks.mssp import MSSPKernel

CHECK_VERTICES = 2000
CHECK_SOURCES = 8
ALPHA = 0.15
BPPR_ATOL = 5e-6


def _finish(kernel, workload: float):
    kernel.start_batch(workload)
    for _ in range(100_000):
        if kernel.step().done:
            return kernel
    raise AssertionError(f"{type(kernel).__name__} did not terminate")


def _propagate(graph, mass: np.ndarray) -> np.ndarray:
    """Stop distribution of alpha-decay walks started with ``mass``."""
    degrees = np.diff(graph.indptr).astype(np.float64)
    stop = np.where(degrees == 0, 1.0, ALPHA)
    tails = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    stopped = np.zeros_like(mass)
    for _ in range(10_000):
        stopped += mass * stop
        share = np.divide(mass * (1.0 - stop), degrees,
                          out=np.zeros_like(mass), where=degrees > 0)
        mass = np.zeros_like(mass)
        np.add.at(mass, graph.indices, share[tails])
        if mass.sum() < 1e-12:
            break
    return stopped + mass


def kernel_gate(seed: int) -> List[str]:
    """Problems found (empty when every kernel matches its oracle)."""
    problems: List[str] = []
    graph = chung_lu(CHECK_VERTICES, avg_degree=8.0, seed=seed)
    router = PointToPointRouter(graph, build_mirror_plan(graph, hash_partition(graph, 4)))
    n = graph.num_vertices

    mssp = _finish(MSSPKernel(graph, router, make_rng(seed), sample_limit=None), CHECK_SOURCES)
    for source, dist in mssp.result.items():
        if not np.array_equal(dist, exact.shortest_path_distances(graph, source)):
            problems.append(f"MSSP distances from {source} differ from the exact solver")

    bkhs = _finish(BKHSKernel(graph, router, make_rng(seed), k=2, sample_limit=None), CHECK_SOURCES)
    counts = bkhs.result
    for source, reached in bkhs.reachable_sets().items():
        truth = exact.k_hop_set(graph, source, 2)
        if not np.array_equal(reached, truth) or counts[source] != int(truth.sum()):
            problems.append(f"BKHS 2-hop set of {source} differs from brute force")

    for source in (0, n // 3, n - 1):
        unit = np.zeros(n)
        unit[source] = 1.0
        if not np.allclose(_propagate(graph, unit), exact.exact_ppr(graph, source, alpha=ALPHA),
                           rtol=0, atol=1e-12):
            problems.append(f"BPPR oracle disagrees with exact_ppr at {source}")
    bppr = _finish(BPPRKernel(graph, router, make_rng(seed), alpha=ALPHA), 64.0)
    error = float(np.abs(bppr.result - _propagate(graph, np.full(n, 1.0 / n))).max())
    if not error <= BPPR_ATOL:
        problems.append(f"BPPR aggregate off by {error:.3g} (> {BPPR_ATOL:g})")
    return problems
