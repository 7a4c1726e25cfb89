"""True vertex-centric programs for the reference Pregel engine.

These are direct transcriptions of Section 3's algorithm descriptions
into the :class:`~repro.engines.reference.VertexProgram` API. They run
on :class:`~repro.engines.reference.LocalPregelEngine` and exist to
(a) demonstrate the honest programming model and (b) cross-validate the
vectorised kernels in the test-suite.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.engines.reference import VertexContext, VertexProgram
from repro.graph.csr import Graph
from repro.rng import make_rng


class SSSPProgram(VertexProgram):
    """Single-source shortest paths (the MSSP unit task).

    Vertex value = current best distance. Messages carry candidate
    distances; the ``min`` combiner implements Section 3's in-round
    aggregation ("only the message with the smallest length is
    retained").
    """

    combiner = staticmethod(min)

    def __init__(self, source: int) -> None:
        self.source = source

    def initial_value(self, vertex_id: int, graph: Graph) -> float:
        return 0.0 if vertex_id == self.source else math.inf

    def compute(self, ctx: VertexContext, messages: List[float]) -> None:
        best = min(messages) if messages else math.inf
        if ctx.superstep == 0 and ctx.vertex_id == self.source:
            best = 0.0
        if best < ctx.value:
            ctx.value = best
        elif ctx.superstep > 0:
            ctx.vote_to_halt()
            return
        if math.isfinite(ctx.value):
            for target in ctx.neighbors():
                ctx.send(int(target), ctx.value + 1)
        ctx.vote_to_halt()


class MSSPProgram(VertexProgram):
    """Multi-source shortest paths: vertex value maps source → distance.

    Messages are ``(source, distance)`` pairs; the combiner is not used
    because minima must be kept *per source* — compute() aggregates.
    """

    def __init__(self, sources: List[int]) -> None:
        self.sources = list(sources)

    def initial_value(self, vertex_id: int, graph: Graph) -> Dict[int, float]:
        return {s: 0.0 for s in self.sources if s == vertex_id}

    def compute(
        self, ctx: VertexContext, messages: List[tuple]
    ) -> None:
        improved: Dict[int, float] = {}
        if ctx.superstep == 0 and ctx.vertex_id in ctx.value:
            improved = dict(ctx.value)
        for source, distance in messages:
            current = ctx.value.get(source, math.inf)
            if distance < current:
                ctx.value[source] = distance
                prior = improved.get(source, math.inf)
                improved[source] = min(prior, distance)
        for source, distance in improved.items():
            for target in ctx.neighbors():
                ctx.send(int(target), (source, distance + 1))
        ctx.vote_to_halt()


class KHopProgram(VertexProgram):
    """Batch k-hop search: vertex value = set of sources that reach it.

    The program self-terminates after ``k + 1`` supersteps as Section 3
    prescribes.
    """

    def __init__(self, sources: List[int], k: int) -> None:
        self.sources = set(int(s) for s in sources)
        self.k = int(k)

    def initial_value(self, vertex_id: int, graph: Graph) -> set:
        return {vertex_id} if vertex_id in self.sources else set()

    def compute(self, ctx: VertexContext, messages: List[int]) -> None:
        if ctx.superstep > self.k:
            ctx.vote_to_halt()
            return
        fresh = set()
        if ctx.superstep == 0:
            fresh = set(ctx.value)
        for source in messages:
            if source not in ctx.value:
                ctx.value.add(source)
                fresh.add(source)
        if ctx.superstep < self.k:
            for source in fresh:
                ctx.send_to_neighbors(source)
        ctx.vote_to_halt()


class RandomWalkPPRProgram(VertexProgram):
    """Monte-Carlo BPPR unit module: W α-decay walks from every vertex.

    Vertex value = dict ``source -> stop count`` of walks that stopped
    here. Messages carry walk source ids, one message per in-flight
    walk, exactly as Section 3's Pregel BPPR ("a message, which contains
    the source node ID of the walk, is sent to that selected neighbor").
    """

    def __init__(
        self, walks_per_node: int, alpha: float = 0.15, seed: int = 0
    ) -> None:
        self.walks_per_node = int(walks_per_node)
        self.alpha = float(alpha)
        self.rng = make_rng(seed, label="reference-bppr")

    def initial_value(self, vertex_id: int, graph: Graph) -> Dict[int, int]:
        return {}

    def _step_walks(self, ctx: VertexContext, walk_sources: List[int]) -> None:
        neighbors = ctx.neighbors()
        for source in walk_sources:
            if neighbors.size == 0 or self.rng.random() < self.alpha:
                ctx.value[source] = ctx.value.get(source, 0) + 1
            else:
                target = int(neighbors[self.rng.integers(neighbors.size)])
                ctx.send(target, source)

    def compute(self, ctx: VertexContext, messages: List[int]) -> None:
        if ctx.superstep == 0:
            self._step_walks(
                ctx, [ctx.vertex_id] * self.walks_per_node
            )
        else:
            self._step_walks(ctx, messages)
        ctx.vote_to_halt()


class PageRankProgram(VertexProgram):
    """Classic PageRank for a fixed number of supersteps (Table 4 task)."""

    def __init__(self, damping: float = 0.85, iterations: int = 30) -> None:
        self.damping = float(damping)
        self.iterations = int(iterations)

    combiner = staticmethod(lambda a, b: a + b)

    def initial_value(self, vertex_id: int, graph: Graph) -> float:
        return 1.0 / graph.num_vertices

    def compute(self, ctx: VertexContext, messages: List[float]) -> None:
        n = ctx.graph.num_vertices
        if ctx.superstep > 0:
            incoming = sum(messages)
            ctx.value = (1.0 - self.damping) / n + self.damping * incoming
        if ctx.superstep < self.iterations:
            neighbors = ctx.neighbors()
            if neighbors.size:
                share = ctx.value / neighbors.size
                ctx.send_to_neighbors(share)
        else:
            ctx.vote_to_halt()


def ppr_estimates_from_values(
    values: List[Dict[int, int]], graph: Graph, walks_per_node: int
) -> np.ndarray:
    """Assemble the PPR estimate matrix from RandomWalkPPRProgram output.

    ``values[v]`` holds, per source, how many walks stopped at ``v``;
    the estimate for ``PPR(s, v)`` is that count over ``W``.
    """
    n = graph.num_vertices
    estimates = np.zeros((n, n), dtype=np.float64)
    for stop_vertex, counts in enumerate(values):
        for source, count in counts.items():
            estimates[source, stop_vertex] = count / walks_per_node
    return estimates
