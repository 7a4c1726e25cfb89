"""Multi-Source Shortest Path distance queries (MSSP).

Section 3's Pregel MSSP: messages ``(u, v, d)`` assert a length-``d``
path from source ``u`` to ``v``; per round, a vertex keeps the minimum
per source and relaxes its out-edges. The kernel executes exactly that —
a synchronous multi-source Bellman-Ford — fully vectorised over the
(source, vertex) frontier. On the unweighted graphs the kernel accepts
that is one BFS per source, and all of them run bit-parallel on
per-vertex source bitsets (:class:`repro.tasks.base.BitFrontier`): a
distance is the round in which the source's bit first reaches the
vertex. Weighted shortest paths are the oracles' alone
(:func:`repro.tasks.exact.dijkstra_distances` and the reference
engine's :class:`repro.tasks.vc_programs.MSSPProgram`). Under the
mirror/broadcast interface the per-neighbour message collapses to one
``(u, d)`` broadcast block per updated (source, vertex) pair, which
:meth:`route_emissions` handles.

Workload is the *number of source nodes* (the paper's MSSP unit). For
large workloads, ``sample_limit`` caps how many distinct sources are
simulated and scales all counts — see
:func:`repro.tasks.base.choose_sources`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import TaskError
from repro.graph.csr import Graph
from repro.messages.routing import MessageRouter
from repro.tasks.base import (
    BitFrontier,
    RoundSummary,
    TaskKernel,
    TaskSpec,
    choose_sources,
)

#: Bytes to keep one (source, vertex) final distance.
RESIDUAL_RECORD_BYTES = 8.0

#: Bytes per in-flight frontier entry ((source, vertex, distance) triple).
FRONTIER_ENTRY_BYTES = 12.0


def _require_unweighted(graph: Graph) -> None:
    if graph.weights is not None:
        raise TaskError(
            "MSSP kernels run on unweighted graphs only; weighted shortest "
            "paths are computed by repro.tasks.exact.dijkstra_distances "
            "and the reference engine's MSSPProgram"
        )


class MSSPKernel(TaskKernel):
    """One batch of single-source shortest-path queries."""

    def __init__(
        self,
        graph: Graph,
        router: MessageRouter,
        rng: np.random.Generator,
        sample_limit: Optional[int] = 64,
        max_rounds: int = 100_000,
    ) -> None:
        _require_unweighted(graph)
        super().__init__(graph, router)
        self.rng = rng
        self.sample_limit = sample_limit
        self.max_rounds = int(max_rounds)

    def _initialise(self, workload: float) -> None:
        sampled = choose_sources(
            self.graph, workload, self.sample_limit, self.rng
        )
        self._sources = sampled.sources
        self._scale = sampled.scale_factor
        self._frontier_cells = self._sources.size
        self._bits = BitFrontier(self.graph, self._sources)
        # Level sets ``(verts, new word rows)``, one per round: the
        # distance table, decoded only when it is read.
        self._levels = [(self._bits.verts, self._bits.words)]

    def _advance(self) -> RoundSummary:
        """One BFS level for every source (:meth:`BitFrontier.advance`);
        what the round sent is the frontier it started with."""
        bits = self._bits
        verts, updates = bits.verts, bits.counts
        if not bits.advance(self):
            # No frontier vertex had an out-arc: a silent terminating
            # round, priced with the frontier it could not expand.
            return self._summary_for(verts[:0], updates[:0], done=True)
        self._levels.append((bits.verts, bits.words))
        self._frontier_cells = bits.frontier_cells
        done = bits.frontier_cells == 0 or self._round >= self.max_rounds
        return self._summary_for(verts, updates, done)

    def _summary_for(
        self, verts: np.ndarray, updates: np.ndarray, done: bool
    ) -> RoundSummary:
        """Emission accounting for *this* round's sends (``verts[i]``
        relays ``updates[i]`` sources' improved distances)."""
        return self.frontier_summary(
            verts, updates, self._scale, self._state_bytes(), done
        )

    def _reached_cells(self) -> float:
        """Finite cells of the distance table (a running popcount)."""
        return float(self._bits.reached)

    def _state_bytes(self) -> float:
        """In-flight distance table + frontier for the whole batch."""
        return (
            self._reached_cells() * FRONTIER_ENTRY_BYTES
            + float(self._frontier_cells) * FRONTIER_ENTRY_BYTES
        ) * self._scale

    def residual_bytes(self) -> float:
        """Final distances stay resident per machine until the job ends."""
        return self._reached_cells() * RESIDUAL_RECORD_BYTES * self._scale

    def frontier_keys(self) -> np.ndarray:
        """The (source, vertex) pairs improved last round, as flat
        ``source_row * n + vertex`` keys in row-major order."""
        return self._bits.frontier_keys()

    def reached_table(self) -> np.ndarray:
        """The ``sources x n`` distance table so far (``inf`` where
        unreached), row ``i`` for the batch's ``i``-th source; a copy."""
        table = np.full(
            (self._sources.size, self.graph.num_vertices), np.inf
        )
        for level, (verts, words) in enumerate(self._levels):
            table[self._bits.cells(verts, words)] = level
        return table

    @property
    def result(self) -> dict:
        """Map ``source id -> distance vector`` for simulated sources."""
        table = self.reached_table()
        return {int(s): table[i] for i, s in enumerate(self._sources)}


def mssp_task(
    graph: Graph,
    workload: float,
    sample_limit: Optional[int] = 64,
    max_rounds: int = 100_000,
) -> TaskSpec:
    """Build the MSSP :class:`TaskSpec` (workload = number of sources);
    a weighted ``graph`` raises :class:`TaskError`."""
    _require_unweighted(graph)

    def factory(g, router, batch_workload, rng):
        return MSSPKernel(
            g,
            router,
            rng,
            sample_limit=sample_limit,
            max_rounds=max_rounds,
        )

    return TaskSpec(
        name="mssp",
        graph=graph,
        workload=workload,
        kernel_factory=factory,
        params={"sample_limit": sample_limit, "max_rounds": max_rounds},
        message_bytes=20.0,
        residual_record_bytes=RESIDUAL_RECORD_BYTES,
    )
