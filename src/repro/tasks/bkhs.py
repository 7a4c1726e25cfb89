"""Batch k-Hop Search (BKHS).

Given a source set ``S`` and constant ``k``, BKHS collects, for each
``s ∈ S``, the vertices within ``k`` hops (Section 2.3). The Pregel
implementation mirrors MSSP but "the program stops after k + 1
communication rounds" (Section 3): rounds 1..k expand the BFS frontier
and round ``k + 1`` is the terminating round in which every vertex votes
to halt. Workload is the number of sources; large workloads are sampled
and scaled like MSSP. The searches of a batch run bit-parallel on
per-vertex source bitsets (:class:`repro.tasks.base.BitFrontier`).
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

#: Bytes for one source's k-hop statistic (the collected output).
RESIDUAL_RECORD_BYTES = 16.0

#: Bytes per (source, vertex) visited marker held during the batch.
VISITED_ENTRY_BYTES = 4.0


class BKHSKernel(TaskKernel):
    """One batch of k-hop searches from sampled sources."""

    def __init__(
        self,
        graph: Graph,
        router: MessageRouter,
        rng: np.random.Generator,
        k: int = 2,
        sample_limit: Optional[int] = 64,
    ) -> None:
        super().__init__(graph, router)
        if k < 1:
            raise TaskError("k must be at least 1")
        self.k = int(k)
        self.rng = rng
        self.sample_limit = sample_limit

    def _initialise(self, workload: float) -> None:
        sampled = choose_sources(
            self.graph, workload, self.sample_limit, self.rng
        )
        self._sources = sampled.sources
        self._scale = sampled.scale_factor
        self._bits = BitFrontier(self.graph, self._sources)

    def _advance(self) -> RoundSummary:
        if self._round > self.k:
            # Round k + 1: receive-only termination round, no messages.
            routed = self.route_emissions(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
            return RoundSummary(
                routed=routed,
                compute_ops=float(self.graph.num_vertices),
                task_state_bytes=self._state_bytes(),
                active_vertices=0.0,
                done=True,
            )
        # Rounds 1..k: one BFS level for every source
        # (:meth:`BitFrontier.advance`); what the round sent is the
        # frontier it started with.
        bits = self._bits
        verts, updates = bits.verts, bits.counts
        bits.advance(self)
        return self.frontier_summary(
            verts, updates, self._scale, self._state_bytes(), done=False
        )

    def _state_bytes(self) -> float:
        return float(self._bits.reached) * VISITED_ENTRY_BYTES * self._scale

    def residual_bytes(self) -> float:
        """Only the per-source statistics survive the batch."""
        return self._sources.size * RESIDUAL_RECORD_BYTES * self._scale

    def frontier_keys(self) -> np.ndarray:
        """The (source, vertex) pairs first reached last round, as flat
        ``source_row * n + vertex`` keys in row-major order."""
        return self._bits.frontier_keys()

    def reached_table(self) -> np.ndarray:
        """The ``sources x n`` boolean reachability table so far, row
        ``i`` for the batch's ``i``-th source; a copy."""
        return self._bits.source_bits(self._bits.visited).T.copy()

    @property
    def result(self) -> dict:
        """Map ``source id -> number of vertices within k hops`` (incl. s)."""
        counts = self.reached_table().sum(axis=1)
        return {
            int(s): int(counts[i]) for i, s in enumerate(self._sources)
        }

    def reachable_sets(self) -> dict:
        """Map ``source id -> boolean reachability mask`` (for tests)."""
        table = self.reached_table()
        return {int(s): table[i] for i, s in enumerate(self._sources)}


def bkhs_task(
    graph: Graph,
    workload: float,
    k: int = 2,
    sample_limit: Optional[int] = 64,
) -> TaskSpec:
    """Build the BKHS :class:`TaskSpec` (workload = number of sources)."""

    def factory(g, router, batch_workload, rng):
        return BKHSKernel(g, router, rng, k=k, sample_limit=sample_limit)

    return TaskSpec(
        name="bkhs",
        graph=graph,
        workload=workload,
        kernel_factory=factory,
        params={"k": k, "sample_limit": sample_limit},
        message_bytes=12.0,
        residual_record_bytes=RESIDUAL_RECORD_BYTES,
    )
