"""Batch k-Hop Search (BKHS).

Given a source set ``S`` and constant ``k``, BKHS collects, for each
``s ∈ S``, the vertices within ``k`` hops (Section 2.3). The Pregel
implementation mirrors MSSP but "the program stops after k + 1
communication rounds" (Section 3): rounds 1..k expand the BFS frontier
and round ``k + 1`` is the terminating round in which every vertex votes
to halt. Workload is the number of sources; large workloads are sampled
and scaled like MSSP.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from repro.errors import TaskError
from repro.graph.arena import ScratchArena
from repro.graph.csr import (
    Graph,
    dedup_pairs,
    dedup_pairs_dense,
    expand_frontier,
    merge_winner_keys,
    use_dense_cells,
)
from repro.messages.routing import MessageRouter
from repro.perf import timings
from repro.tasks.base import (
    RoundSummary,
    TaskKernel,
    TaskSpec,
    alloc_state_matrix,
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
        self._degrees = graph.degrees

    def _initialise(self, workload: float) -> None:
        sampled = choose_sources(
            self.graph, workload, self.sample_limit, self.rng
        )
        self._sources = sampled.sources
        self._scale = sampled.scale_factor
        n = self.graph.num_vertices
        s = self._sources.size
        self._visited = alloc_state_matrix((s, n), bool)
        self._visited[np.arange(s), self._sources] = True
        self._pair_mask = alloc_state_matrix((s, n), bool)
        self._frontier_rows = np.arange(s, dtype=np.int64)
        self._frontier_verts = self._sources.copy()

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

        # Rounds 1..k: :meth:`_expand_block` over the round's block plan.
        # Byte-identical however the frontier is cut (``DESIGN.md`` §8):
        # exclusive blocks mark ``_visited`` as they go, read-only ones
        # are fresh-versus-round-start and *can* win a cell twice, so
        # the merge de-duplicates before the cells are marked once,
        # here. Either way the union is the one-block fresh set.
        n = np.int64(self.graph.num_vertices)
        rows, verts = self._frontier_rows, self._frontier_verts
        results, exclusive = self.run_blocks(self._expand_block, verts, rows)
        tick = perf_counter()
        keys = merge_winner_keys([k for k in results if k is not None])
        if not exclusive:
            self._visited.reshape(-1)[keys] = True
        self._frontier_rows, self._frontier_verts = np.divmod(keys, n)
        timings.add("kernel.frontier", perf_counter() - tick)
        return self._expand_summary(verts)

    def _expand_block(
        self,
        verts: np.ndarray,
        rows: np.ndarray,
        arena: ScratchArena,
        exclusive: bool,
    ) -> Optional[np.ndarray]:
        """Expand one frontier slice to the cells it newly reaches.

        Returns ``None`` when the slice has no out-arc, else the flat
        ``row * n + vertex`` keys of its not-yet-visited targets,
        row-major, in an array the block owns. An *exclusive* block has
        marked them visited and timed itself; a read-only one touches
        only its slice, its arena and read-only shared state (two
        concurrent blocks reaching one cell would race on the mark).
        """
        graph = self.graph
        n = graph.num_vertices
        tick = perf_counter()
        arc_pos, counts, kept = expand_frontier(graph, verts, arena)
        if arc_pos.size == 0:
            if exclusive:
                timings.add("kernel.expand", perf_counter() - tick)
            return None
        if kept is not None:
            rows = rows[kept]
        nbr = np.take(graph.indices, arc_pos, out=arena.take(arc_pos.size))
        msg_rows = np.repeat(rows, counts)
        if exclusive:
            tock = perf_counter()
            timings.add("kernel.expand", tock - tick)
        # Deduplicate the touched (source, target) cells first, then
        # probe the visited table only at the unique cells (the
        # candidate list repeats each cell once per in-arc). Strategy
        # choice shares the measured crossover with the segment
        # reductions (:func:`use_dense_cells`); the dense variant
        # scribbles on the shared pair mask, so it needs exclusivity.
        if exclusive and use_dense_cells(msg_rows.size, self._pair_mask.size):
            cell_rows, cell_verts = dedup_pairs_dense(
                msg_rows, nbr, self._pair_mask, arena
            )
        else:
            cell_rows, cell_verts = dedup_pairs(msg_rows, nbr, n, arena)
        if exclusive:
            tick = perf_counter()
            timings.add("kernel.dedup", tick - tock)
        # No arena buffer: the keys outlive later blocks' arena rounds.
        keys = cell_rows * np.int64(n) + cell_verts
        visited = self._visited.reshape(-1)
        fresh = ~visited[keys]
        if not fresh.all():
            keys = keys[fresh]
        if exclusive:
            visited[keys] = True
            timings.add("kernel.frontier", perf_counter() - tick)
        return keys

    def _expand_summary(self, verts: np.ndarray) -> RoundSummary:
        """Emission accounting of an expansion round (``verts`` is the
        round's sending frontier)."""
        updates_per_vertex = np.bincount(
            verts, minlength=self.graph.num_vertices
        ).astype(np.float64)
        active = np.flatnonzero(updates_per_vertex > 0)
        blocks = updates_per_vertex[active] * self._scale
        point = (
            updates_per_vertex[active]
            * self._degrees[active].astype(np.float64)
            * self._scale
        )
        routed = self.route_emissions(active, blocks, point)
        return RoundSummary(
            routed=routed,
            compute_ops=routed.delivered_messages + active.size * self._scale,
            task_state_bytes=self._state_bytes(),
            active_vertices=float(active.size) * self._scale,
            done=False,
            combined_messages=routed.wire_messages,
        )

    def _state_bytes(self) -> float:
        return (
            float(self._visited.sum()) * VISITED_ENTRY_BYTES * self._scale
        )

    def residual_bytes(self) -> float:
        """Only the per-source statistics survive the batch."""
        return self._sources.size * RESIDUAL_RECORD_BYTES * self._scale

    @property
    def result(self) -> dict:
        """Map ``source id -> number of vertices within k hops`` (incl. s)."""
        counts = self._visited.sum(axis=1)
        return {
            int(s): int(counts[i]) for i, s in enumerate(self._sources)
        }

    def reachable_sets(self) -> dict:
        """Map ``source id -> boolean reachability mask`` (for tests)."""
        return {
            int(s): self._visited[i].copy()
            for i, s in enumerate(self._sources)
        }


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
