"""Multi-Source Shortest Path distance queries (MSSP).

Section 3's Pregel MSSP: messages ``(u, v, d)`` assert a length-``d``
path from source ``u`` to ``v``; per round, a vertex keeps the minimum
per source and relaxes its out-edges. The kernel executes exactly that —
a synchronous multi-source Bellman-Ford — fully vectorised over the
(source, vertex) frontier. On an unweighted graph that is one BFS per
source, and all of them run bit-parallel on per-vertex source bitsets
(:class:`repro.tasks.base.BitFrontier`): a distance is the round in
which the source's bit first reaches the vertex. Under the
mirror/broadcast interface the per-neighbour message collapses to one
``(u, d)`` broadcast block per updated (source, vertex) pair, which
:meth:`route_emissions` handles.

Workload is the *number of source nodes* (the paper's MSSP unit). For
large workloads, ``sample_limit`` caps how many distinct sources are
simulated and scales all counts — see
:func:`repro.tasks.base.choose_sources`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.graph.arena import ScratchArena
from repro.graph.csr import (
    Graph,
    expand_frontier,
    merge_winner_keys,
    scatter_min_dense,
    segment_min,
    use_dense_cells,
)
from repro.messages.routing import MessageRouter
from repro.perf import timings
from repro.tasks.base import (
    BitFrontier,
    RoundSummary,
    TaskKernel,
    TaskSpec,
    alloc_state_matrix,
    choose_sources,
)

#: Bytes to keep one (source, vertex) final distance.
RESIDUAL_RECORD_BYTES = 8.0

#: Bytes per in-flight frontier entry ((source, vertex, distance) triple).
FRONTIER_ENTRY_BYTES = 12.0


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
        s = self._sources.size
        self._frontier_cells = s
        self._bits = (
            BitFrontier(self.graph, self._sources)
            if self.graph.weights is None
            else None
        )
        if self._bits is not None:
            # Level sets ``(verts, new word rows)``, one per round: the
            # distance table, decoded only when it is read.
            self._levels = [(self._bits.verts, self._bits.words)]
            return
        n = self.graph.num_vertices
        self._dist = alloc_state_matrix((s, n), np.float64, np.inf)
        self._dist[np.arange(s), self._sources] = 0.0
        self._pair_mask = alloc_state_matrix((s, n), bool)
        # Frontier: (source-row, vertex) pairs improved last round.
        self._frontier_rows = np.arange(s, dtype=np.int64)
        self._frontier_verts = self._sources.copy()
        self._reached_round = -1

    def _advance(self) -> RoundSummary:
        if self._bits is not None:
            return self._advance_unweighted()
        return self._advance_weighted()

    def _advance_unweighted(self) -> RoundSummary:
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

    def _advance_weighted(self) -> RoundSummary:
        """One relaxation round: :meth:`_relax_block` over the round's
        block plan, read-only blocks' minima folded, winner keys merged
        into the next frontier.

        Bit-identical however the frontier is cut (``DESIGN.md`` §8):
        every block relaxes from the round-start snapshot, ``min`` is
        order-independent and exact, a cell improves against a running
        minimum iff it improves against the round-start value, and the
        key merge restores row-major frontier order.
        """
        n = np.int64(self.graph.num_vertices)
        rows, verts = self._frontier_rows, self._frontier_verts
        tick = perf_counter()
        # Snapshot before any scatter: block K's writes must not feed
        # block J's candidates (one block reads every candidate before
        # it writes).
        source_dist = self._dist[rows, verts]
        timings.add("kernel.expand", perf_counter() - tick)
        results, exclusive = self.run_blocks(
            self._relax_block, verts, rows, source_dist
        )
        results = [res for res in results if res is not None]
        if not results:  # no frontier entry had an out-arc
            return self._summary_for(verts[:0], verts[:0], done=True)
        tick = perf_counter()
        if not exclusive:
            # Read-only blocks can win the same cell with different
            # minima; folding with ``np.minimum`` in block order is
            # order-independent and lands the global per-cell minimum.
            flat_dist = self._dist.reshape(-1)
            for keys, best in results:
                flat_dist[keys] = np.minimum(flat_dist[keys], best)
            timings.add("kernel.reduce", perf_counter() - tick)
            tick = perf_counter()
        keys = merge_winner_keys([keys for keys, _ in results])
        self._frontier_rows, self._frontier_verts = np.divmod(keys, n)
        self._frontier_cells = keys.size
        done = keys.size == 0 or self._round >= self.max_rounds
        timings.add("kernel.frontier", perf_counter() - tick)
        updates = np.bincount(verts, minlength=self.graph.num_vertices)
        active = np.flatnonzero(updates)
        return self._summary_for(active, updates[active], done)

    def _relax_block(
        self,
        verts: np.ndarray,
        rows: np.ndarray,
        dist: np.ndarray,
        arena: ScratchArena,
        exclusive: bool,
    ) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Relax the out-arcs of one frontier slice (``dist`` is the
        slice of the round-start snapshot).

        Returns ``None`` when the slice has no out-arc, else ``(keys,
        minima)``: the flat ``row * n + vertex`` keys of the cells this
        block improved, row-major, in arrays the block owns. An
        *exclusive* block has written the improvements into ``_dist``
        (``minima`` is ``None``) and timed itself; a read-only one
        touches only its slice, its arena and read-only shared state,
        and hands the ``minima`` back for the parent to fold.
        """
        graph = self.graph
        n = graph.num_vertices
        tick = perf_counter()
        # Expand every frontier pair to all out-neighbours (shared CSR
        # gather, arena buffers reused across blocks and rounds).
        arc_pos, counts, kept = expand_frontier(graph, verts, arena)
        if arc_pos.size == 0:
            if exclusive:
                timings.add("kernel.expand", perf_counter() - tick)
            return None
        if kept is not None:
            rows, dist = rows[kept], dist[kept]
        nbr = np.take(
            graph.indices, arc_pos, out=arena.take(arc_pos.size), mode="clip"
        )
        msg_rows = np.repeat(rows, counts)
        cand = np.repeat(dist, counts)
        weights = arena.take(arc_pos.size, np.float64)
        cand += np.take(graph.weights, arc_pos, out=weights, mode="clip")
        if exclusive:
            tock = perf_counter()
            timings.add("kernel.expand", tock - tick)
        # In-block aggregation: keep the minimum per (source, target)
        # cell. The strategy pivots on the shared measured crossover
        # (:func:`use_dense_cells`): big frontiers amortise the fused
        # flat-key scatter straight into the distance matrix, sparse
        # ones win with the sort-based segment reduction. Both emit
        # cells in row-major order and both produce bit-identical
        # distance tables (min is order-independent). The dense scatter
        # writes ``_dist`` and scribbles on the shared pair mask, so it
        # needs exclusivity.
        if exclusive and use_dense_cells(msg_rows.size, self._pair_mask.size):
            cells, before, best = scatter_min_dense(
                msg_rows, nbr, cand, self._dist, self._pair_mask, arena
            )
            improved = best < before
            # The scatter already wrote the minima in place; ``cells``
            # is no arena buffer, so the keys survive later blocks.
            keys = cells if improved.all() else cells[improved]
            minima = None
        else:
            cell_rows, cell_verts, best = segment_min(
                msg_rows, nbr, cand, n, arena
            )
            flat_dist = self._dist.reshape(-1)
            keys = cell_rows * np.int64(n) + cell_verts
            improved = best < flat_dist[keys]
            # Boolean indexing copies out of the block's arena.
            keys, minima = keys[improved], best[improved]
            if exclusive:
                flat_dist[keys] = minima
                minima = None
        if exclusive:
            timings.add("kernel.reduce", perf_counter() - tock)
        return keys, minima

    def _summary_for(
        self, verts: np.ndarray, updates: np.ndarray, done: bool
    ) -> RoundSummary:
        """Emission accounting for *this* round's sends (``verts[i]``
        relays ``updates[i]`` sources' improved distances)."""
        return self.frontier_summary(
            verts, updates, self._scale, self._state_bytes(), done
        )

    def _reached_cells(self) -> float:
        """Finite cells of the distance table.

        A running popcount total on the bitset path. The weighted table
        is scanned, once per round: ``_advance`` finishes its writes
        before it builds the summary, and the engine reads
        ``residual_bytes()`` right after ``step()`` — both want the
        same count over the same ``sources x n`` table.
        """
        if self._bits is not None:
            return float(self._bits.reached)
        if self._reached_round != self._round:
            self._reached = float(np.isfinite(self._dist).sum())
            self._reached_round = self._round
        return self._reached

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
        if self._bits is not None:
            return self._bits.frontier_keys()
        n = np.int64(self.graph.num_vertices)
        return self._frontier_rows * n + self._frontier_verts

    def reached_table(self) -> np.ndarray:
        """The ``sources x n`` distance table so far (``inf`` where
        unreached), row ``i`` for the batch's ``i``-th source; a copy."""
        if self._bits is None:
            return np.array(self._dist)
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
    """Build the MSSP :class:`TaskSpec` (workload = number of sources)."""

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
