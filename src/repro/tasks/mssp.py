"""Multi-Source Shortest Path distance queries (MSSP).

Section 3's Pregel MSSP: messages ``(u, v, d)`` assert a length-``d``
path from source ``u`` to ``v``; per round, a vertex keeps the minimum
per source and relaxes its out-edges. The kernel executes exactly that —
a synchronous multi-source Bellman-Ford — fully vectorised over the
(source, vertex) frontier. Under the mirror/broadcast interface the
per-neighbour message collapses to one ``(u, d)`` broadcast block per
updated (source, vertex) pair, which :meth:`route_emissions` handles.

Workload is the *number of source nodes* (the paper's MSSP unit). For
large workloads, ``sample_limit`` caps how many distinct sources are
simulated and scales all counts — see
:func:`repro.tasks.base.choose_sources`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from repro.graph.csr import (
    Graph,
    expand_frontier,
    iter_frontier_blocks,
    scatter_min_dense,
    segment_min,
    streaming_block_arcs,
    use_dense_cells,
)
from repro.messages.routing import MessageRouter
from repro.perf import kernel_pool, timings
from repro.tasks.base import (
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
        self._degrees = graph.degrees

    def _initialise(self, workload: float) -> None:
        sampled = choose_sources(
            self.graph, workload, self.sample_limit, self.rng
        )
        self._sources = sampled.sources
        self._scale = sampled.scale_factor
        n = self.graph.num_vertices
        s = self._sources.size
        self._dist = alloc_state_matrix((s, n), np.float64, np.inf)
        self._dist[np.arange(s), self._sources] = 0.0
        self._pair_mask = alloc_state_matrix((s, n), bool)
        # Frontier: (source-row, vertex) pairs improved last round.
        self._frontier_rows = np.arange(s, dtype=np.int64)
        self._frontier_verts = self._sources.copy()
        self._reached_round = -1

    def _advance(self) -> RoundSummary:
        graph = self.graph
        block_arcs = streaming_block_arcs(graph)
        if block_arcs is not None:
            return self._advance_streaming(block_arcs)
        if kernel_pool.kernel_workers() > 1:
            shards = kernel_pool.choose_shards(
                int(self._degrees[self._frontier_verts].sum())
            )
            if shards > 1:
                return self._advance_parallel(shards)
        arena = self.arena
        arena.new_round()
        rows, verts = self._frontier_rows, self._frontier_verts

        # Expand every frontier pair to all out-neighbours (shared
        # CSR gather, arena buffers reused across rounds).
        tick = perf_counter()
        arc_pos, counts, kept = expand_frontier(graph, verts, arena)
        if arc_pos.size == 0:
            return self._summary_for(
                np.empty(0, dtype=np.int64), np.empty(0), done=True
            )
        src_rows = rows if kept is None else rows[kept]
        src_verts = verts if kept is None else verts[kept]
        nbr = np.take(graph.indices, arc_pos, out=arena.take(arc_pos.size))
        msg_rows = np.repeat(src_rows, counts)
        cand = np.repeat(self._dist[src_rows, src_verts], counts)
        if graph.weights is not None:
            weights = np.take(
                graph.weights, arc_pos, out=arena.take(arc_pos.size, np.float64)
            )
            cand += weights
        else:
            cand += 1.0
        timings.add("kernel.expand", perf_counter() - tick)

        # In-round aggregation: keep the minimum per (source, target)
        # cell. The strategy pivots on the shared measured crossover
        # (:func:`use_dense_cells`): big frontiers amortise the fused
        # flat-key scatter straight into the distance matrix, sparse
        # ones win with the sort-based segment reduction. Both emit
        # cells in row-major order and both produce bit-identical
        # distance tables (min is order-independent).
        n = graph.num_vertices
        if use_dense_cells(msg_rows.size, self._pair_mask.size):
            tick = perf_counter()
            cells, before, best = scatter_min_dense(
                msg_rows, nbr, cand, self._dist, self._pair_mask, arena
            )
            improved = best < before
            tock = perf_counter()
            timings.add("kernel.reduce", tock - tick)
            # The scatter already wrote the minima in place; only the
            # frontier coordinates remain to be derived.
            if improved.any():
                winners = cells if improved.all() else cells[improved]
                self._frontier_rows = np.floor_divide(
                    winners, np.int64(n), out=arena.take(winners.size)
                )
                self._frontier_verts = np.remainder(
                    winners, np.int64(n), out=arena.take(winners.size)
                )
                done = self._round >= self.max_rounds
            else:
                self._frontier_rows = np.empty(0, dtype=np.int64)
                self._frontier_verts = np.empty(0, dtype=np.int64)
                done = True
            timings.add("kernel.frontier", perf_counter() - tock)
        else:
            tick = perf_counter()
            cell_rows, cell_verts, best = segment_min(
                msg_rows, nbr, cand, n, arena
            )
            current = self._dist[cell_rows, cell_verts]
            improved = best < current
            tock = perf_counter()
            timings.add("kernel.reduce", tock - tick)
            if improved.any():
                if improved.all():
                    # Every touched cell improved: the unique-cell
                    # arrays already are the next frontier
                    # (arena-backed: valid through the next round by
                    # the keepalive contract).
                    self._dist[cell_rows, cell_verts] = best
                    self._frontier_rows = cell_rows
                    self._frontier_verts = cell_verts
                else:
                    improved_rows = cell_rows[improved]
                    improved_verts = cell_verts[improved]
                    self._dist[improved_rows, improved_verts] = best[improved]
                    self._frontier_rows = improved_rows
                    self._frontier_verts = improved_verts
                done = self._round >= self.max_rounds
            else:
                self._frontier_rows = np.empty(0, dtype=np.int64)
                self._frontier_verts = np.empty(0, dtype=np.int64)
                done = True
            timings.add("kernel.frontier", perf_counter() - tock)

        # Emission accounting for *this* round's sends.
        updates_per_vertex = np.bincount(
            verts, minlength=graph.num_vertices
        ).astype(np.float64)
        return self._summary_for(verts, updates_per_vertex, done)

    def _advance_parallel(self, shards: int) -> RoundSummary:
        """Row-sharded round on the intra-task kernel pool.

        The frontier is cut into contiguous shards of roughly equal
        out-degree (:func:`repro.perf.kernel_pool.shard_bounds`); each
        shard expands and segment-reduces into its *own* scratch arena
        against the round-start distance snapshot — no shard writes
        shared state while siblings read — and returns copied winner
        keys + minima. The parent then folds the per-shard minima into
        the distance table with ``np.minimum`` in shard order and
        sort-dedups the winner keys. Bit-identical to the monolithic
        round at any shard count: ``min`` is order-independent and
        exact, a cell improves against the round-start value iff it
        improves overall (so the shard-union *is* the monolithic
        improved set), and the key merge restores row-major frontier
        order — the same winner-key semantics the block-streaming path
        proved out.
        """
        graph = self.graph
        n = graph.num_vertices
        rows, verts = self._frontier_rows, self._frontier_verts
        tick = perf_counter()
        # Snapshot before any scatter: shard K's updates must not feed
        # shard J's candidate values (the monolithic path reads every
        # candidate before writing).
        source_dist = self._dist[rows, verts]
        bounds = [
            (lo, hi)
            for lo, hi in kernel_pool.shard_bounds(
                self._degrees[verts], shards
            )
            if hi > lo
        ]
        arenas = self.shard_arenas(len(bounds))

        def run_shard(lo: int, hi: int, arena) -> object:
            # Thread body: touches only its slice, its arena, and
            # read-only shared state (graph CSR, dist snapshot rows).
            # No timings here — the phase accumulators are not
            # thread-safe; the parent times the whole dispatch.
            blk_rows = rows[lo:hi]
            blk_verts = verts[lo:hi]
            blk_dist = source_dist[lo:hi]
            arena.new_round()
            arc_pos, counts, kept = expand_frontier(graph, blk_verts, arena)
            if arc_pos.size == 0:
                return None
            src_rows = blk_rows if kept is None else blk_rows[kept]
            src_dist = blk_dist if kept is None else blk_dist[kept]
            nbr = np.take(
                graph.indices, arc_pos, out=arena.take(arc_pos.size)
            )
            msg_rows = np.repeat(src_rows, counts)
            cand = np.repeat(src_dist, counts)
            if graph.weights is not None:
                weights = np.take(
                    graph.weights,
                    arc_pos,
                    out=arena.take(arc_pos.size, np.float64),
                )
                cand += weights
            else:
                cand += 1.0
            cell_rows, cell_verts, best = segment_min(
                msg_rows, nbr, cand, n, arena
            )
            current = self._dist[cell_rows, cell_verts]
            improved = best < current
            if not improved.any():
                return False
            # Boolean indexing copies out of the shard arena, so the
            # keys and minima survive past the thunk.
            keys = cell_rows[improved] * np.int64(n) + cell_verts[improved]
            return keys, best[improved]

        results = kernel_pool.run_sharded(
            [
                (lambda lo=lo, hi=hi, arena=arena: run_shard(lo, hi, arena))
                for (lo, hi), arena in zip(bounds, arenas)
            ]
        )
        tock = perf_counter()
        timings.add("kernel.expand", tock - tick)
        if all(res is None for res in results):
            return self._summary_for(
                np.empty(0, dtype=np.int64), np.empty(0), done=True
            )
        winner_lists = []
        for res in results:
            if not res:
                continue
            keys, best = res
            srows, sverts = np.divmod(keys, np.int64(n))
            # Per-shard minima can overlap across shards; folding with
            # ``np.minimum`` in shard order is order-independent and
            # lands exactly the global per-cell minimum.
            self._dist[srows, sverts] = np.minimum(
                self._dist[srows, sverts], best
            )
            winner_lists.append(keys)
        tick = perf_counter()
        timings.add("kernel.reduce", tick - tock)
        if winner_lists:
            if len(winner_lists) == 1:
                keys = winner_lists[0]  # row-major within a shard already
            else:
                keys = np.concatenate(winner_lists)
                keys.sort()
                boundary = np.empty(keys.size, dtype=bool)
                boundary[0] = True
                np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
                keys = keys[boundary]
            self._frontier_rows, self._frontier_verts = np.divmod(
                keys, np.int64(n)
            )
            done = self._round >= self.max_rounds
        else:
            self._frontier_rows = np.empty(0, dtype=np.int64)
            self._frontier_verts = np.empty(0, dtype=np.int64)
            done = True
        timings.add("kernel.frontier", perf_counter() - tick)
        updates_per_vertex = np.bincount(verts, minlength=n).astype(
            np.float64
        )
        return self._summary_for(verts, updates_per_vertex, done)

    def _advance_streaming(self, block_arcs: int) -> RoundSummary:
        """Block-streaming round for memory-mapped graphs.

        The frontier is cut into slices whose combined out-degree fits
        ``block_arcs`` (:func:`iter_frontier_blocks`), so at most one
        block's arc gather is resident at a time; the arena recycles the
        buffers across blocks. Bit-identical to the monolithic round:
        the source distances are snapshotted before any scatter (the
        monolithic path reads every candidate first), ``min`` is
        order-independent, and per-block improved sets union to exactly
        the monolithic improved set (a cell improves against a running
        minimum iff it improves against the round-start value), merged
        back into row-major frontier order by a sort over composite keys.
        """
        graph = self.graph
        arena = self.arena
        rows, verts = self._frontier_rows, self._frontier_verts
        n = graph.num_vertices
        if verts.size == 0:
            return self._summary_for(
                np.empty(0, dtype=np.int64), np.empty(0), done=True
            )
        # Snapshot: block K's scatters must not feed block K+1's sends.
        source_dist = self._dist[rows, verts]
        degrees = self._degrees[verts]
        winner_lists = []
        expanded_any = False
        for lo, hi in iter_frontier_blocks(degrees, block_arcs):
            blk_rows = rows[lo:hi]
            blk_verts = verts[lo:hi]
            blk_dist = source_dist[lo:hi]
            arena.new_round()
            tick = perf_counter()
            arc_pos, counts, kept = expand_frontier(graph, blk_verts, arena)
            if arc_pos.size == 0:
                timings.add("kernel.expand", perf_counter() - tick)
                continue
            expanded_any = True
            src_rows = blk_rows if kept is None else blk_rows[kept]
            src_dist = blk_dist if kept is None else blk_dist[kept]
            nbr = np.take(
                graph.indices, arc_pos, out=arena.take(arc_pos.size)
            )
            msg_rows = np.repeat(src_rows, counts)
            cand = np.repeat(src_dist, counts)
            if graph.weights is not None:
                weights = np.take(
                    graph.weights,
                    arc_pos,
                    out=arena.take(arc_pos.size, np.float64),
                )
                cand += weights
            else:
                cand += 1.0
            tock = perf_counter()
            timings.add("kernel.expand", tock - tick)
            if use_dense_cells(msg_rows.size, self._pair_mask.size):
                cells, before, best = scatter_min_dense(
                    msg_rows, nbr, cand, self._dist, self._pair_mask, arena
                )
                improved = best < before
                if improved.any():
                    # flatnonzero-fresh array; the boolean index copies,
                    # so the keys survive the next block's new_round().
                    winner_lists.append(cells[improved])
            else:
                cell_rows, cell_verts, best = segment_min(
                    msg_rows, nbr, cand, n, arena
                )
                current = self._dist[cell_rows, cell_verts]
                improved = best < current
                if improved.any():
                    improved_rows = cell_rows[improved]
                    improved_verts = cell_verts[improved]
                    self._dist[improved_rows, improved_verts] = best[improved]
                    winner_lists.append(
                        improved_rows * np.int64(n) + improved_verts
                    )
            timings.add("kernel.reduce", perf_counter() - tock)

        if not expanded_any:
            return self._summary_for(
                np.empty(0, dtype=np.int64), np.empty(0), done=True
            )
        tick = perf_counter()
        if winner_lists:
            if len(winner_lists) == 1:
                keys = winner_lists[0]  # already row-major within a block
            else:
                keys = np.concatenate(winner_lists)
                keys.sort()
                boundary = np.empty(keys.size, dtype=bool)
                boundary[0] = True
                np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
                keys = keys[boundary]
            self._frontier_rows, self._frontier_verts = np.divmod(
                keys, np.int64(n)
            )
            done = self._round >= self.max_rounds
        else:
            self._frontier_rows = np.empty(0, dtype=np.int64)
            self._frontier_verts = np.empty(0, dtype=np.int64)
            done = True
        timings.add("kernel.frontier", perf_counter() - tick)
        updates_per_vertex = np.bincount(verts, minlength=n).astype(
            np.float64
        )
        return self._summary_for(verts, updates_per_vertex, done)

    def _summary_for(
        self,
        sending_verts: np.ndarray,
        updates_per_vertex: np.ndarray,
        done: bool,
    ) -> RoundSummary:
        graph = self.graph
        if sending_verts.size == 0:
            routed = self.route_emissions(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
            return RoundSummary(
                routed=routed,
                compute_ops=0.0,
                task_state_bytes=self._state_bytes(),
                active_vertices=0.0,
                done=done,
            )
        active = np.flatnonzero(updates_per_vertex > 0)
        blocks = updates_per_vertex[active] * self._scale
        point = (
            updates_per_vertex[active]
            * self._degrees[active].astype(np.float64)
            * self._scale
        )
        routed = self.route_emissions(active, blocks, point)
        # Combining keeps at most one message per (source, target) pair;
        # in-round duplicates (several paths to the same neighbour in the
        # same round) are rare for distinct arcs, so point count stands.
        return RoundSummary(
            routed=routed,
            compute_ops=routed.delivered_messages + active.size * self._scale,
            task_state_bytes=self._state_bytes(),
            active_vertices=float(active.size) * self._scale,
            done=done,
            combined_messages=routed.wire_messages,
        )

    def _reached_cells(self) -> float:
        """Finite cells of the distance table, scanned once per round.

        Every ``_advance*`` variant finishes its writes before it builds
        the summary, and the engine reads ``residual_bytes()`` right
        after ``step()``: both want the same count over the same
        ``sources x n`` table.
        """
        if self._reached_round != self._round:
            self._reached = float(np.isfinite(self._dist).sum())
            self._reached_round = self._round
        return self._reached

    def _state_bytes(self) -> float:
        """In-flight distance table + frontier for the whole batch."""
        return (
            self._reached_cells() * FRONTIER_ENTRY_BYTES
            + float(self._frontier_rows.size) * FRONTIER_ENTRY_BYTES
        ) * self._scale

    def residual_bytes(self) -> float:
        """Final distances stay resident per machine until the job ends."""
        return self._reached_cells() * RESIDUAL_RECORD_BYTES * self._scale

    @property
    def result(self) -> dict:
        """Map ``source id -> distance vector`` for simulated sources."""
        return {
            int(s): self._dist[i].copy()
            for i, s in enumerate(self._sources)
        }


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
