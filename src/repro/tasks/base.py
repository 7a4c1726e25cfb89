"""Task abstractions shared by all benchmark workloads.

A *multi-processing job* (the paper's term) is a workload ``W`` of unit
tasks — random walks per node for BPPR, source nodes for MSSP/BKHS — that
the batching executor splits into batches. For each batch the engine
instantiates a :class:`TaskKernel` and drives it round by round; the
kernel runs the real algorithm on the full graph and reports a
:class:`RoundSummary` of what it emitted, which the engine prices.

Kernels are deliberately *engine-agnostic*: the engine injects a
:class:`~repro.messages.routing.MessageRouter` so the same kernel serves
point-to-point and broadcast (mirror) engines, matching Section 3's
paired implementations.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import TaskError
from repro.graph.arena import ScratchArena
from repro.graph.csr import (
    Graph,
    expand_frontier,
    iter_frontier_blocks,
    streaming_block_arcs,
    streaming_budget_bytes,
)
from repro.messages.routing import MessageRouter, RoutedMessages
from repro.perf import kernel_pool, timings

#: Fraction of the ``--max-ram`` budget one dense state matrix may
#: occupy before :func:`alloc_state_matrix` spills it to a mapped
#: scratch file. Half, because the kernels hold two matrices of like
#: size (:class:`BitFrontier`'s ``visited`` + ``incoming`` bitsets,
#: ``n x ceil(sources / 64)`` words each; weighted MSSP's
#: ``sources x n`` ``dist`` + ``pair_mask``) and the streaming arc
#: blocks need the rest of the budget.
STATE_SPILL_FRACTION = 0.5

#: Measured crossover between the two directions of a bit-parallel
#: round (:meth:`BitFrontier.advance`): a round pulls once its
#: frontier's out-arcs times this reach ``m``. Per word, push costs
#: 12-16 ns per frontier arc (expand, gather, ``np.bitwise_or.at``),
#: pull 2.7-4.5 ns per arc of the graph (gather, ``reduceat``) whatever
#: the frontier: livejournal@100 (360 k arcs) push 1.0 ms at ``m / 4.4``
#: arcs and 4.6-5.6 ms on the heavy rounds, pull 1.4-1.7 ms; twitter@400
#: (2.2 M arcs) push 8.3 ms at ``m / 3.3`` and 35-37 ms heavy, pull
#: 6-10 ms (2-CPU shared VM, best of three). The curves cross between
#: ``m / 5`` and ``m / 3`` and a ``jobs_traversal`` pass reads the same
#: from 3 to 10 (``DESIGN.md`` §8 has both tables).
PULL_ARC_RATIO = 4


def alloc_state_matrix(
    shape: Tuple[int, ...], dtype, fill: Any = None
) -> np.ndarray:
    """A dense kernel-state matrix (a per-vertex source bitset, or
    ``sources × n`` cells), spilled to disk when it would blow the
    ``--max-ram`` budget.

    In-RAM is the default: without a streaming budget, or for matrices
    small against it, this is exactly ``np.full``/``np.zeros``. When the
    matrix alone would exceed :data:`STATE_SPILL_FRACTION` of the
    configured budget, the array is backed by an ``open_memmap`` scratch
    file instead — same dtype, same shape, same initial fill, so every
    subsequent read/scatter produces identical bits; the OS pages the
    cold rows out instead of the process holding them resident. The
    scratch directory is removed when the array is garbage-collected.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    budget = streaming_budget_bytes()
    if budget is None or nbytes <= budget * STATE_SPILL_FRACTION:
        if fill is None or fill == 0:
            return np.zeros(shape, dtype=dtype)
        return np.full(shape, fill, dtype=dtype)
    from repro.perf.memory import record_state_spill

    scratch_dir = tempfile.mkdtemp(prefix="repro-state-")
    arr = np.lib.format.open_memmap(
        f"{scratch_dir}/state.npy", mode="w+", dtype=dtype, shape=shape
    )
    if fill is not None and fill != 0:
        arr[...] = fill
    # open_memmap zero-fills new pages, so fill == 0 needs no pass.
    weakref.finalize(arr, shutil.rmtree, scratch_dir, ignore_errors=True)
    record_state_spill(nbytes)
    return arr


@dataclass
class RoundSummary:
    """What one kernel round emitted, already routed.

    Attributes
    ----------
    routed:
        network/local/delivered message split from the engine's router.
    combined_messages:
        wire messages after (source, target) combining — engines with
        combiners (GraphLab sync) transmit this count instead. ``None``
        means combining does not apply (defaults to the routed count).
    compute_ops:
        work units this round (message handling + vertex updates),
        cluster-wide.
    task_state_bytes:
        cluster-wide in-flight state of the batch (walk bookkeeping,
        frontier bitmaps, distance rows being built).
    active_vertices:
        number of vertices that executed compute() this round.
    done:
        True when the batch finished after this round.
    """

    routed: RoutedMessages
    compute_ops: float
    task_state_bytes: float
    active_vertices: float
    done: bool
    combined_messages: Optional[float] = None

    @property
    def wire_messages(self) -> float:
        return self.routed.wire_messages


class TaskKernel(ABC):
    """One batch of unit tasks executing round-by-round.

    Lifecycle: construct → ``start_batch(workload)`` → repeated
    ``step()`` until a summary with ``done=True`` → read ``result`` /
    ``residual_bytes()``. A kernel instance serves a single batch.
    """

    def __init__(self, graph: Graph, router: MessageRouter) -> None:
        self.graph = graph
        self.router = router
        self.arena = ScratchArena()
        self._started = False
        self._finished = False
        self._round = 0

    # -- lifecycle ------------------------------------------------------
    def use_arena(self, arena: ScratchArena) -> None:
        """Adopt a shared scratch arena (engine-injected, one per job, so
        batch boundaries reuse the same buffer pool). Must happen before
        :meth:`start_batch`."""
        if self._started:
            raise TaskError("use_arena() must be called before start_batch()")
        self.arena = arena

    def start_batch(self, workload: float) -> None:
        """Initialise the batch for ``workload`` unit tasks."""
        if self._started:
            raise TaskError("kernel already started; kernels are single-use")
        if workload <= 0:
            raise TaskError("batch workload must be positive")
        self._started = True
        self._workload = float(workload)
        self._initialise(float(workload))

    def step(self) -> RoundSummary:
        """Advance one communication round."""
        if not self._started:
            raise TaskError("start_batch() must be called before step()")
        if self._finished:
            raise TaskError("kernel already finished")
        self._round += 1
        summary = self._advance()
        if summary.done:
            self._finished = True
        return summary

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def finished(self) -> bool:
        return self._finished

    def replay_key(self) -> Optional[Hashable]:
        """Declare this started batch deterministic, or ``None`` (default).

        A hashable key promises that the whole round sequence — every
        :class:`RoundSummary` and every ``residual_bytes()`` value — is a
        pure function of (graph, router, key): no RNG draw, no state
        shared with another kernel. The engine session then executes
        one kernel per key and serves every later batch with an equal
        key from the recorded rounds (``DESIGN.md``, "Round tapes"). A
        declaring kernel may sit half-run while its session steps other
        kernels, so it must keep no arena-backed state across rounds.
        Declare per *exact* class: a subclass that adds randomness
        inherits this method, so a declaring kernel checks
        ``type(self)`` rather than ``isinstance``.
        """
        return None

    # -- helpers for subclasses -----------------------------------------
    def block_plan(
        self, verts: np.ndarray
    ) -> Tuple[List[Tuple[int, int]], bool]:
        """Cut the round's frontier ``verts`` into contiguous blocks and
        say where they run: ``(cuts, pooled)``.

        Decided only from what the round can observe. A graph over the
        ``--max-ram`` budget is cut so each block's arc gather fits it,
        the blocks run one after the other; with kernel workers
        configured and arcs enough for more than one shard, the cuts
        are degree-balanced shards for the kernel pool; else the whole
        frontier is one block.
        """
        block_arcs = streaming_block_arcs(self.graph)
        if block_arcs is not None or kernel_pool.kernel_workers() > 1:
            degrees = self.graph.degrees[verts]
            if block_arcs is not None:
                return list(iter_frontier_blocks(degrees, block_arcs)), False
            shards = kernel_pool.choose_shards(int(degrees.sum()))
            if shards > 1:
                return kernel_pool.shard_bounds(degrees, shards), True
        return [(0, verts.size)], False

    def run_blocks(
        self, body: Callable[..., Any], verts: np.ndarray, *columns: np.ndarray
    ) -> Tuple[List[Any], bool]:
        """Run ``body(verts[lo:hi], *columns[lo:hi], arena, exclusive)``
        over the round's :meth:`block_plan`; returns the results in
        block order and whether the blocks were *exclusive*.

        An exclusive block is the only code running: it gets
        ``self.arena`` (advanced one generation per block, so a
        many-block round keeps about two blocks of buffers resident),
        may write kernel state and shared scratch masks, and records
        ``kernel.*`` timings. Pooled blocks run concurrently, each on a
        child arena of its own: they only read shared state and return
        what they found for the caller to fold; the whole dispatch is
        booked under ``kernel.expand`` here (the phase accumulators are
        not thread-safe).
        """

        def block(lo: int, hi: int, arena: ScratchArena, exclusive: bool):
            arena.new_round()
            slices = [column[lo:hi] for column in columns]
            return body(verts[lo:hi], *slices, arena, exclusive)

        cuts, pooled = self.block_plan(verts)
        if not pooled:
            return [block(lo, hi, self.arena, True) for lo, hi in cuts], True
        tick = perf_counter()
        cuts = [(lo, hi) for lo, hi in cuts if hi > lo]
        arenas = self.arena.children(len(cuts))
        results = kernel_pool.run_sharded(
            [
                (lambda lo=lo, hi=hi, arena=arena: block(lo, hi, arena, False))
                for (lo, hi), arena in zip(cuts, arenas)
            ]
        )
        timings.add("kernel.expand", perf_counter() - tick)
        return results, False

    def route_emissions(
        self,
        vertex_ids: np.ndarray,
        blocks_per_vertex: np.ndarray,
        point_messages_per_vertex: np.ndarray,
    ) -> RoutedMessages:
        """Route this round's emissions through the engine's router.

        Broadcast routers consume *blocks* (one per vertex per unit-task
        group — Section 3's common message to all neighbours);
        point-to-point routers consume individual per-arc messages.
        """
        from repro.messages.routing import BroadcastRouter

        if isinstance(self.router, BroadcastRouter):
            return self.router.route(vertex_ids, blocks_per_vertex)
        return self.router.route(vertex_ids, point_messages_per_vertex)

    def frontier_summary(
        self,
        verts: np.ndarray,
        updates: np.ndarray,
        scale: float,
        state_bytes: float,
        done: bool,
    ) -> RoundSummary:
        """Emission accounting of a source-driven frontier round
        (MSSP/BKHS): the distinct vertices ``verts`` send this round,
        ``verts[i]`` on behalf of ``updates[i]`` sources — one broadcast
        block per (source, vertex) update, or one point message per
        update and out-arc — all scaled by the sampling ``scale``."""
        updates = updates.astype(np.float64)
        blocks = updates * scale
        point = updates * self.graph.degrees[verts].astype(np.float64) * scale
        routed = self.route_emissions(verts, blocks, point)
        # Combining keeps at most one message per (source, target) pair;
        # in-round duplicates (several paths to the same neighbour in the
        # same round) are rare for distinct arcs, so point count stands.
        return RoundSummary(
            routed=routed,
            compute_ops=routed.delivered_messages + verts.size * scale,
            task_state_bytes=state_bytes,
            active_vertices=float(verts.size) * scale,
            done=done,
            combined_messages=routed.wire_messages,
        )

    # -- subclass hooks ---------------------------------------------------
    @abstractmethod
    def _initialise(self, workload: float) -> None:
        """Set up batch state for ``workload`` unit tasks."""

    @abstractmethod
    def _advance(self) -> RoundSummary:
        """Run one round and summarise it."""

    @abstractmethod
    def residual_bytes(self) -> float:
        """Cluster-wide bytes of results this batch leaves resident for
        final aggregation (the paper's *residual memory*)."""

    @property
    @abstractmethod
    def result(self) -> Any:
        """Task-specific result of the batch (valid once finished)."""


class BitFrontier:
    """Bit-parallel multi-source BFS state: the unweighted frontier
    round of MSSP and BKHS (``DESIGN.md`` §8).

    Source ``i`` of the batch owns bit ``i % 64`` of word ``i // 64``,
    and every per-(source, vertex) fact is one bit of a per-vertex
    ``uint64`` word row:

    * ``visited`` — ``(n, words)``, bit set once the source reached the
      vertex;
    * the *union* frontier — ``verts`` (ascending, distinct) and
      ``words`` (one non-zero row per vertex): the bits that arrived
      last round. ``counts`` is each row's popcount — how many sources
      hold the vertex on their frontier — ``frontier_cells`` their sum;
    * ``reached`` — popcount of ``visited``, kept as a running total.

    A round does per-arc work once per word, whatever the number of
    sources behind it, in one of two directions: *push* expands the
    arcs of the union frontier and ORs the sender's word row into each
    target, *pull* walks every arc of ``A^T`` and ORs into each target
    the rows of its in-neighbours.
    """

    def __init__(self, graph: Graph, sources: np.ndarray) -> None:
        self.graph = graph
        self.num_sources = sources.size
        shape = (graph.num_vertices, -(-sources.size // 64))
        self.visited = alloc_state_matrix(shape, np.uint64)
        #: next round's arrivals; all-zero between rounds.
        self._incoming = alloc_state_matrix(shape, np.uint64)
        rows = np.arange(sources.size, dtype=np.uint64)
        np.bitwise_or.at(
            self.visited,
            (sources, (rows >> np.uint64(6)).astype(np.int64)),
            np.uint64(1) << (rows & np.uint64(63)),
        )
        self.reached = 0
        verts = np.unique(sources)
        self._set_frontier(verts, self.visited[verts])

    def _set_frontier(self, verts: np.ndarray, words: np.ndarray) -> None:
        """Install a round's newly set bits as the frontier."""
        self.verts = verts
        self.words = words
        self.counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        self.frontier_cells = int(self.counts.sum())
        self.reached += self.frontier_cells

    def advance(self, kernel: TaskKernel) -> bool:
        """One BFS round for every source at once, for the ``kernel``
        that owns this state (its block plan cuts a push round, its
        arena lends the buffers). Returns whether any frontier vertex
        had an out-arc.

        The round pulls when its frontier owns at least
        ``1 / PULL_ARC_RATIO`` of the graph's arcs — pull costs ``m``
        whatever the frontier, push its arcs at several times the price
        each — and pushes below that, whether the graph streams or not
        (a streamed pull walks ``A^T`` block by block, a push round is
        cut by the block plan); each pull books one ``kernel.pull``.

        Byte-identical in either direction, however a round is cut and
        wherever its blocks run: the round only ORs senders' rows into
        target rows, and OR is commutative, associative and idempotent
        — any grouping of the arcs, by sender or by target, into the
        shared array or into private ones folded later, lands the same
        words.
        """
        graph = self.graph
        if 0 < graph.num_arcs <= PULL_ARC_RATIO * int(
            graph.degrees[self.verts].sum()
        ):
            kernel.arena.new_round()
            results = [self._gather(kernel.arena)]
            timings.add("kernel.pull", 0.0)
        else:
            results, _ = kernel.run_blocks(
                self._scatter_block, self.verts, self.words
            )
        tick = perf_counter()
        incoming = self._incoming
        expanded = False
        for target in results:
            if target is None:
                continue
            expanded = True
            if target is not incoming:  # a pooled block's private array
                np.bitwise_or(incoming, target, out=incoming)
        # new = incoming & ~visited: mark it, hand it on as the next
        # frontier, and leave the scratch all-zero again.
        np.bitwise_and(incoming, ~self.visited, out=incoming)
        verts = np.flatnonzero(incoming.any(axis=1))
        words = incoming[verts]
        np.bitwise_or(self.visited, incoming, out=self.visited)
        incoming.fill(0)
        self._set_frontier(verts, words)
        timings.add("kernel.frontier", perf_counter() - tick)
        return expanded

    def _scatter_block(
        self,
        verts: np.ndarray,
        words: np.ndarray,
        arena: ScratchArena,
        exclusive: bool,
    ) -> Optional[np.ndarray]:
        """Push: OR the word rows of one frontier slice along its
        out-arcs.

        Returns ``None`` when the slice has no out-arc, else the
        ``(n, words)`` array it scattered into: the shared
        ``_incoming`` for an *exclusive* block (which also times
        itself), a zeroed private one from its own arena for a pooled
        block — two concurrent blocks reaching one target would race
        on the shared array — which the parent folds.
        """
        graph = self.graph
        tick = perf_counter()
        arc_pos, counts, kept = expand_frontier(graph, verts, arena)
        if arc_pos.size == 0:
            if exclusive:
                timings.add("kernel.expand", perf_counter() - tick)
            return None
        if kept is not None:
            words = words[kept]
        nbr = np.take(
            graph.indices, arc_pos, out=arena.take(arc_pos.size), mode="clip"
        )
        arc_words = np.repeat(words, counts, axis=0)
        if exclusive:
            target = self._incoming
            tock = perf_counter()
            timings.add("kernel.expand", tock - tick)
        else:
            target = arena.take(self._incoming.size, np.uint64)
            target = target.reshape(self._incoming.shape)
            target.fill(0)
        np.bitwise_or.at(target, nbr, arc_words)
        if exclusive:
            timings.add("kernel.reduce", perf_counter() - tock)
        return target

    def _gather(self, arena: ScratchArena) -> np.ndarray:
        """Pull: OR into the row of every vertex that has in-arcs the
        ``visited`` rows of its in-neighbours, one word column at a
        time — gather the column along ``A^T``'s source list, reduce
        each target's segment — and return ``_incoming``, as an
        exclusive push block does.

        Gathering ``visited`` gathers the frontier: a bit visited at
        ``u`` and not on the frontier was on it in an earlier round,
        which sent it — in either direction — to every out-neighbour
        of ``u``, where ``& ~visited`` now drops it; so there is no
        frontier table to write and clear. ``reduceat`` hands back the
        *element at* a start that repeats, not the identity, so a
        vertex without in-arcs must not be reduced
        (:meth:`Graph.transposition_blocks` lists only those with
        in-arcs, per block). The blocks are ``A^T``'s row blocks — one
        in RAM, :func:`repro.graph.csr.streaming_block_arcs` arcs each
        when the graph streams — walked inline one after the other: cut
        over the kernel pool the round read 8 % slower (``DESIGN.md``
        §8).
        """
        sources = self.graph.transposition()[1]
        blocks = self.graph.transposition_blocks()
        buffer = arena.take(max(hi - lo for lo, hi, _, _ in blocks), np.uint64)
        for arc_lo, arc_hi, targets, starts in blocks:
            block_sources = sources[arc_lo:arc_hi]
            arc_words = buffer[: arc_hi - arc_lo]
            for column in range(self.visited.shape[1]):
                tick = perf_counter()
                np.take(
                    self.visited[:, column], block_sources, out=arc_words,
                    mode="clip",
                )
                tock = perf_counter()
                self._incoming[targets, column] = np.bitwise_or.reduceat(
                    arc_words, starts
                )
                timings.add("kernel.expand", tock - tick)
                timings.add("kernel.reduce", perf_counter() - tock)
        return self._incoming

    def source_bits(self, words: np.ndarray) -> np.ndarray:
        """Decode word rows ``(k, words)`` into a ``(k, sources)``
        boolean table, column ``i`` for source ``i``."""
        lanes = words.astype("<u8").view(np.uint8)
        bits = np.unpackbits(lanes, axis=1, bitorder="little")
        return bits[:, : self.num_sources].view(bool)

    def cells(
        self, verts: np.ndarray, words: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The set bits of ``words`` (one row per vertex of ``verts``)
        as ``(source rows, vertices)`` pairs."""
        at, rows = np.nonzero(self.source_bits(words))
        return rows, verts[at]

    def frontier_keys(self) -> np.ndarray:
        """The frontier as flat ``source_row * n + vertex`` keys in
        row-major order (the per-source pair list, for tests)."""
        rows, verts = self.cells(self.verts, self.words)
        keys = rows * np.int64(self.graph.num_vertices) + verts
        keys.sort()
        return keys


#: Builds a kernel for one batch: (graph, router, batch_workload, rng).
KernelFactory = Callable[
    [Graph, MessageRouter, float, np.random.Generator], TaskKernel
]


@dataclass(frozen=True)
class TaskSpec:
    """A multi-processing job definition.

    ``workload`` follows the paper's units: walks-per-node for BPPR,
    number of source nodes for MSSP/BKHS. ``params`` carries
    task-specific settings (α, k, sampling limits) for reports.
    """

    name: str
    graph: Graph
    workload: float
    kernel_factory: KernelFactory = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    params: Dict[str, Any] = field(default_factory=dict)
    #: serialized message bytes for point-to-point transport of this task.
    message_bytes: float = 16.0
    #: bytes of one residual record (see kernel.residual_bytes).
    residual_record_bytes: float = 8.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.workload) and self.workload > 0):
            raise TaskError("workload must be positive and finite")
        if self.kernel_factory is None:
            raise TaskError("kernel_factory is required")

    def make_kernel(
        self,
        router: MessageRouter,
        batch_workload: float,
        rng: np.random.Generator,
        arena: Optional[ScratchArena] = None,
    ) -> TaskKernel:
        """Instantiate a kernel for one batch of this job.

        ``arena`` (engine-provided) shares one scratch-buffer pool across
        every batch of a job, so steady-state rounds allocate nothing.
        """
        kernel = self.kernel_factory(self.graph, router, batch_workload, rng)
        if arena is not None:
            kernel.use_arena(arena)
        kernel.start_batch(batch_workload)
        return kernel


def choose_sources(
    graph: Graph,
    workload: float,
    sample_limit: Optional[int],
    rng: np.random.Generator,
) -> "SampledSources":
    """Pick the source set for a source-driven batch (MSSP/BKHS).

    The paper's workload for these tasks is the *number of source nodes*.
    When ``workload`` exceeds ``sample_limit``, only ``sample_limit``
    distinct sources are simulated and all message/compute counts are
    multiplied by ``workload / sample_limit`` — statistically faithful
    because source costs are i.i.d. draws from the same graph. Results
    are exact for the simulated sources.
    """
    if not (math.isfinite(workload) and workload > 0):
        raise TaskError("workload must be positive and finite")
    count = int(round(workload))
    if count < 1:
        raise TaskError(
            f"workload {workload!r} rounds to zero sources; a batch needs "
            "at least one"
        )
    if sample_limit is not None and sample_limit < 1:
        raise TaskError("sample_limit must be at least 1 (or None)")
    simulated = count if sample_limit is None else min(count, sample_limit)
    simulated = min(simulated, graph.num_vertices)
    sources = rng.choice(
        graph.num_vertices, size=simulated, replace=False
    ).astype(np.int64)
    return SampledSources(
        sources=sources, scale_factor=count / simulated, requested=count
    )


@dataclass(frozen=True)
class SampledSources:
    """Source sample plus the count scale factor (see :func:`choose_sources`)."""

    sources: np.ndarray
    scale_factor: float
    requested: int

    @property
    def num_simulated(self) -> int:
        return self.sources.size


def make_task(name: str, graph: Graph, workload: float, **params: Any) -> TaskSpec:
    """Build a :class:`TaskSpec` by task name ("bppr", "mssp", "bkhs",
    "pagerank"); keyword params are forwarded to the task constructor."""
    from repro.tasks.bkhs import bkhs_task
    from repro.tasks.bppr import bppr_task
    from repro.tasks.bppr_query import bppr_query_task
    from repro.tasks.mssp import mssp_task
    from repro.tasks.pagerank import pagerank_task

    factories = {
        "bppr": bppr_task,
        "bppr-query": bppr_query_task,
        "mssp": mssp_task,
        "bkhs": bkhs_task,
        "pagerank": pagerank_task,
    }
    key = name.strip().lower()
    if key not in factories:
        known = ", ".join(sorted(factories))
        raise TaskError(f"unknown task {name!r}; known: {known}")
    return factories[key](graph, workload, **params)
