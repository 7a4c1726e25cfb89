"""Immutable CSR (compressed sparse row) graph storage.

:class:`Graph` is the single adjacency structure used throughout the
library. It stores out-neighbours in CSR form (``indptr``/``indices``),
supports directed and undirected graphs (undirected graphs store both
arcs), and exposes the handful of queries the vertex-centric engines
need: degrees, neighbour slices, and edge iteration. Edges carry no
weights: the paper's graphs are unweighted. All arrays are numpy-backed
so the task kernels can operate on whole frontiers at once.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError


class Graph:
    """A fixed, CSR-encoded directed multigraph view.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; out-neighbours of vertex ``v``
        are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of destination vertex ids, length ``m``.
    directed:
        whether the arc list represents a directed graph. Undirected
        graphs are stored with both arc directions present, and
        ``num_edges`` reports arc count / 2.
    name:
        optional label used in reports.

    ``directory`` names the CSR directory the arrays are maps of
    (:func:`repro.graph.io.open_mapped`; ``None`` in RAM) — a fact
    about storage that no kernel reads: whether a round streams is
    :func:`streaming_block_arcs`'s.
    """

    __slots__ = (
        "indptr",
        "indices",
        "directed",
        "name",
        "directory",
        "_degrees",
        "_fingerprint",
        "_mass_operators",
        "_transpose",
        "_pull_blocks",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        directed: bool = True,
        name: str = "graph",
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphFormatError("indptr must be a 1-D array of length n + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphFormatError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} for {indices.size} arcs)"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphFormatError("edge endpoint out of range")
        self._adopt(indptr, indices, directed, name)

    def _adopt(
        self, indptr, indices, directed, name,
        fingerprint=None, directory=None,
    ) -> "Graph":
        """Install arrays already proven valid — by ``__init__``, or by
        whoever built the bytes a checked CSR directory holds —
        read-only, every derived cache empty.
        The one place a slot is initialised."""
        self.indptr, self.indices = indptr, indices
        self.directed, self.name = bool(directed), name
        self.directory = directory
        self._fingerprint = fingerprint
        self._degrees = self._transpose = None
        self._mass_operators = {}
        self._pull_blocks = None
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return self

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.size - 1

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (directed edges)."""
        return self.indices.size

    @property
    def num_edges(self) -> int:
        """Number of logical edges (arcs / 2 for undirected graphs)."""
        if self.directed:
            return self.indices.size
        return self.indices.size // 2

    def out_degree(self, v: Optional[int] = None):
        """Out-degree of ``v``, or the whole degree array when ``v is None``."""
        if v is None:
            return self.degrees
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex (``int64``, computed once and cached)."""
        if self._degrees is None:
            degrees = np.diff(self.indptr)
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    @property
    def fingerprint(self) -> str:
        """Content hash of the CSR arrays (stable across processes).

        Used as the cache key component for partition/mirror-plan/run
        artifacts (:mod:`repro.perf.cache`): two graphs with identical
        structure and direction share every derived artifact.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(b"directed" if self.directed else b"undirected")
            # Arrays go in through the buffer protocol: same bytes as
            # ``tobytes()`` without the transient O(m) copy.
            digest.update(np.ascontiguousarray(self.indptr))
            digest.update(np.ascontiguousarray(self.indices))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @property
    def average_degree(self) -> float:
        """Average out-degree (the paper's ``d_avg`` column)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_arcs / self.num_vertices

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbour ids of vertex ``v`` (a CSR slice, zero copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(src, dst)`` for every stored arc."""
        for v in range(self.num_vertices):
            for dst in self.neighbors(v):
                yield v, int(dst)

    def edge_sources(self) -> np.ndarray:
        """Source id for every arc, aligned with ``indices`` (length m)."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def transposition(self) -> Tuple[np.ndarray, np.ndarray]:
        """``A^T`` as in-neighbour lists, built once and cached:
        ``(indptr, sources)``.

        The arcs into vertex ``v`` are ``sources[indptr[v]:indptr[v + 1]]``
        in original arc-position order — what a stable sort of the arcs
        by target yields, parallel arcs kept apart — from one counting
        pass (:func:`transpose_rows`): in RAM, or as maps of files written
        block by block when the graph streams
        (:func:`repro.graph.io.mapped_transposition`). The one
        transposition behind :meth:`reverse`, :func:`propagate_mass`
        and the pull rounds of :class:`repro.tasks.base.BitFrontier`.
        """
        if self._transpose is None:
            if streaming_block_arcs(self) is not None:
                from repro.graph.io import mapped_transposition

                self._transpose = mapped_transposition(self)
            else:
                transposed = transpose_rows(
                    self, 0, self.num_vertices, 0, self.num_arcs
                )
                for array in transposed:
                    array.setflags(write=False)
                self._transpose = transposed
        return self._transpose

    def transposition_blocks(
        self,
    ) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
        """:meth:`transposition` cut into the row blocks a pull round
        walks — the one block ``(0, n)`` unless the graph streams — as
        ``(arc_lo, arc_hi, targets, starts)``: the block's range of
        ``sources``, its vertices that have in-arcs, and where each
        one's in-list starts within the range. Cached beside the
        transposition, per block size."""
        block_arcs = streaming_block_arcs(self)
        if self._pull_blocks is None or self._pull_blocks[0] != block_arcs:
            indptr = self.transposition()[0]
            blocks = []
            for lo, hi, arc_lo, arc_hi in _row_blocks(indptr, block_arcs):
                ptr = np.asarray(indptr[lo : hi + 1])
                rows = np.flatnonzero(ptr[1:] != ptr[:-1])
                blocks.append((arc_lo, arc_hi, rows + lo, ptr[rows] - arc_lo))
            self._pull_blocks = (block_arcs, blocks)
        return self._pull_blocks[1]

    def reverse(self) -> "Graph":
        """Return the graph with every arc reversed (CSR of in-edges)."""
        indptr, sources = self.transposition()
        return Graph(
            indptr, sources, directed=self.directed, name=f"{self.name}^T"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "digraph" if self.directed else "graph"
        return (
            f"Graph(name={self.name!r}, {kind}, n={self.num_vertices}, "
            f"arcs={self.num_arcs})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_arcs, self.directed))


# ----------------------------------------------------------------------
# Shared frontier kernels
#
# Every frontier-driven task (MSSP, BKHS, and the per-arc mass spreading
# in BPPR/PageRank/exact references) used to carry its own copy of the
# ``repeat``/``cumsum`` CSR gather; the helpers below consolidate them
# into one implementation that replaces ``np.unique`` on composite
# keys with a sort-based reduction. Since the frontier rounds went
# bit-parallel (:class:`repro.tasks.base.BitFrontier`) the two
# ``dedup_pairs*`` functions have no caller in ``src/``; they stay
# importable because the frozen benchmark's span table resolves them
# by name.
# ----------------------------------------------------------------------


def expand_frontier(
    graph: Graph,
    verts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Expand frontier vertices to all their out-arcs (vectorised gather).

    Returns ``(arc_positions, counts, kept)``:

    * ``arc_positions`` — positions into ``graph.indices`` of every
      out-arc of every frontier entry, in
      frontier order (entry ``i``'s arcs are contiguous);
    * ``counts`` — out-degree of each kept frontier entry; expand any
      per-entry payload to arc granularity with ``np.repeat(x, counts)``
      (chunked copies, much faster than per-element gathers on the
      skewed degree distributions the datasets model);
    * ``kept`` — indices of frontier entries with out-degree > 0, or
      ``None`` when every entry had arcs (no filtering needed —
      zero-degree entries would otherwise corrupt the prefix trick).

    Compared to the naive three-``np.repeat`` gather this fuses the
    base/offset arithmetic into one ``np.repeat`` plus one in-place add
    of an ``arange``.
    """
    counts = graph.degrees[verts]
    kept: Optional[np.ndarray] = None
    if counts.size and counts.min() == 0:
        kept = np.flatnonzero(counts)
        verts = verts[kept]
        counts = counts[kept]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts, kept

    # Each entry's arcs start at indptr[v]; subtracting the exclusive
    # prefix sum first lets one repeat plus an arange produce
    # consecutive positions per segment.
    bounds = np.cumsum(counts)
    arc_pos = np.repeat(graph.indptr[verts] - (bounds - counts), counts)
    arc_pos += np.arange(total, dtype=np.int64)
    return arc_pos, counts, kept


def dedup_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    num_cols: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``(row, col)`` pairs in row-major order, sort-based.

    Builds composite ``row * num_cols + col`` keys, sorts them in place
    and keeps boundary elements — an order of magnitude faster than
    ``np.unique`` on the same keys — then splits the unique keys back
    with a single ``np.divmod``.
    """
    if rows.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    keys = composite_keys(rows, cols, num_cols)
    return _split_keys(sorted_unique(keys), num_cols)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place and return the distinct ones (boundary
    elements of the sorted runs; a fresh array). The one sort-and-mask
    of the graph layer: ``np.unique`` hashes int64 keys since numpy
    2.3 and is several times slower on arc-sized arrays."""
    boundary = np.empty(keys.size, dtype=bool)
    keys.sort()
    boundary[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    return keys[boundary]


def dedup_pairs_dense(
    rows: np.ndarray,
    cols: np.ndarray,
    mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``(row, col)`` pairs via a reusable dense boolean mask.

    For kernels that already hold an ``(s, n)`` state matrix the dense
    scan beats sorting once the candidate list is large enough: mark
    through *flat* composite keys (one indexed store per candidate —
    measurably faster than 2-D fancy indexing), collect with
    ``np.flatnonzero`` (row-major — the same order :func:`dedup_pairs`
    produces), then un-mark so the mask is all-False again for the next
    round. ``mask`` must be all-False on entry.
    """
    flat = mask.reshape(-1)
    keys = composite_keys(rows, cols, mask.shape[1])
    flat[keys] = True
    cells = np.flatnonzero(flat)
    flat[cells] = False
    return _split_keys(cells, mask.shape[1])


def _transposed_operator(graph: Graph, lo: int, hi: int):
    """Rows ``[lo, hi)`` of ``A^T`` as a scipy CSR operator: views of
    :meth:`Graph.transposition`'s in-neighbour lists with all-ones data.

    A row lists its target's in-arcs in arc-position order, and scipy's
    matvec sums a row sequentially from zero, so ``op @ x`` adds each
    target's contributions in the order ``np.bincount(indices,
    weights=np.repeat(x, degrees))`` does: the same bits for any cut of
    the rows, and for each column of a 2-D ``x`` as for that column
    alone. scipy copies ids that fit into ``int32``: with the data, 12
    bytes an arc of the block.
    """
    from scipy import sparse

    indptr, sources = graph.transposition()
    arc_lo, arc_hi = int(indptr[lo]), int(indptr[hi])
    return sparse.csr_matrix(
        (
            np.ones(arc_hi - arc_lo, dtype=np.float64),
            sources[arc_lo:arc_hi],
            indptr[lo : hi + 1] - arc_lo,
        ),
        shape=(hi - lo, graph.num_vertices),
    )


def _cached_operator(graph: Graph, lo: int, hi: int):
    """:func:`_transposed_operator`, kept on the graph per row range —
    for a graph that does not stream, whose ``A^T`` is in RAM anyway."""
    op = graph._mass_operators.get((lo, hi))
    if op is None:
        op = _transposed_operator(graph, lo, hi)
        graph._mass_operators[lo, hi] = op
    return op


def propagate_mass(graph: Graph, per_vertex: np.ndarray) -> np.ndarray:
    """Push ``per_vertex`` values along every out-arc and sum at targets.

    The shared per-arc spreading step of BPPR/PageRank/exact-PPR:
    ``out[v] = sum(per_vertex[u] for every arc u -> v)``, i.e. ``A^T @
    per_vertex`` — ``(n,)`` or ``(n, k)``, column by column. Callers
    divide by degree beforehand for random-walk semantics. One
    formulation, ``out[lo:hi] = A^T[lo:hi] @ per_vertex`` over row
    ranges of :func:`_transposed_operator`; where the ranges come from
    is all that differs: the one block ``(0, n)``; degree-balanced
    shards on the kernel pool (both operators cached on the graph); the
    transposition's row blocks when the graph streams
    (:func:`streaming_block_arcs`), one block's operator resident at a
    time. Every cut sums the same bits.
    """
    block_arcs = streaming_block_arcs(graph)
    if block_arcs is not None:
        indptr = graph.transposition()[0]
        ranges = [(lo, hi) for lo, hi, *_ in _row_blocks(indptr, block_arcs)]
        return _propagate_mass_streaming(graph, per_vertex, ranges)
    shards = kernel_shards(graph.num_arcs)
    if shards > 1:
        return _propagate_mass_sharded(graph, per_vertex, shards)
    return _cached_operator(graph, 0, graph.num_vertices) @ per_vertex


# ----------------------------------------------------------------------
# Block streaming (graphs larger than the ``--max-ram`` budget)
#
# Under a ``--max-ram`` budget a graph whose arcs exceed one block must
# not be gathered or repeated O(m) at once, wherever its arrays live:
# the block helpers below cut the CSR rows (or a round's frontier) into
# blocks whose arc totals respect the budget, and the kernels reduce
# block by block with results bit-identical to a one-block run
# (``DESIGN.md`` §8 argues why; ``tests/graph/test_mmap.py`` asserts
# it).
# Vertex-proportional state (degrees, distance tables, rank vectors)
# stays resident — the same semi-streaming model as the paper's GraphD,
# which keeps O(n) vertex state in memory and streams the O(m) edges.
# ----------------------------------------------------------------------

#: Working-set bytes one in-flight candidate arc costs in the frontier
#: kernels: arc position, neighbour id, source row, candidate value and
#: the sort/scatter scratch behind the segment reductions (int64 and
#: float64 lanes, roughly ten live per arc across the block pipeline).
STREAM_BYTES_PER_ARC = 96

#: Floor on the streaming block size — below this the per-block numpy
#: dispatch overhead dominates any memory saving.
MIN_STREAM_BLOCK_ARCS = 1 << 16

_STREAMING = {"max_ram_bytes": None}


def configure_streaming(max_ram_bytes: Optional[int] = None) -> Optional[int]:
    """Set (or clear, with ``None``) the process-wide ``--max-ram``
    streaming budget in bytes; returns the new value."""
    if max_ram_bytes is not None:
        max_ram_bytes = int(max_ram_bytes)
        if max_ram_bytes <= 0:
            raise GraphFormatError("--max-ram budget must be positive")
    _STREAMING["max_ram_bytes"] = max_ram_bytes
    return max_ram_bytes


def streaming_budget_bytes() -> Optional[int]:
    """The configured ``--max-ram`` budget, or ``None`` when unset."""
    return _STREAMING["max_ram_bytes"]


def streaming_block_arcs(graph: Graph) -> Optional[int]:
    """Arcs per streaming block for ``graph``, or ``None`` when its
    rounds run as one block: no ``--max-ram`` budget, or arcs that fit
    one block of it. Budget and size are all it reads, and every
    streaming decision asks here."""
    budget = _STREAMING["max_ram_bytes"]
    if budget is None:
        return None
    block_arcs = max(MIN_STREAM_BLOCK_ARCS, budget // STREAM_BYTES_PER_ARC)
    return block_arcs if graph.num_arcs > block_arcs else None


def row_blocks(graph: Graph) -> Iterator[Tuple[int, int, int, int]]:
    """``(row_lo, row_hi, arc_lo, arc_hi)`` of each non-empty CSR row
    block: :func:`streaming_block_arcs` arcs each when ``graph``
    streams, else the one block ``(0, n, 0, m)`` — the same code path."""
    return _row_blocks(graph.indptr, streaming_block_arcs(graph))


def _row_blocks(
    indptr: np.ndarray, block_arcs: Optional[int]
) -> Iterator[Tuple[int, int, int, int]]:
    """:func:`row_blocks` of any CSR pointer array (``A``'s or
    ``A^T``'s): ``block_arcs`` arcs a block, or one block for ``None``."""
    cuts = [(0, indptr.size - 1)]
    if block_arcs is not None:
        cuts = iter_row_blocks(indptr, block_arcs)
    for lo, hi in cuts:
        arc_lo, arc_hi = int(indptr[lo]), int(indptr[hi])
        if arc_hi > arc_lo:
            yield lo, hi, arc_lo, arc_hi


def iter_row_blocks(
    indptr: np.ndarray, max_arcs: int
) -> Iterator[Tuple[int, int]]:
    """Yield ``(row_lo, row_hi)`` slices covering all CSR rows, each
    block holding at most ``max_arcs`` arcs (a single heavier row gets
    a block of its own so progress is always made)."""
    n = indptr.size - 1
    lo = 0
    while lo < n:
        target = int(indptr[lo]) + max_arcs
        hi = int(np.searchsorted(indptr, target, side="right")) - 1
        if hi <= lo:
            hi = lo + 1
        yield lo, min(hi, n)
        lo = hi


def iter_frontier_blocks(
    degrees: np.ndarray, max_arcs: int
) -> Iterator[Tuple[int, int]]:
    """Yield ``(lo, hi)`` frontier slices whose summed out-degree stays
    under ``max_arcs`` (at least one entry per block)."""
    size = degrees.size
    if size == 0:
        return
    bounds = np.cumsum(degrees, dtype=np.int64)
    lo = 0
    while lo < size:
        base = int(bounds[lo - 1]) if lo else 0
        hi = int(np.searchsorted(bounds, base + max_arcs, side="right"))
        if hi <= lo:
            hi = lo + 1
        yield lo, hi
        lo = hi


def transpose_rows(
    graph: Graph, lo: int, hi: int, arc_lo: int, arc_hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The arcs of rows ``[lo, hi)`` (positions ``[arc_lo, arc_hi)``)
    grouped by target in arc-position order: ``(indptr, sources)`` of
    that slice of ``A^T``, ``indptr`` local to it. One
    counting pass, scipy's ``csr -> csc`` conversion. Rows ``(0, n)``
    are the in-RAM :meth:`Graph.transposition`, row blocks in order the
    streamed one. The conversion does not check neighbour ids: prove
    them first."""
    from scipy import sparse

    n = graph.num_vertices
    targets = graph.indices[arc_lo:arc_hi]
    row_ptr = graph.indptr[lo : hi + 1] - arc_lo
    # The conversion carries one value per arc along: the cheapest.
    data = np.ones(arc_hi - arc_lo, dtype=np.int8)
    csc = sparse.csr_matrix(
        (data, targets, row_ptr), shape=(hi - lo, n)
    ).tocsc()
    indptr = csc.indptr.astype(np.int64, copy=False)
    sources = csc.indices.astype(np.int64, copy=False)
    if lo:
        sources += lo
    return indptr, sources


def _propagate_mass_streaming(
    graph: Graph,
    per_vertex: np.ndarray,
    ranges,
    operator=_transposed_operator,
    run=None,
) -> np.ndarray:
    """:func:`propagate_mass` over the ``A^T`` row ``ranges``: each
    range's ``operator`` (built and dropped by default, one block
    resident at a time) times ``per_vertex``; ``run`` executes the
    per-range thunks (in order, inline, when ``None``). A range's rows
    hold their targets' complete in-lists, so a cut changes which rows
    a matvec computes, never a row's sum: rows outside every range have
    no in-arcs and stay zero."""
    out = np.zeros((graph.num_vertices,) + per_vertex.shape[1:])

    def block(lo: int, hi: int) -> None:
        out[lo:hi] = operator(graph, lo, hi) @ per_vertex

    if run is None:
        for lo, hi in ranges:
            block(lo, hi)
    else:
        run([lambda lo=lo, hi=hi: block(lo, hi) for lo, hi in ranges])
    return out


def _merge_reduce(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
    ufunc,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two sorted-unique ``(keys, values)`` runs, combining values
    of shared keys with ``ufunc.reduceat`` (accumulator values first,
    preserving left-to-right accumulation across chunks)."""
    keys = np.concatenate([keys_a, keys_b])
    vals = np.concatenate([vals_a, vals_b])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    boundary = np.empty(keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return keys[starts], ufunc.reduceat(vals, starts)


# ----------------------------------------------------------------------
# Chunked segment reductions and intra-task sharding
# (repro.perf.kernel_pool)
#
# A candidate list too long to reduce at once (``*_streaming``) or worth
# spreading over the persistent thread pool (``*_sharded``) is
# cut into contiguous ranges, reduced range by range, and folded in
# range order by one function, :func:`_segment_chunked`. The
# kernel_pool import stays lazy so serial processes never pay for — or
# even load — the pool machinery.
# ----------------------------------------------------------------------


def kernel_shards(num_candidates: int) -> int:
    """Shard count for ``num_candidates`` in-flight arcs — 1 (serial)
    unless :mod:`repro.perf.kernel_pool` has been imported *and*
    configured with workers, so untouched processes pay one dict
    lookup, nothing else."""
    import sys

    pool_mod = sys.modules.get("repro.perf.kernel_pool")
    if pool_mod is None:
        return 1
    return pool_mod.choose_shards(num_candidates)


def _segment_chunked(
    reduce,
    ufunc,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    num_cols: int,
    ranges,
    pooled: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``reduce`` (:func:`segment_min` / :func:`segment_sum`) over the
    contiguous candidate ``ranges``, the sorted-unique per-range runs
    folded left to right with ``ufunc`` (:func:`_merge_reduce`).

    ``pooled`` runs the ranges on the kernel pool; otherwise one at a
    time, so one range's intermediates are resident. The fold sees the
    runs in range order and emits cells row-major: ``min`` is
    order-independent, so any cut is bit-identical to the monolithic
    reduction; ``sum`` keeps :func:`segment_sum`'s exactness regime
    (all-ones walk counts, size-one cells) and can differ in the last
    ulp across range boundaries for arbitrary floats.
    """
    thunks = [
        (
            lambda lo=lo, hi=hi: reduce(
                rows[lo:hi], cols[lo:hi], values[lo:hi], num_cols
            )
        )
        for lo, hi in ranges
        if hi > lo
    ]
    if pooled:
        from repro.perf import kernel_pool

        results = kernel_pool.run_sharded(thunks)
    else:
        results = (thunk() for thunk in thunks)
    acc_keys: Optional[np.ndarray] = None
    acc_vals: Optional[np.ndarray] = None
    for c_rows, c_cols, c_vals in results:
        if c_rows.size == 0:
            continue
        keys = c_rows * np.int64(num_cols) + c_cols
        if acc_keys is None:
            acc_keys, acc_vals = keys, c_vals
        else:
            acc_keys, acc_vals = _merge_reduce(
                acc_keys, acc_vals, keys, c_vals, ufunc
            )
    if acc_keys is None:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=values.dtype)
    cell_rows, cell_cols = np.divmod(acc_keys, np.int64(num_cols))
    return cell_rows, cell_cols, acc_vals


def _block_ranges(size: int, block_size: int) -> List[Tuple[int, int]]:
    """``[0, size)`` in runs of ``block_size`` candidates."""
    return [(lo, lo + block_size) for lo in range(0, size, block_size)]


def _shard_ranges(size: int, shards: int) -> List[Tuple[int, int]]:
    """``[0, size)`` in ``shards`` near-equal contiguous ranges."""
    return [
        (size * k // shards, size * (k + 1) // shards) for k in range(shards)
    ]


def segment_min_streaming(rows, cols, values, num_cols, block_size):
    """:func:`segment_min`, ``block_size`` candidates at a time."""
    ranges = _block_ranges(rows.size, block_size)
    return _segment_chunked(
        segment_min, np.minimum, rows, cols, values, num_cols, ranges, False
    )


def segment_sum_streaming(rows, cols, values, num_cols, block_size):
    """:func:`segment_sum`, ``block_size`` candidates at a time."""
    ranges = _block_ranges(rows.size, block_size)
    return _segment_chunked(
        segment_sum, np.add, rows, cols, values, num_cols, ranges, False
    )


def segment_min_sharded(rows, cols, values, num_cols, shards):
    """:func:`segment_min` over ``shards`` candidate ranges in parallel."""
    ranges = _shard_ranges(rows.size, shards)
    return _segment_chunked(
        segment_min, np.minimum, rows, cols, values, num_cols, ranges,
        pooled=shards > 1,
    )


def segment_sum_sharded(rows, cols, values, num_cols, shards):
    """:func:`segment_sum` over ``shards`` candidate ranges in parallel."""
    ranges = _shard_ranges(rows.size, shards)
    return _segment_chunked(
        segment_sum, np.add, rows, cols, values, num_cols, ranges,
        pooled=shards > 1,
    )


def _propagate_mass_sharded(
    graph: Graph, per_vertex: np.ndarray, shards: int
) -> np.ndarray:
    """:func:`propagate_mass` over ``shards`` in-degree-balanced row
    ranges of ``A^T``, run on the kernel pool: disjoint output rows,
    each the whole-graph row's bits. The ranges' operators stay cached
    (:func:`_cached_operator`): rebuilding them every call made a
    pooled twitter@400 round ~2x slower on a 2-CPU host."""
    from repro.perf import kernel_pool

    in_degrees = np.diff(graph.transposition()[0])
    ranges = kernel_pool.shard_bounds(in_degrees, shards)
    return _propagate_mass_streaming(
        graph, per_vertex, ranges, _cached_operator, kernel_pool.run_sharded
    )


# ----------------------------------------------------------------------
# Segment reduction scatters
#
# The kernels aggregate per-(row, col) cell with one of two strategies:
#
# * **sort-based** — sort the candidate list by composite cell key and
#   reduce each run with ``ufunc.reduceat``; O(m log m) in candidates,
#   touches nothing proportional to the state matrix. Wins for sparse
#   frontiers.
# * **dense** — scatter through *flat* composite keys into a reusable
#   state-matrix-sized mask/accumulator and scan it once; O(m + cells).
#   Wins once the candidate list is a noticeable fraction of the state
#   matrix (the scan amortises, and numpy's 1-D indexed ``ufunc.at``
#   fast path makes the scatter itself cheap).
#
# Neither strategy has a caller in ``src/`` outside the Monte-Carlo
# BPPR oracle and the chunked twins above; they stay importable because
# the frozen benchmark's span table resolves them by name.
# ----------------------------------------------------------------------


def composite_keys(
    rows: np.ndarray,
    cols: np.ndarray,
    num_cols: int,
) -> np.ndarray:
    """Flat ``row * num_cols + col`` cell keys."""
    keys = rows * np.int64(num_cols)
    keys += cols
    return keys


def _sorted_segments(
    rows: np.ndarray,
    cols: np.ndarray,
    num_cols: int,
    stable: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort candidates by composite ``(row, col)`` key.

    Returns ``(order, sorted_keys, starts)`` where ``order`` is a
    permutation grouping equal cells together and ``starts`` marks each
    distinct cell's first position. ``stable=True`` preserves the
    original candidate order within a cell (needed when the downstream
    reduction is order-sensitive); order-independent reductions such as
    ``min`` pass ``stable=False`` for the ~4x faster introsort.
    """
    keys = composite_keys(rows, cols, num_cols)
    order = np.argsort(keys, kind="stable" if stable else None)
    sorted_keys = keys[order]
    boundary = np.empty(rows.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return order, sorted_keys, starts


def _split_keys(
    keys: np.ndarray,
    num_cols: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split composite keys back into ``(rows, cols)``."""
    return np.divmod(keys, np.int64(num_cols))


def segment_min(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    num_cols: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum of ``values`` per distinct ``(row, col)`` cell.

    Returns ``(cell_rows, cell_cols, minima)`` in row-major cell order —
    the same cells, in the same order, as :func:`dedup_pairs` on the
    same input, with the per-cell minimum attached. Bit-identical to
    ``np.minimum.at`` into an all-``inf`` accumulator followed by a
    sparse collect (``min`` is order-independent, so the unstable — and
    measurably faster — introsort is safe), but via one argsort and one
    ``np.minimum.reduceat`` over the grouped candidates.
    """
    if rows.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=values.dtype)
    order, sorted_keys, starts = _sorted_segments(
        rows, cols, num_cols, stable=False
    )
    minima = np.minimum.reduceat(values[order], starts)
    cell_rows, cell_cols = _split_keys(sorted_keys[starts], num_cols)
    return cell_rows, cell_cols, minima


def segment_sum(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    num_cols: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum of ``values`` per distinct ``(row, col)`` cell.

    Same contract as :func:`segment_min` with ``np.add.reduceat`` as the
    reducer. The stable sort preserves each cell's original candidate
    order, but ``np.add.reduceat`` reduces each run with *pairwise*
    summation while a sequential scatter-add does not — for general
    float inputs the per-cell sums can therefore differ in the last
    ulp. The in-repo call site keeps exactness anyway: its summands are
    all-ones walk counts (integer-exact in float64). The equivalence
    tests assert bit-identity for that regime and for cells of size
    one, ``allclose`` for arbitrary floats.
    """
    if rows.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=values.dtype)
    order, sorted_keys, starts = _sorted_segments(rows, cols, num_cols)
    sums = np.add.reduceat(values[order], starts)
    cell_rows, cell_cols = _split_keys(sorted_keys[starts], num_cols)
    return cell_rows, cell_cols, sums


def scatter_min_dense(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    state: np.ndarray,
    mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused dense-strategy scatter: ``np.minimum.at`` of ``values``
    directly into the 2-D ``state`` matrix, in place.

    Returns ``(cells, before, after)`` where ``cells`` are the *flat*
    row-major indices of every touched cell and ``before``/``after``
    hold the cell's state value around the scatter (so callers diff
    them to find improvements). Both the mark and the minimum run
    through flat composite keys — numpy's 1-D indexed ``ufunc.at`` fast
    path, several times faster than 2-D fancy-index scatters. ``mask``
    must be all-False on entry and is restored before returning;
    recover coordinates with ``divmod(cells, state.shape[1])``.
    """
    num_cols = state.shape[1]
    keys = composite_keys(rows, cols, num_cols)
    flat_mask = mask.reshape(-1)
    flat_state = state.reshape(-1)
    flat_mask[keys] = True
    cells = np.flatnonzero(flat_mask)
    flat_mask[cells] = False
    before = flat_state[cells]
    np.minimum.at(flat_state, keys, values)
    after = flat_state[cells]
    return cells, before, after
