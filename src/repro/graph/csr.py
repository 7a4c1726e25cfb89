"""Immutable CSR (compressed sparse row) graph storage.

:class:`Graph` is the single adjacency structure used throughout the
library. It stores out-neighbours in CSR form (``indptr``/``indices``)
with optional float edge weights, supports directed and undirected graphs
(undirected graphs store both arcs), and exposes the handful of queries
the vertex-centric engines need: degrees, neighbour slices, and edge
iteration. All arrays are numpy-backed so the task kernels can operate on
whole frontiers at once.
"""

from __future__ import annotations

import copyreg
import hashlib
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError

if False:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.arena import ScratchArena


class Graph:
    """A fixed, CSR-encoded directed multigraph view.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; out-neighbours of vertex ``v``
        are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of destination vertex ids, length ``m``.
    weights:
        optional ``float64`` array aligned with ``indices``; ``None`` means
        the graph is unweighted (all edges weight 1).
    directed:
        whether the arc list represents a directed graph. Undirected
        graphs are stored with both arc directions present, and
        ``num_edges`` reports arc count / 2.
    name:
        optional label used in reports.

    ``directory`` names the CSR directory the arrays are maps of
    (:func:`repro.graph.io.open_mapped`; ``None`` in RAM), so a pickle
    ships a path instead of bytes — a fact about storage that no kernel
    reads: whether a round streams is :func:`streaming_block_arcs`'s.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "directed",
        "name",
        "directory",
        "_degrees",
        "_fingerprint",
        "_spread",
        "_transpose",
        "_pull_blocks",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
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
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise GraphFormatError("weights must align with indices")
            if np.any(weights < 0):
                raise GraphFormatError("edge weights must be non-negative")
        self._adopt(indptr, indices, weights, directed, name)

    def _adopt(
        self, indptr, indices, weights, directed, name,
        fingerprint=None, directory=None,
    ) -> "Graph":
        """Install arrays already proven valid — by ``__init__``, or by
        whoever built the bytes a pickle, a shared segment or a checked
        CSR directory holds — read-only, every derived cache empty.
        The one place a slot is initialised."""
        self.indptr, self.indices, self.weights = indptr, indices, weights
        self.directed, self.name = bool(directed), name
        self.directory = directory
        self._fingerprint = fingerprint
        self._degrees = self._spread = self._transpose = None
        self._pull_blocks = None
        for array in (indptr, indices, weights):
            if array is not None:
                array.setflags(write=False)
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

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

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
        structure, weights and direction share every derived artifact.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(b"directed" if self.directed else b"undirected")
            # Arrays go in through the buffer protocol: same bytes as
            # ``tobytes()`` without the transient O(m) copy.
            digest.update(np.ascontiguousarray(self.indptr))
            digest.update(np.ascontiguousarray(self.indices))
            if self.weights is not None:
                digest.update(np.ascontiguousarray(self.weights))
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

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights of ``v``'s out-edges (ones if unweighted)."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        if self.weights is None:
            return np.ones(hi - lo, dtype=np.float64)
        return self.weights[lo:hi]

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` for every stored arc."""
        weights = self.weights
        for v in range(self.num_vertices):
            lo, hi = int(self.indptr[v]), int(self.indptr[v + 1])
            for pos in range(lo, hi):
                w = 1.0 if weights is None else float(weights[pos])
                yield v, int(self.indices[pos]), w

    def edge_sources(self) -> np.ndarray:
        """Source id for every arc, aligned with ``indices`` (length m)."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def transposition(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``A^T`` as in-neighbour lists, built once and cached:
        ``(indptr, sources, weights)``.

        The arcs into vertex ``v`` are ``sources[indptr[v]:indptr[v + 1]]``
        in original arc-position order — what a stable sort of the arcs
        by target yields, parallel arcs kept apart — with ``weights``
        carried along (``None`` when unweighted), from one counting pass
        (:func:`transpose_rows`): in RAM, or as maps of files written
        block by block when the graph streams
        (:func:`repro.graph.io.mapped_transposition`). The one
        transposition behind :meth:`reverse`, :func:`_spread_operator`
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
                for array in transposed[: 2 + self.is_weighted]:
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
        indptr, sources, weights = self.transposition()
        return Graph(
            indptr,
            sources,
            weights,
            directed=self.directed,
            name=f"{self.name}^T",
        )

    def transition_matrix_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(indptr, indices, probabilities)`` of the random-walk
        transition matrix (uniform over out-neighbours).

        Dangling vertices (out-degree 0) get an empty probability row; the
        walk kernels treat a walk at a dangling vertex as terminated, which
        matches the Monte-Carlo semantics in Section 3 of the paper.
        """
        degrees = np.diff(self.indptr).astype(np.float64)
        probs = np.repeat(
            np.divide(
                1.0,
                degrees,
                out=np.zeros_like(degrees),
                where=degrees > 0,
            ),
            np.diff(self.indptr),
        )
        return self.indptr, self.indices, probs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "digraph" if self.directed else "graph"
        return (
            f"Graph(name={self.name!r}, {kind}, n={self.num_vertices}, "
            f"arcs={self.num_arcs}, weighted={self.is_weighted})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same_weights = (
            (self.weights is None and other.weights is None)
            or (
                self.weights is not None
                and other.weights is not None
                and np.array_equal(self.weights, other.weights)
            )
        )
        return (
            self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and same_weights
        )

    def __hash__(self) -> int:
        return hash(
            (self.num_vertices, self.num_arcs, self.directed, self.is_weighted)
        )

    def __reduce__(self):
        # Ship the path of a CSR directory, the arrays of anything else.
        if self.directory is not None:
            from repro.graph.io import open_mapped

            return open_mapped, (self.directory,)
        return copyreg.__newobj__, (type(self),), self.__getstate__()

    def __getstate__(self) -> dict:
        # Derived caches (degrees, the transposition, the spread
        # operator) are dropped so pickles carry only the CSR arrays; the
        # fingerprint rides along because recomputing it hashes every
        # array.
        return {
            "indptr": self.indptr,
            "indices": self.indices,
            "weights": self.weights,
            "directed": self.directed,
            "name": self.name,
            "_fingerprint": self._fingerprint,
        }

    def __setstate__(self, state: dict) -> None:
        arrays = ("indptr", "indices", "weights", "directed", "name")
        self._adopt(
            *(state[slot] for slot in arrays),
            fingerprint=state.get("_fingerprint"),
        )


# ----------------------------------------------------------------------
# Shared frontier kernels
#
# Every frontier-driven task (MSSP, BKHS, and the per-arc mass spreading
# in BPPR/PageRank/exact references) used to carry its own copy of the
# ``repeat``/``cumsum`` CSR gather; the helpers below consolidate them
# into one optimized implementation that reuses scratch buffers across
# rounds and replaces ``np.unique`` on composite keys with a sort-based
# reduction. Since the unweighted rounds went bit-parallel
# (:class:`repro.tasks.base.BitFrontier`) the two ``dedup_pairs*``
# functions have no caller in ``src/``; they stay importable because
# the frozen benchmark's span table resolves them by name.
# ----------------------------------------------------------------------


def expand_frontier(
    graph: Graph,
    verts: np.ndarray,
    scratch=None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Expand frontier vertices to all their out-arcs (vectorised gather).

    ``scratch`` is anything exposing ``arange(size)`` — in practice a
    :class:`repro.graph.arena.ScratchArena`.

    Returns ``(arc_positions, counts, kept)``:

    * ``arc_positions`` — positions into ``graph.indices`` /
      ``graph.weights`` of every out-arc of every frontier entry, in
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
    from the scratch-cached ``arange``.
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
    # prefix sum first lets one repeat plus the cached arange produce
    # consecutive positions per segment.
    bounds = np.cumsum(counts)
    arc_pos = np.repeat(graph.indptr[verts] - (bounds - counts), counts)
    if scratch is None:
        arc_pos += np.arange(total, dtype=np.int64)
    else:
        arc_pos += scratch.arange(total)
    return arc_pos, counts, kept


def dedup_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    num_cols: int,
    arena: "Optional[ScratchArena]" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``(row, col)`` pairs in row-major order, sort-based.

    Builds composite ``row * num_cols + col`` keys, sorts them in place
    and keeps boundary elements — an order of magnitude faster than
    ``np.unique`` on the same keys — then splits the unique keys back
    with a single ``np.divmod``. With ``arena``, the keys and boundary
    mask live in pooled buffers and the returned arrays are
    arena-backed.
    """
    if rows.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    keys = composite_keys(rows, cols, num_cols, arena)
    return _split_keys(sorted_unique(keys, arena), num_cols, arena)


def sorted_unique(
    keys: np.ndarray, arena: "Optional[ScratchArena]" = None
) -> np.ndarray:
    """Sort ``keys`` in place and return the distinct ones (boundary
    elements of the sorted runs; a fresh array). The one sort-and-mask
    of the graph layer: ``np.unique`` hashes int64 keys since numpy
    2.3 and is several times slower on arc-sized arrays."""
    boundary = (
        np.empty(keys.size, dtype=bool)
        if arena is None
        else arena.take(keys.size, dtype=bool)
    )
    keys.sort()
    boundary[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    return keys[boundary]


def merge_winner_keys(key_lists) -> np.ndarray:
    """The single fold of a round's per-block winner keys.

    Each block of a frontier round returns the flat ``row * n + col``
    keys of the cells it won, row-major within the block. One
    non-empty list is the round's frontier as is; several are
    concatenated, sorted and de-duplicated — blocks that only read the
    round-start state can win the same cell twice, and the sort
    restores the row-major order a one-block round emits.
    """
    key_lists = [keys for keys in key_lists if keys.size]
    if len(key_lists) == 1:
        return key_lists[0]
    if not key_lists:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.concatenate(key_lists))


def dedup_pairs_dense(
    rows: np.ndarray,
    cols: np.ndarray,
    mask: np.ndarray,
    arena: "Optional[ScratchArena]" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``(row, col)`` pairs via a reusable dense boolean mask.

    For kernels that already hold an ``(s, n)`` state matrix the dense
    scan beats sorting once the candidate list is large enough
    (:func:`use_dense_cells`): mark through *flat* composite keys (one
    indexed store per candidate — measurably faster than 2-D fancy
    indexing), collect with ``np.flatnonzero`` (row-major — the same
    order :func:`dedup_pairs` produces), then un-mark so the mask is
    all-False again for the next round. ``mask`` must be all-False on
    entry.
    """
    flat = mask.reshape(-1)
    keys = composite_keys(rows, cols, mask.shape[1], arena)
    flat[keys] = True
    cells = np.flatnonzero(flat)
    flat[cells] = False
    return _split_keys(cells, mask.shape[1], arena)


#: Sentinel cached on ``Graph._spread`` when scipy is unavailable, so
#: the import is attempted once per graph rather than once per round.
_NO_SPREAD = object()


def _spread_operator(graph: Graph):
    """Lazy per-graph ``A^T`` CSR operator for :func:`propagate_mass`.

    Rows are the in-neighbour lists of :meth:`Graph.transposition`, in
    original arc-position order, so a CSR matvec accumulates each
    target's contributions in exactly the arc order ``np.bincount``
    uses — bit-identical results, at ~2-3x the throughput. Returns
    ``None`` when scipy is missing (the bincount fallback then runs,
    producing the same bits).
    """
    op = graph._spread
    if op is _NO_SPREAD:
        return None
    if op is None:
        try:
            from scipy import sparse
        except ImportError:  # pragma: no cover - scipy is baked in
            graph._spread = _NO_SPREAD
            return None
        n = graph.num_vertices
        indptr, sources, _ = graph.transposition()
        op = sparse.csr_matrix(
            (np.ones(graph.num_arcs, dtype=np.float64), sources, indptr),
            shape=(n, n),
        )
        graph._spread = op
    return op


def propagate_mass(graph: Graph, per_vertex: np.ndarray) -> np.ndarray:
    """Push ``per_vertex`` values along every out-arc and sum at targets.

    The shared per-arc spreading step of BPPR/PageRank/exact-PPR:
    ``out[v] = sum(per_vertex[u] for every arc u -> v)``. Callers divide
    by degree beforehand for random-walk semantics. The hot path is a
    cached CSR matvec (:func:`_spread_operator`); without scipy it
    falls back to ``np.repeat`` + weighted ``np.bincount`` — a fused
    sequential scatter-add with the identical accumulation order, so
    both paths produce the same bits. A graph that streams
    (:func:`streaming_block_arcs`) dispatches to the block-streaming
    scatter *before* the operator path, so the O(m) scipy matrix is
    never materialised for a graph over the budget.
    """
    block_arcs = streaming_block_arcs(graph)
    if block_arcs is not None:
        return _propagate_mass_streaming(graph, per_vertex, block_arcs)
    op = _spread_operator(graph)
    if op is not None:
        shards = kernel_shards(graph.num_arcs)
        if shards > 1:
            return _propagate_mass_sharded(op, per_vertex, shards)
        return op @ per_vertex
    per_arc = np.repeat(per_vertex, graph.degrees)
    return np.bincount(
        graph.indices, weights=per_arc, minlength=graph.num_vertices
    )


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
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The arcs of rows ``[lo, hi)`` (positions ``[arc_lo, arc_hi)``)
    grouped by target in arc-position order: ``(indptr, sources,
    weights)`` of that slice of ``A^T``, ``indptr`` local to it. One
    counting pass, scipy's ``csr -> csc`` conversion (without scipy, a
    stable sort by target). Rows ``(0, n)`` are the in-RAM
    :meth:`Graph.transposition`, row blocks in order the streamed one.
    The conversion does not check neighbour ids: prove them first."""
    n = graph.num_vertices
    targets = graph.indices[arc_lo:arc_hi]
    row_ptr = graph.indptr[lo : hi + 1] - arc_lo
    # The conversion carries one value per arc along: the weights, or
    # the cheapest stand-in for them.
    data = graph.weights
    if data is None:
        data = np.ones(arc_hi - arc_lo, dtype=np.int8)
    else:
        data = data[arc_lo:arc_hi]
    try:
        from scipy import sparse
    except ImportError:
        order = np.argsort(targets, kind="stable")
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(targets, minlength=n)))
        )
        rows = np.arange(lo, hi, dtype=np.int64)
        sources = np.repeat(rows, np.diff(row_ptr))[order]
        data = data[order]
    else:
        csc = sparse.csr_matrix(
            (data, targets, row_ptr), shape=(hi - lo, n)
        ).tocsc()
        indptr = csc.indptr.astype(np.int64, copy=False)
        sources = csc.indices.astype(np.int64, copy=False)
        if lo:
            sources += lo
        data = csc.data
    return indptr, sources, None if graph.weights is None else data


def _propagate_mass_streaming(
    graph: Graph, per_vertex: np.ndarray, block_arcs: int
) -> np.ndarray:
    """Block-streaming :func:`propagate_mass`.

    Accumulates with ``np.add.at`` over sequential row blocks: the
    candidate order seen by the accumulator is exactly the arc order of
    the monolithic weighted ``np.bincount`` (and of the scipy matvec,
    whose rows are stable-sorted by arc position), so the float sums are
    bit-identical — per-block *partial* bincounts summed afterwards
    would not be, since float addition is not associative across the
    re-bracketing.
    """
    n = graph.num_vertices
    out = np.zeros(n, dtype=np.float64)
    indptr = graph.indptr
    degrees = graph.degrees
    for lo, hi in iter_row_blocks(indptr, block_arcs):
        arc_lo, arc_hi = int(indptr[lo]), int(indptr[hi])
        if arc_hi == arc_lo:
            continue
        per_arc = np.repeat(per_vertex[lo:hi], degrees[lo:hi])
        np.add.at(out, graph.indices[arc_lo:arc_hi], per_arc)
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

    ``pooled`` runs the ranges on the kernel pool (fresh buffers —
    pool workers never share an arena); otherwise one at a time, so
    one range's intermediates are resident. The fold sees the runs in
    range order and emits cells row-major: ``min`` is
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


def _propagate_mass_sharded(op, per_vertex: np.ndarray, shards: int):
    """Row-sharded CSR matvec for :func:`propagate_mass`.

    The reverse operator's rows are independent dot products, so
    splitting the *output* rows across pool workers is embarrassingly
    parallel and bit-identical: each sub-operator row holds exactly the
    bytes of the full operator's row, and scipy's per-row sequential
    accumulation computes the identical sum. Sub-operators are sliced
    once per (operator, shard count) and cached on the operator object.
    """
    from repro.perf import kernel_pool

    cache = getattr(op, "_repro_row_shards", None)
    if cache is None:
        cache = {}
        op._repro_row_shards = cache
    subops = cache.get(shards)
    if subops is None:
        in_deg = np.diff(op.indptr)
        subops = [
            (lo, hi, op[lo:hi])
            for lo, hi in kernel_pool.shard_bounds(in_deg, shards)
            if hi > lo
        ]
        cache[shards] = subops
    out = np.empty(op.shape[0], dtype=np.float64)

    def matvec(lo: int, hi: int, subop) -> None:
        out[lo:hi] = subop @ per_vertex

    kernel_pool.run_sharded(
        [
            (lambda lo=lo, hi=hi, subop=subop: matvec(lo, hi, subop))
            for lo, hi, subop in subops
        ]
    )
    return out


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
# One measured constant decides between them for every kernel.
# ----------------------------------------------------------------------

#: Measured crossover for choosing the dense (boolean-mask / dense
#: accumulator) strategy over the sort-based one: dense wins once the
#: candidate list carries at least this many entries per state-matrix
#: cell. Measured with ``benchmarks/kernel_bench.py --crossover`` on the
#: reference machine (argsort+reduceat vs flat-key scatter + mask scan
#: over s*n cells; the two cost curves cross between 1/32 and 1/16
#: candidates per cell). The old per-task heuristic
#: (``candidates * 8 >= cells``) hard-coded a ratio of 1/8 with no
#: measurement behind it and compared message rows to mask *cells* —
#: the constant now lives in one place, next to the benchmark that
#: produced it.
DENSE_CANDIDATES_PER_CELL = 1.0 / 16.0


def use_dense_cells(num_candidates: int, num_cells: int) -> bool:
    """True when the dense (mask/accumulator) scatter strategy should be
    used for ``num_candidates`` updates into a ``num_cells`` state
    matrix; the single decision point of the per-cell reductions
    (weighted MSSP's min-fold — the unweighted rounds keep no
    ``sources x n`` matrix to scatter into)."""
    return num_candidates >= DENSE_CANDIDATES_PER_CELL * num_cells


def composite_keys(
    rows: np.ndarray,
    cols: np.ndarray,
    num_cols: int,
    arena: "Optional[ScratchArena]" = None,
) -> np.ndarray:
    """Flat ``row * num_cols + col`` cell keys (arena-pooled if given)."""
    if arena is None:
        keys = rows * np.int64(num_cols)
    else:
        keys = np.multiply(rows, np.int64(num_cols), out=arena.take(rows.size))
    keys += cols
    return keys


def _sorted_segments(
    rows: np.ndarray,
    cols: np.ndarray,
    num_cols: int,
    arena: "Optional[ScratchArena]" = None,
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
    size = rows.size
    keys = composite_keys(rows, cols, num_cols, arena)
    order = np.argsort(keys, kind="stable" if stable else None)
    if arena is None:
        sorted_keys = keys[order]
    else:
        # ``mode="clip"``, here and at every buffered gather of the
        # kernels: under the default ``"raise"`` numpy stages ``out``
        # through a full-size temporary and copies it over. Nothing is
        # ever clipped — the indices come from ``argsort``, or from
        # ``indptr`` / ``indices``, which ``Graph.__init__`` validates and
        # ``open_mapped`` re-checks: ``indptr`` always, ``indices`` and
        # ``weights`` whenever the graph does not stream.
        sorted_keys = np.take(keys, order, out=arena.take(size), mode="clip")
    boundary = (
        np.empty(size, dtype=bool)
        if arena is None
        else arena.take(size, dtype=bool)
    )
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return order, sorted_keys, starts


def _split_keys(
    keys: np.ndarray,
    num_cols: int,
    arena: "Optional[ScratchArena]" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split composite keys back into ``(rows, cols)``."""
    if arena is None:
        return np.divmod(keys, np.int64(num_cols))
    rows = np.floor_divide(keys, np.int64(num_cols), out=arena.take(keys.size))
    cols = np.remainder(keys, np.int64(num_cols), out=arena.take(keys.size))
    return rows, cols


def segment_min(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    num_cols: int,
    arena: "Optional[ScratchArena]" = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum of ``values`` per distinct ``(row, col)`` cell.

    Returns ``(cell_rows, cell_cols, minima)`` in row-major cell order —
    the same cells, in the same order, as :func:`dedup_pairs` on the
    same input, with the per-cell minimum attached. Bit-identical to
    ``np.minimum.at`` into an all-``inf`` accumulator followed by a
    sparse collect (``min`` is order-independent, so the unstable — and
    measurably faster — introsort is safe), but via one argsort and one
    ``np.minimum.reduceat`` over the grouped candidates.

    With ``arena``, every intermediate lives in pooled buffers and the
    returned arrays are arena-backed (valid for the arena's keepalive
    window — copy to persist longer).
    """
    if rows.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=values.dtype)
    order, sorted_keys, starts = _sorted_segments(
        rows, cols, num_cols, arena, stable=False
    )
    if arena is None:
        sorted_values = values[order]
        minima = np.minimum.reduceat(sorted_values, starts)
    else:
        sorted_values = np.take(
            values, order, out=arena.take(values.size, dtype=values.dtype),
            mode="clip",
        )
        minima = np.minimum.reduceat(
            sorted_values, starts, out=arena.take(starts.size, values.dtype)
        )
    cell_rows, cell_cols = _split_keys(sorted_keys[starts], num_cols, arena)
    return cell_rows, cell_cols, minima


def segment_sum(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    num_cols: int,
    arena: "Optional[ScratchArena]" = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum of ``values`` per distinct ``(row, col)`` cell.

    Same contract as :func:`segment_min` with ``np.add.reduceat`` as the
    reducer. The stable sort preserves each cell's original candidate
    order, but ``np.add.reduceat`` reduces each run with *pairwise*
    summation while ``np.add.at`` accumulates sequentially — for
    general float inputs the per-cell sums can therefore differ in the
    last ulp. Every in-repo call site keeps exactness anyway: the
    summands per cell are either all-ones walk counts (integer-exact in
    float64) or equal per-source shares on duplicate-free arc lists
    (cells of size one). The equivalence tests assert bit-identity for
    those regimes and ``allclose`` for arbitrary floats.
    """
    if rows.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=values.dtype)
    order, sorted_keys, starts = _sorted_segments(rows, cols, num_cols, arena)
    if arena is None:
        sorted_values = values[order]
        sums = np.add.reduceat(sorted_values, starts)
    else:
        sorted_values = np.take(
            values, order, out=arena.take(values.size, dtype=values.dtype),
            mode="clip",
        )
        sums = np.add.reduceat(
            sorted_values, starts, out=arena.take(starts.size, values.dtype)
        )
    cell_rows, cell_cols = _split_keys(sorted_keys[starts], num_cols, arena)
    return cell_rows, cell_cols, sums


def scatter_min_dense(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    state: np.ndarray,
    mask: np.ndarray,
    arena: "Optional[ScratchArena]" = None,
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
    keys = composite_keys(rows, cols, num_cols, arena)
    flat_mask = mask.reshape(-1)
    flat_state = state.reshape(-1)
    flat_mask[keys] = True
    cells = np.flatnonzero(flat_mask)
    flat_mask[cells] = False
    if arena is None:
        before = flat_state[cells]
        np.minimum.at(flat_state, keys, values)
        after = flat_state[cells]
    else:
        before = np.take(
            flat_state, cells, out=arena.take(cells.size, state.dtype),
            mode="clip",
        )
        np.minimum.at(flat_state, keys, values)
        after = np.take(
            flat_state, cells, out=arena.take(cells.size, state.dtype),
            mode="clip",
        )
    return cells, before, after
