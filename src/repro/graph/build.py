"""Builders that turn edge collections into :class:`~repro.graph.csr.Graph`.

The builders accept anything array-like: a sequence of ``(src, dst)``
pairs, or separate numpy arrays. Options cover the clean-ups the paper's
loaders perform implicitly: symmetrising an undirected edge list,
dropping self loops, and de-duplicating parallel edges.
"""

from __future__ import annotations

import contextlib
import os
import shutil
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import Graph, sorted_unique, streaming_block_arcs


def from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    num_vertices: Optional[int] = None,
    directed: bool = True,
    dedup: bool = False,
    drop_self_loops: bool = False,
    name: str = "graph",
) -> Graph:
    """Build a CSR :class:`Graph` from parallel arrays of arc endpoints.

    Parameters
    ----------
    src, dst:
        arc endpoints; integer arrays of equal length.
    num_vertices:
        total vertex count; inferred as ``max(endpoint) + 1`` when omitted.
    directed:
        if ``False``, the reverse of every arc is added (unless already
        present and ``dedup`` is set) and the result reports undirected
        edge counts.
    dedup:
        drop duplicate ``(src, dst)`` pairs.
    drop_self_loops:
        remove arcs with ``src == dst``.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise GraphFormatError("src and dst arrays must have equal length")

    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("vertex ids must be non-negative")
    inferred_n = int(max(src.max(), dst.max()) + 1) if src.size else 0
    if num_vertices is None:
        num_vertices = inferred_n
    elif num_vertices < inferred_n:
        raise GraphFormatError(
            f"num_vertices={num_vertices} but edges reference vertex "
            f"{inferred_n - 1}"
        )

    if dedup and src.size:
        # Fresh key arrays: the caller's endpoints are never written.
        stride = np.int64(num_vertices)
        keys = src * stride + dst
        if not directed:
            keys = np.concatenate([keys, dst * stride + src])
        return _graph_from_keys(
            sorted_unique(keys), num_vertices, directed, drop_self_loops, name
        )

    if drop_self_loops and src.size:
        keep = src != dst
        src, dst = src[keep], dst[keep]

    if not directed and src.size:
        src, dst = _symmetrise(src, dst)

    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return Graph(indptr, dst, directed=directed, name=name)


def from_owned_endpoints(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    directed: bool = True,
    name: str = "graph",
) -> Graph:
    """:func:`from_edges` with ``dedup=True, drop_self_loops=True`` for
    endpoint arrays the caller gives up.

    ``src`` and ``dst`` must be ``int64`` arrays of ids in
    ``[0, num_vertices)`` that nobody else reads afterwards (the
    generators' own draws): the composite keys are formed *in* them, so
    the build holds no second copy of the arc list. Pass them as
    temporaries and they are freed as soon as the keys exist.
    """
    stride = np.int64(num_vertices)
    if directed:
        keys = src
        keys *= stride
        keys += dst
    else:
        keys = np.concatenate([src, dst])
        keys *= stride
        keys[: src.size] += dst
        keys[src.size :] += src
    del src, dst
    arcs = sorted_unique(keys)
    del keys  # the sampled list is dead weight from here on
    return _graph_from_keys(arcs, num_vertices, directed, True, name)


def _graph_from_keys(
    keys: np.ndarray,
    num_vertices: int,
    directed: bool,
    drop_self_loops: bool,
    name: str,
) -> Graph:
    """Graph from its sorted, distinct composite ``src * n + dst`` arc
    keys (an owned array, split in place).

    Sorted unique keys *are* the arcs in ``(src, dst)`` order, so one
    split yields the CSR columns. Self loops go after the de-dup: the
    same arcs survive as when dropping them first, and the filter runs
    over the distinct arcs instead of every listed one.
    """
    stride = np.int64(num_vertices)
    src = keys // stride
    dst = keys
    dst -= src * stride
    if drop_self_loops:
        keep = src != dst
        if not keep.all():
            src, dst = src[keep], dst[keep]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return Graph(indptr, dst, directed=directed, name=name)


def from_edge_list(
    edges: Iterable[Tuple[int, int]],
    num_vertices: Optional[int] = None,
    directed: bool = True,
    dedup: bool = False,
    drop_self_loops: bool = False,
    name: str = "graph",
) -> Graph:
    """Build a graph from an iterable of ``(src, dst)`` pairs."""
    edge_list = list(edges)
    if any(len(edge) != 2 for edge in edge_list):
        raise GraphFormatError("edges must be (src, dst) pairs")
    arr = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    return from_edges(
        arr[:, 0],
        arr[:, 1],
        num_vertices=num_vertices,
        directed=directed,
        dedup=dedup,
        drop_self_loops=drop_self_loops,
        name=name,
    )


def _symmetrise(
    src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Append the reverse of every arc (caller dedups if needed)."""
    return np.concatenate([src, dst]), np.concatenate([dst, src])


# ----------------------------------------------------------------------
# Out-of-core build: edge blocks -> external merge -> on-disk CSR
# ----------------------------------------------------------------------

#: Working bytes one in-flight edge costs inside the chunked builder:
#: the endpoint draws, their cleaned copies, composite keys, the
#: distinct-key copy and the boundary mask (undirected graphs double it
#: for the symmetrised reverse arcs).
BUILD_BYTES_PER_EDGE = 48

#: Elements loaded per run per refill during the K-way merge.
DEFAULT_MERGE_CHUNK = 1 << 18


def choose_block_edges(
    directed: bool = True, budget_bytes: Optional[int] = None
) -> int:
    """Edges per generation block honouring the ``--max-ram`` budget
    (half the budget goes to the block in flight, half to the merge
    buffers and counts array); the largest block when none is set."""
    from repro.graph.csr import streaming_budget_bytes

    budget = budget_bytes or streaming_budget_bytes()
    if budget is None:
        return 1 << 23
    per_edge = BUILD_BYTES_PER_EDGE * (1 if directed else 2)
    return int(min(max(budget // (per_edge * 2), 1 << 16), 1 << 23))


def build_csr_on_disk(
    blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
    num_vertices: int,
    directory: "os.PathLike[str]",
    directed: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = True,
    name: str = "graph",
    merge_chunk: int = DEFAULT_MERGE_CHUNK,
):
    """Build an on-disk CSR directory from an edge-block stream.

    ``blocks`` yields ``(src, dst)`` arrays; each block is cleaned (self
    loops, symmetrisation), sorted by composite ``src * n + dst`` key,
    deduplicated within itself, and spilled as a sorted run. A
    vectorised K-way merge then streams the runs into ``indices.npy``
    while accumulating the per-source arc counts (integer-exact, so
    chunking cannot change them), and ``indptr.npy`` plus the
    ``graph.json`` sidecar are written at the end. At no point does the
    full edge list — or any O(m) intermediate — exist in memory.

    Byte-identity with the in-RAM path holds by construction: the merge
    emits the globally sorted unique composite keys, which is exactly
    what :func:`from_edges`' de-dup splits into arcs. ``dedup=False`` is
    rejected — a merge of sorted runs cannot reproduce the undeduped
    input order.

    Returns the finished directory, opened
    (:func:`repro.graph.io.open_mapped`) — with its ``A^T`` files
    written beside, when the graph streams.
    """
    from repro.graph.io import NpyStreamWriter, open_mapped, write_csr_meta

    if not dedup:
        raise GraphFormatError(
            "build_csr_on_disk requires dedup=True: the external merge "
            "emits unique sorted arcs"
        )
    if num_vertices < 0:
        raise GraphFormatError("num_vertices must be non-negative")
    if num_vertices and num_vertices > int(np.sqrt(2**63 - 1)):
        raise GraphFormatError(
            "num_vertices too large for int64 composite keys"
        )
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    # Everything is written under names of this process's own and
    # renamed into place, so concurrent builders of one directory swap
    # identical files and never truncate a file another one has mapped.
    tmp = f".tmp-{os.getpid()}"
    runs_dir = os.path.join(directory, "runs" + tmp)
    shutil.rmtree(runs_dir, ignore_errors=True)
    os.makedirs(runs_dir)
    paths = [
        os.path.join(directory, file_name)
        for file_name in ("indptr.npy", "indices.npy")
    ]

    def spill_run(
        src: np.ndarray, dst: np.ndarray, run_id: int
    ) -> Optional[str]:
        """Clean, sort, dedup and write one block as a sorted run."""
        if src.min() < 0 or dst.min() < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        if max(int(src.max()), int(dst.max())) >= num_vertices:
            raise GraphFormatError(
                "edge endpoint out of range for num_vertices"
            )
        if drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        if not directed and src.size:
            src, dst = _symmetrise(src, dst)
        if src.size == 0:
            return None
        path = os.path.join(runs_dir, f"run-{run_id:06d}-keys.npy")
        np.save(path, sorted_unique(src * np.int64(num_vertices) + dst))
        return path

    run_paths = []
    try:
        for run_id, (src, dst) in enumerate(blocks):
            src = np.asarray(src, dtype=np.int64).ravel()
            dst = np.asarray(dst, dtype=np.int64).ravel()
            if src.shape != dst.shape:
                raise GraphFormatError(
                    "src and dst arrays must have equal length"
                )
            if src.size == 0:
                continue
            path = spill_run(src, dst, run_id)
            if path is not None:
                run_paths.append(path)

        counts = np.zeros(num_vertices, dtype=np.int64)
        indices_writer = NpyStreamWriter(paths[1] + tmp, np.int64)
        for batch_keys in _merge_sorted_runs(run_paths, merge_chunk):
            counts += np.bincount(
                batch_keys // np.int64(num_vertices), minlength=num_vertices
            )
            indices_writer.write(batch_keys % np.int64(num_vertices))
        num_arcs = indices_writer.close()
        indptr = np.concatenate(([0], np.cumsum(counts)))
        if int(indptr[-1]) != num_arcs:
            raise GraphFormatError(
                "merge count mismatch: "
                f"indptr says {int(indptr[-1])}, wrote {num_arcs} arcs"
            )
        with open(paths[0] + tmp, "wb") as fh:
            np.save(fh, indptr)
        del counts, indptr
        for path in paths:
            os.replace(path + tmp, path)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        for path in paths:  # left only by a failed build
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path + tmp)

    write_csr_meta(
        directory,
        name=name,
        directed=directed,
        num_vertices=num_vertices,
        num_arcs=num_arcs,
    )
    graph = open_mapped(directory)
    if streaming_block_arcs(graph) is not None:
        graph.transposition()
    return graph


def _merge_sorted_runs(run_paths, merge_chunk: int) -> Iterator[np.ndarray]:
    """K-way merge of sorted-unique key runs, vectorised over batches.

    Each iteration loads at most ``merge_chunk`` elements per run,
    finds the smallest "boundary" key any partially-loaded run is
    guaranteed to have fully surfaced, and emits every element ``<=``
    boundary across all runs, deduplicated. Equal keys always fall in
    the same batch — every instance compares ``<=`` the boundary — so
    batches are globally sorted, unique, and complete.
    """
    key_maps = [np.load(path, mmap_mode="r") for path in run_paths]
    cursors = [0] * len(run_paths)
    buffers = [np.empty(0, dtype=np.int64) for _ in run_paths]
    while True:
        for i, keys in enumerate(key_maps):
            if buffers[i].size == 0 and cursors[i] < keys.size:
                stop = cursors[i] + merge_chunk
                buffers[i] = np.asarray(keys[cursors[i] : stop])
                cursors[i] = min(stop, keys.size)
        active = [i for i in range(len(buffers)) if buffers[i].size]
        if not active:
            return
        # A run loaded only partially caps the batch at its last loaded
        # key; fully-drained runs impose no cap.
        partial_tails = [
            int(buffers[i][-1])
            for i in active
            if cursors[i] < key_maps[i].size
        ]
        boundary = (
            min(partial_tails)
            if partial_tails
            else max(int(buffers[i][-1]) for i in active)
        )
        batch_parts = []
        for i in active:
            take = int(
                np.searchsorted(buffers[i], boundary, side="right")
            )
            if take == 0:
                continue
            batch_parts.append(buffers[i][:take])
            buffers[i] = buffers[i][take:]
        if len(batch_parts) == 1:
            # One run's slice: sorted and unique as it was spilled.
            yield batch_parts[0]
        else:
            yield sorted_unique(np.concatenate(batch_parts))
