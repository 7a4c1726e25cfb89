"""Graph serialization: edge-list text and the on-disk CSR directory.

The text format matches what the paper's systems ingest from SNAP dumps:
one ``src dst [weight]`` triple per line, ``#`` comments allowed.

The binary format — the only one graphs are cached in — is a *CSR
directory* holding the raw arrays as plain ``.npy`` files
(``indptr.npy`` / ``indices.npy`` / ``weights.npy``) plus a
``graph.json`` sidecar, written last, with the metadata and the content
fingerprint. :func:`open_mapped` serves such a directory as a plain
:class:`Graph` over read-only views of the file maps: the page cache
decides what is resident, and whether a round streams is decided by
size (:func:`repro.graph.csr.streaming_block_arcs`), not by where the
arrays live.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import struct
import tempfile
import weakref
from time import perf_counter
from typing import List, Optional, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_edges
from repro.graph.csr import (
    Graph,
    row_blocks,
    streaming_block_arcs,
    transpose_rows,
)
from repro.perf import timings

PathLike = Union[str, "os.PathLike[str]"]

#: Parsed lines buffered per chunk by :func:`read_edge_list`.
EDGE_LIST_CHUNK_LINES = 65536

#: CSR-directory metadata sidecar name.
GRAPH_META_NAME = "graph.json"

#: CSR-directory format version written to ``graph.json``.
CSR_DIR_FORMAT = 1

#: Marker written after a streamed graph's ``A^T`` files.
TRANSPOSE_META_NAME = "transpose.json"


def write_edge_list(graph: Graph, path: PathLike, header: bool = True) -> None:
    """Write ``graph`` as a text edge list (one arc per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {graph.name}\n")
            fh.write(
                f"# nodes: {graph.num_vertices} arcs: {graph.num_arcs} "
                f"directed: {graph.directed}\n"
            )
        if graph.weights is None:
            for src, dst, _ in graph.iter_edges():
                fh.write(f"{src} {dst}\n")
        else:
            for src, dst, weight in graph.iter_edges():
                fh.write(f"{src} {dst} {weight:.10g}\n")


def read_edge_list(
    path: PathLike,
    directed: bool = True,
    num_vertices: Optional[int] = None,
    dedup: bool = False,
    name: Optional[str] = None,
) -> Graph:
    """Parse a whitespace edge list into a :class:`Graph`.

    Accepts 2-column (unweighted) or 3-column (weighted) rows; blank
    lines and ``#`` comments are skipped. Mixing widths is an error.

    Lines are parsed in :data:`EDGE_LIST_CHUNK_LINES`-sized chunks that
    are converted to numpy arrays as they fill, so the transient peak
    is one chunk of Python objects plus the final arrays — not the
    several-times-final-size list-of-ints the old single-pass
    accumulation held.
    """
    src_chunks: List[np.ndarray] = []
    dst_chunks: List[np.ndarray] = []
    weight_chunks: List[np.ndarray] = []
    buffer: List[tuple] = []
    width: Optional[int] = None

    def flush() -> None:
        if not buffer:
            return
        src_chunks.append(np.asarray([b[0] for b in buffer], dtype=np.int64))
        dst_chunks.append(np.asarray([b[1] for b in buffer], dtype=np.int64))
        if width == 3:
            weight_chunks.append(
                np.asarray([b[2] for b in buffer], dtype=np.float64)
            )
        buffer.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if width is None:
                width = len(parts)
                if width not in (2, 3):
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected 2 or 3 columns, got {width}"
                    )
            elif len(parts) != width:
                raise GraphFormatError(
                    f"{path}:{lineno}: inconsistent column count"
                )
            try:
                if width == 3:
                    buffer.append(
                        (int(parts[0]), int(parts[1]), float(parts[2]))
                    )
                else:
                    buffer.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
            if len(buffer) >= EDGE_LIST_CHUNK_LINES:
                flush()
    flush()
    empty = np.empty(0, dtype=np.int64)
    return from_edges(
        np.concatenate(src_chunks) if src_chunks else empty,
        np.concatenate(dst_chunks) if dst_chunks else empty,
        np.concatenate(weight_chunks) if weight_chunks else None,
        num_vertices=num_vertices,
        directed=directed,
        dedup=dedup,
        name=name or os.path.basename(os.fspath(path)),
    )


# ----------------------------------------------------------------------
# On-disk CSR directories
# ----------------------------------------------------------------------


class NpyStreamWriter:
    """Stream 1-D array chunks into ``path`` as a standard ``.npy`` file.

    The element count is unknown until the stream ends (the external
    merge discovers the deduplicated arc count as it goes), so a
    fixed-width version-1.0 header with the shape field padded to
    reserve 20 count digits is written up front and patched in place on
    :meth:`close`. The result is indistinguishable from ``np.save``
    output: ``np.load`` reads it plain or with ``mmap_mode``.
    """

    #: Total header bytes including magic — a multiple of 64, as the
    #: ``.npy`` spec requests for alignment, and wide enough for any
    #: int64-counted shape.
    HEADER_BYTES = 128

    _MAGIC = b"\x93NUMPY\x01\x00"

    def __init__(self, path: PathLike, dtype) -> None:
        self.path = os.fspath(path)
        self.dtype = np.dtype(dtype)
        self.count = 0
        self._fh: Optional[object] = open(self.path, "wb")
        self._fh.write(self._header(0))

    def _header(self, count: int) -> bytes:
        descr = np.lib.format.dtype_to_descr(self.dtype)
        body = (
            "{'descr': %r, 'fortran_order': False, 'shape': (%d,), }"
            % (descr, count)
        )
        room = self.HEADER_BYTES - len(self._MAGIC) - 2
        if len(body) + 1 > room:
            raise GraphFormatError(
                f"{self.path}: .npy header does not fit {room} bytes"
            )
        body = body + " " * (room - len(body) - 1) + "\n"
        return self._MAGIC + struct.pack("<H", room) + body.encode("latin1")

    def write(self, chunk: np.ndarray) -> None:
        """Append one 1-D chunk (converted to the writer's dtype)."""
        chunk = np.ascontiguousarray(chunk, dtype=self.dtype)
        self._fh.write(chunk.tobytes())
        self.count += chunk.size

    def close(self) -> int:
        """Patch the real element count into the header; returns it."""
        if self._fh is None:
            return self.count
        self._fh.flush()
        self._fh.seek(0)
        self._fh.write(self._header(self.count))
        self._fh.close()
        self._fh = None
        return self.count

    def __enter__(self) -> "NpyStreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _meta_path(directory: PathLike) -> str:
    return os.path.join(os.fspath(directory), GRAPH_META_NAME)


def is_csr_dir(directory: PathLike) -> bool:
    """True when ``directory`` looks like a complete CSR directory."""
    directory = os.fspath(directory)
    if not os.path.isfile(_meta_path(directory)):
        return False
    return all(
        os.path.isfile(os.path.join(directory, name))
        for name in ("indptr.npy", "indices.npy")
    )


def write_csr_meta(
    directory: PathLike,
    name: str,
    directed: bool,
    num_vertices: int,
    num_arcs: int,
    weighted: bool,
    fingerprint: Optional[str] = None,
) -> None:
    """Write the ``graph.json`` sidecar of a CSR directory, last of its
    files; without a ``fingerprint`` the arrays on disk are hashed."""
    meta = {
        "format": CSR_DIR_FORMAT,
        "name": name,
        "directed": bool(directed),
        "num_vertices": int(num_vertices),
        "num_arcs": int(num_arcs),
        "weighted": bool(weighted),
    }
    meta["fingerprint"] = fingerprint or fingerprint_csr_dir(directory, meta)
    _write_json(_meta_path(directory), meta)


def _write_json(path: str, payload: dict) -> None:
    """Write a sidecar or marker whole: renamed into place from a file
    of this process's own, so two writers never share a tmp file."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


def _map(directory: str, name: str) -> np.ndarray:
    """Read-only map of one ``.npy`` file of ``directory`` — a
    base-class view: no ``np.memmap`` subclass work per slice."""
    mapped = np.load(os.path.join(directory, name), mmap_mode="r")
    return mapped.view(np.ndarray)


def _is_pointer_run(indptr: np.ndarray, num_arcs: int) -> bool:
    """Does ``indptr`` start at 0, end at ``num_arcs`` and never
    decrease? (One pass over a vertex-sized array.)"""
    return bool(
        indptr[0] == 0
        and indptr[-1] == num_arcs
        and not np.any(np.diff(indptr) < 0)
    )


def fingerprint_csr_dir(
    directory: PathLike,
    meta: Optional[dict] = None,
    chunk_bytes: int = 1 << 24,
) -> str:
    """Content hash of a CSR directory's arrays, streamed file by file
    in the exact byte order :attr:`Graph.fingerprint` hashes, so a
    graph has one fingerprint (and thus one set of cached derived
    artifacts) wherever its arrays live. ``meta`` stands in for a
    sidecar not written yet."""
    import hashlib

    directory = os.fspath(directory)
    if meta is None:
        with open(_meta_path(directory), "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(b"directed" if meta["directed"] else b"undirected")
    names = ["indptr.npy", "indices.npy"]
    if meta["weighted"]:
        names.append("weights.npy")
    for file_name in names:
        array = np.load(os.path.join(directory, file_name), mmap_mode="r")
        step = max(1, chunk_bytes // array.itemsize)
        for start in range(0, array.size, step):
            digest.update(np.ascontiguousarray(array[start : start + step]))
    return digest.hexdigest()


def open_mapped(directory: PathLike) -> Graph:
    """Open a CSR directory as a :class:`Graph` over read-only views of
    its file maps (zero-copy; ``graph.directory`` names it).

    Bypasses ``Graph.__init__`` — the sidecar carries the fingerprint
    the builder computed — but proves what that proves: sizes and
    ``indptr`` always (vertex-sized work); neighbour ids and weights
    unless the graph streams, where faulting every page in is the cost
    the budget exists to avoid.
    """
    directory = os.fspath(directory)
    meta_path = _meta_path(directory)
    if not os.path.isfile(meta_path):
        raise GraphFormatError(f"{directory}: not a CSR directory")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("format") != CSR_DIR_FORMAT:
        raise GraphFormatError(
            f"{directory}: unsupported CSR directory format "
            f"{meta.get('format')!r}"
        )
    indptr = _map(directory, "indptr.npy")
    indices = _map(directory, "indices.npy")
    weights = _map(directory, "weights.npy") if meta["weighted"] else None
    if indptr.size != meta["num_vertices"] + 1 or (
        indices.size != meta["num_arcs"]
    ):
        raise GraphFormatError(
            f"{directory}: array sizes disagree with graph.json"
        )
    if weights is not None and weights.size != meta["num_arcs"]:
        raise GraphFormatError(
            f"{directory}: weights.npy holds {weights.size} entries, "
            f"graph.json promises {meta['num_arcs']}"
        )
    # The kernels gather arcs by position along ``indptr`` without a
    # range check (``mode="clip"``): one pass over the vertex-sized
    # array proves here what ``Graph.__init__`` proves in RAM.
    if not _is_pointer_run(indptr, indices.size):
        raise GraphFormatError(
            f"{directory}: indptr.npy is not a non-decreasing run from 0 "
            f"to {indices.size}"
        )
    graph = Graph.__new__(Graph)._adopt(
        indptr, indices, weights, meta["directed"], str(meta["name"]),
        str(meta["fingerprint"]), directory,
    )
    if streaming_block_arcs(graph) is None:
        n = graph.num_vertices
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphFormatError(
                f"{directory}: indices.npy holds a neighbour id outside "
                f"[0, {n})"
            )
        if weights is not None and np.any(weights < 0):
            raise GraphFormatError(
                f"{directory}: weights.npy holds a negative weight"
            )
    return graph


def quarantine_csr_dir(directory: PathLike) -> str:
    """Move a torn CSR directory aside as ``<dir>.corrupt``.

    Mirrors the artifact cache's corrupted-``.npz`` handling
    (:meth:`repro.perf.cache.ArtifactCache._load`): the bad bytes are
    preserved for post-mortem instead of being overwritten in place, a
    fresh build can recreate the directory under its original name,
    and the event is counted in the cache stats (``corruptions``) so
    it surfaces in ``BENCH_perf.json``. An earlier quarantine of the
    same directory is replaced — only the latest evidence is kept.
    Returns the quarantine path.
    """
    directory = os.fspath(directory).rstrip(os.sep)
    target = directory + ".corrupt"
    if os.path.isdir(target):
        shutil.rmtree(target, ignore_errors=True)
    os.replace(directory, target)
    from repro.perf.cache import get_cache

    get_cache().stats.corruptions += 1
    return target


def load_csr_dir(directory: PathLike) -> Optional[Graph]:
    """Tolerant :func:`open_mapped`: quarantine-and-``None`` on damage.

    A readable, consistent CSR directory opens as usual. A *torn* one —
    truncated arrays, sizes disagreeing with ``graph.json``, unparsable
    metadata (a crash mid-write; the sidecar is written last exactly so
    this window is detectable) — or one whose bytes no longer hash to
    the sidecar's fingerprint (checked unless the graph streams: else
    its pages are about to be read anyway) is moved aside via
    :func:`quarantine_csr_dir` and ``None`` is returned: callers
    rebuild into a clean directory. A directory that simply does not
    exist also returns ``None``, with nothing to quarantine.
    """
    directory = os.fspath(directory)
    if not is_csr_dir(directory):
        return None
    try:
        graph = open_mapped(directory)
        if streaming_block_arcs(graph) is None and (
            fingerprint_csr_dir(directory) != graph.fingerprint
        ):
            raise GraphFormatError(
                f"{directory}: content does not match its fingerprint"
            )
        return graph
    except (OSError, ValueError, KeyError, GraphFormatError):
        quarantine_csr_dir(directory)
        return None


def save_mapped(graph: Graph, directory: PathLike) -> Graph:
    """Write ``graph``'s CSR arrays into ``directory`` (sidecar last)
    and open the result (for graphs built in RAM — the out-of-core
    builder writes directories without ever holding the arrays, see
    :func:`repro.graph.build.build_csr_on_disk`). Each file is renamed
    into place, so a live map of an earlier copy keeps its bytes and
    two processes filling one cache directory swap identical files."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    arrays = {"indptr.npy": graph.indptr, "indices.npy": graph.indices}
    if graph.weights is not None:
        arrays["weights.npy"] = graph.weights
    for file_name, array in arrays.items():
        path = os.path.join(directory, file_name)
        with open(f"{path}.tmp-{os.getpid()}", "wb") as fh:
            np.save(fh, array)
        os.replace(fh.name, path)
    write_csr_meta(
        directory,
        name=graph.name,
        directed=graph.directed,
        num_vertices=graph.num_vertices,
        num_arcs=graph.num_arcs,
        weighted=graph.weights is not None,
        fingerprint=graph.fingerprint,
    )
    return open_mapped(directory)


# ----------------------------------------------------------------------
# ``A^T`` of a graph that streams (DESIGN.md §11.3)
# ----------------------------------------------------------------------

#: Its files: indptr, sources and — for a weighted graph — weights.
TRANSPOSE_FILES = (
    "transpose-indptr.npy", "transpose-sources.npy", "transpose-weights.npy"
)


def mapped_transposition(graph: Graph):
    """:meth:`Graph.transposition` of a graph that streams: read-only
    maps of its :data:`TRANSPOSE_FILES` in its CSR directory (a resident
    graph's in a scratch one, removed with the maps). Files whose
    ``transpose.json`` marker, sizes or ``indptr`` do not check out — an
    O(n) check, never the arcs — or that are missing are written first
    (:func:`write_transposition`)."""
    if graph.directory is None:
        scratch = tempfile.mkdtemp(prefix="repro-transpose-")
        arrays = write_transposition(graph, scratch)
        weakref.finalize(arrays[1], shutil.rmtree, scratch, ignore_errors=True)
        return arrays
    try:
        return _open_transposition(graph, graph.directory)
    except (OSError, ValueError, GraphFormatError):
        return write_transposition(graph, graph.directory)


def _transpose_marker(graph: Graph) -> dict:
    """What binds ``A^T`` files to their graph."""
    return {
        "fingerprint": graph.fingerprint,
        "num_vertices": graph.num_vertices,
        "num_arcs": graph.num_arcs,
        "weighted": graph.weights is not None,
    }


def _open_transposition(graph: Graph, directory: str):
    with open(os.path.join(directory, TRANSPOSE_META_NAME), "rb") as fh:
        if json.load(fh) != _transpose_marker(graph):
            raise GraphFormatError(f"{directory}: A^T of another graph")
    return _map_transposition(graph, directory)


def _map_transposition(graph: Graph, directory: str):
    names = TRANSPOSE_FILES[: 2 + graph.is_weighted]
    indptr, *arcs = [_map(directory, name) for name in names]
    if indptr.size != graph.num_vertices + 1 or any(
        array.size != graph.num_arcs for array in arcs
    ) or not _is_pointer_run(indptr, graph.num_arcs):
        raise GraphFormatError(f"{directory}: torn A^T files")
    return indptr, arcs[0], arcs[1] if graph.is_weighted else None


def write_transposition(graph: Graph, directory: PathLike):
    """Write ``graph``'s ``A^T`` files into ``directory`` by one counting
    pass over :func:`repro.graph.csr.row_blocks`, holding vertex-sized
    state and one block of arcs — the ``--max-ram`` budget — and open
    them. Sweep one range-proves each block's neighbour ids (the
    conversion does not check them) and sums their in-degrees into
    ``indptr``; sweep two transposes each block
    (:func:`repro.graph.csr.transpose_rows`) and writes every target's
    group at its cursor in the mapped output. Blocks come in row order,
    so each in-list keeps position order: the in-RAM transposition's
    bytes. Files are renamed into place, the marker last; the pass is
    booked as phase ``graph-transpose``."""
    tick = perf_counter()
    directory = os.fspath(directory)
    n, m = graph.num_vertices, graph.num_arcs
    marker = os.path.join(directory, TRANSPOSE_META_NAME)
    # Another writer of this directory may have removed it first.
    with contextlib.suppress(FileNotFoundError):
        os.unlink(marker)
    blocks = list(row_blocks(graph))
    in_degrees = np.zeros(n, dtype=np.int64)
    for _, _, arc_lo, arc_hi in blocks:
        targets = graph.indices[arc_lo:arc_hi]
        if targets.min() < 0 or targets.max() >= n:
            raise GraphFormatError(
                f"{directory}: indices.npy holds a neighbour id outside "
                f"[0, {n})"
            )
        in_degrees += np.bincount(targets, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(in_degrees)))
    paths = [
        os.path.join(directory, name)
        for name in TRANSPOSE_FILES[: 2 + graph.is_weighted]
    ]
    tmp = [f"{path}.tmp-{os.getpid()}" for path in paths]
    with open(tmp[0], "wb") as fh:
        np.save(fh, indptr)
    outputs = [
        np.lib.format.open_memmap(path, mode="w+", dtype=dtype, shape=(m,))
        for path, dtype in zip(tmp[1:], (np.int64, np.float64))
    ]
    cursor = indptr[:-1].copy()
    for lo, hi, arc_lo, arc_hi in blocks:
        local, *columns = transpose_rows(graph, lo, hi, arc_lo, arc_hi)
        counts = np.diff(local)
        at = np.repeat(cursor - local[:-1], counts)
        at += np.arange(arc_hi - arc_lo)
        for output, column in zip(outputs, columns):
            output[at] = column
        cursor += counts
    for output in outputs:
        output.flush()
    del outputs
    for source, path in zip(tmp, paths):
        os.replace(source, path)
    _write_json(marker, _transpose_marker(graph))
    timings.add("graph-transpose", perf_counter() - tick)
    # Not through the marker: a concurrent writer may have unlinked it.
    return _map_transposition(graph, directory)
