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

import json
import os
import struct
from typing import List, Optional, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_edges
from repro.graph.csr import Graph, streaming_block_arcs

PathLike = Union[str, "os.PathLike[str]"]

#: Parsed lines buffered per chunk by :func:`read_edge_list`.
EDGE_LIST_CHUNK_LINES = 65536

#: CSR-directory metadata sidecar name.
GRAPH_META_NAME = "graph.json"

#: CSR-directory format version written to ``graph.json``.
CSR_DIR_FORMAT = 1


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
    path = _meta_path(directory)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


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

    def view(name: str) -> np.ndarray:
        # Base-class views: no ``np.memmap`` subclass work per slice.
        mapped = np.load(os.path.join(directory, name), mmap_mode="r")
        return mapped.view(np.ndarray)

    indptr = view("indptr.npy")
    indices = view("indices.npy")
    weights = view("weights.npy") if meta["weighted"] else None
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
    if indptr[0] != 0 or indptr[-1] != indices.size or (
        np.any(np.diff(indptr) < 0)
    ):
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
    import shutil

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
