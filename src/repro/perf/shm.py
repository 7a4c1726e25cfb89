"""Zero-copy graph transport for process pools via shared memory.

Fanning experiments out over workers (``vcrepro report --jobs 4``) used
to make every worker rebuild or deserialize its own private copy of
each dataset graph: the payloads crossing the pipe are ``(experiment,
config)`` pairs, so the graphs were re-created once per worker process.
This module ships each distinct graph to the workers **at most once**:

* the parent prebuilds the datasets the selected experiments need and
  :meth:`SharedGraphRegistry.export`\\ s their CSR arrays into one
  POSIX shared-memory segment per graph (deduplicated by
  :attr:`~repro.graph.csr.Graph.fingerprint`);
* the pool initializer installs the resulting ``{dataset key ->
  GraphHandle}`` table in each worker
  (:func:`install_worker_table`);
* worker-side :func:`repro.graph.datasets.load_dataset` consults
  :func:`lookup_shared` first and, on a hit, maps the segment
  read-only and wraps it in a :class:`~repro.graph.csr.Graph` without
  copying, validating, or re-fingerprinting anything. Attachments are
  cached per process, so even repeated loads map each segment once.

A miss anywhere simply falls back to the regular artifact-cache path —
shared memory is a transport optimization, never a correctness
dependency. The parent unlinks every exported segment at pool shutdown
or interpreter exit (``atexit``), whichever comes first.

Huge-page backing: segments of at least
:data:`HUGE_PAGE_THRESHOLD_BYTES` are
``madvise(MADV_HUGEPAGE)``\\ d right after creation (before the CSR
copy faults their pages in), so the kernel can back the graph arrays
with transparent huge pages and cut TLB pressure on the scatter
kernels' random reads. Platforms without the advice (or kernels that
refuse it) warn once and stay on base pages — the
``huge_page_segments``/``huge_page_bytes`` counters in
:func:`shm_stats` record what actually got advised.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "HUGE_PAGE_THRESHOLD_BYTES",
    "GraphHandle",
    "SharedGraphRegistry",
    "get_registry",
    "lookup_shared",
    "install_worker_table",
    "shutdown_shared_graphs",
    "shm_stats",
    "merge_counters",
]

_INT = np.dtype(np.int64)
_FLOAT = np.dtype(np.float64)

#: Segments of at least this many bytes are advised onto transparent
#: huge pages; smaller ones would fragment THP for no TLB win.
HUGE_PAGE_THRESHOLD_BYTES = 4 << 20

#: Huge-page degradations already announced (warn once per cause).
_WARNED: set = set()


def _warn_once(key: str, message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=4)


def _advise_huge_pages(segment) -> bool:
    """Best-effort ``madvise(MADV_HUGEPAGE)`` on a segment's mapping.

    Returns True when the advice took. A platform without the constant
    (macOS) or without a reachable ``mmap`` handle, and a kernel that
    rejects the call (THP disabled), each warn once and leave the
    segment on base pages — never an error, the bytes are identical
    either way.
    """
    import mmap

    advice = getattr(mmap, "MADV_HUGEPAGE", None)
    buf = getattr(segment, "_mmap", None)
    if advice is None or buf is None:
        _warn_once(
            "hugepage-unsupported",
            "transparent huge pages unavailable on this platform "
            "(no mmap.MADV_HUGEPAGE / no mapping handle); shared graph "
            "segments stay on base pages",
        )
        return False
    try:
        buf.madvise(advice)
    except (OSError, ValueError) as exc:
        _warn_once(
            "hugepage-refused",
            f"madvise(MADV_HUGEPAGE) refused by the kernel ({exc}); "
            "shared graph segments stay on base pages",
        )
        return False
    return True


@dataclass(frozen=True)
class GraphHandle:
    """Picklable pointer to one graph's shared-memory segment.

    The segment holds ``indptr``, ``indices`` and (optionally)
    ``weights`` back to back; lengths are in elements, so workers can
    recompute every offset without touching the payload.
    """

    segment: str
    fingerprint: str
    name: str
    directed: bool
    indptr_len: int
    indices_len: int
    weighted: bool
    #: CSR directory path for memory-mapped graphs: instead of a copied
    #: segment, workers re-open the mapped files (``segment`` is then
    #: empty). The page cache makes the mapping physically shared across
    #: the pool — true zero-copy.
    mapped_dir: Optional[str] = None

    @property
    def nbytes(self) -> int:
        total = (self.indptr_len + self.indices_len) * _INT.itemsize
        if self.weighted:
            total += self.indices_len * _FLOAT.itemsize
        return total


class SharedGraphRegistry:
    """Process-wide registry of shared-memory graph segments.

    The parent side exports (``export``/``handle_table``); the worker
    side installs a handle table and attaches (``install``/``lookup``).
    Both sides share the counters surfaced in ``BENCH_perf.json``:
    ``exported_graphs``/``exported_bytes``/``export_reuses`` count the
    parent's segments (reuses = a second dataset key resolving to an
    already-shipped fingerprint), ``attaches``/``attach_reuses`` count
    worker-side mappings (reuses = cache hits that mapped nothing).
    ``huge_page_segments``/``huge_page_bytes`` count the segments whose
    mappings accepted ``madvise(MADV_HUGEPAGE)``.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, Tuple[object, GraphHandle]] = {}
        self._handles: Dict[Tuple, GraphHandle] = {}
        self._attached: Dict[str, Tuple[object, Graph]] = {}
        self._atexit_armed = False
        self.counters: Dict[str, int] = {
            "exported_graphs": 0,
            "exported_bytes": 0,
            "export_reuses": 0,
            "attaches": 0,
            "attach_reuses": 0,
            "huge_page_segments": 0,
            "huge_page_bytes": 0,
            "mapped_exports": 0,
            "mapped_attaches": 0,
        }

    def _request_huge_pages(self, segment, nbytes: int) -> None:
        """Advise huge pages for a segment of at least
        :data:`HUGE_PAGE_THRESHOLD_BYTES` and count successes."""
        if nbytes < HUGE_PAGE_THRESHOLD_BYTES:
            return
        if _advise_huge_pages(segment):
            self.counters["huge_page_segments"] += 1
            self.counters["huge_page_bytes"] += nbytes

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def export(self, key: Tuple, graph: Graph) -> Optional[GraphHandle]:
        """Copy ``graph``'s CSR arrays into a shared segment (once per
        fingerprint) and remember ``key -> handle``; None if shared
        memory is unavailable on this platform.
        """
        fingerprint = graph.fingerprint
        cached = self._segments.get(fingerprint)
        if cached is not None:
            self.counters["export_reuses"] += 1
            self._handles[key] = cached[1]
            return cached[1]
        handle = GraphHandle(
            segment=f"repro-graph-{os.getpid()}-{fingerprint[:16]}",
            fingerprint=fingerprint,
            name=graph.name,
            directed=graph.directed,
            indptr_len=graph.indptr.size,
            indices_len=graph.indices.size,
            weighted=graph.weights is not None,
        )
        if graph.directory is not None:
            # Backed by a CSR directory: the files *are* the shared
            # segment (page cache), so export records a path, copies
            # nothing, and workers re-open the maps.
            handle = dataclasses.replace(
                handle, segment="", mapped_dir=graph.directory
            )
            self._segments[fingerprint] = (None, handle)
            self._handles[key] = handle
            self.counters["mapped_exports"] += 1
            return handle
        try:
            from multiprocessing import shared_memory
        except ImportError:  # pragma: no cover - always present on Linux
            return None
        try:
            segment = shared_memory.SharedMemory(
                name=handle.segment, create=True, size=max(handle.nbytes, 1)
            )
        except OSError:
            return None
        self._request_huge_pages(segment, handle.nbytes)
        views = _segment_views(segment, handle)
        views[0][:] = graph.indptr
        views[1][:] = graph.indices
        if handle.weighted:
            views[2][:] = graph.weights
        self._segments[fingerprint] = (segment, handle)
        self._handles[key] = handle
        self.counters["exported_graphs"] += 1
        self.counters["exported_bytes"] += handle.nbytes
        if not self._atexit_armed:
            atexit.register(self.shutdown)
            self._atexit_armed = True
        return handle

    def handle_table(self) -> Dict[Tuple, GraphHandle]:
        """The ``{dataset key -> handle}`` table to ship to workers."""
        return dict(self._handles)

    def shutdown(self) -> None:
        """Unlink every exported segment (idempotent; parent only)."""
        for segment, _ in self._segments.values():
            if segment is None:  # mapped graph: no segment to unlink
                continue
            try:
                segment.close()
                segment.unlink()
            except (OSError, FileNotFoundError):  # already gone
                pass
        self._segments.clear()
        self._handles.clear()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def install(self, table: Dict[Tuple, GraphHandle]) -> None:
        """Adopt the parent's handle table (pool initializer)."""
        self._handles.update(table)

    def lookup(self, key: Tuple) -> Optional[Graph]:
        """The shared graph registered under ``key``, or None."""
        handle = self._handles.get(key)
        if handle is None:
            return None
        return self.attach(handle)

    def attach(self, handle: GraphHandle) -> Optional[Graph]:
        """Map a handle's segment and wrap it as a read-only Graph.

        Each distinct fingerprint is mapped once per process and the
        wrapper cached; construction bypasses ``Graph.__init__`` — the
        parent already validated these arrays, and the fingerprint
        rides in on the handle, so attachment does zero O(m) work.
        """
        cached = self._attached.get(handle.fingerprint)
        if cached is not None:
            self.counters["attach_reuses"] += 1
            return cached[1]
        if handle.mapped_dir is not None:
            from repro.errors import GraphFormatError
            from repro.graph.io import open_mapped

            try:
                graph = open_mapped(handle.mapped_dir)
            except (OSError, ValueError, GraphFormatError):
                return None
            self._attached[handle.fingerprint] = (None, graph)
            self.counters["attaches"] += 1
            self.counters["mapped_attaches"] += 1
            return graph
        try:
            from multiprocessing import shared_memory
        except ImportError:  # pragma: no cover - always present on Linux
            return None
        # Attaching re-registers the name with the resource tracker; the
        # workers share the parent's tracker process, where registration
        # is an idempotent set-add, so this needs no compensation — the
        # exporting parent stays the only unlinker. (Worker-side
        # unregistering would remove the parent's registration and make
        # its own unlink double-unregister.)
        try:
            segment = shared_memory.SharedMemory(name=handle.segment)
        except OSError:
            return None
        graph = Graph.__new__(Graph)._adopt(
            *_segment_views(segment, handle),
            handle.directed,
            handle.name,
            handle.fingerprint,
        )
        # The SharedMemory object must outlive every numpy view, so it
        # rides in the process-lifetime cache alongside the Graph.
        self._attached[handle.fingerprint] = (segment, graph)
        self.counters["attaches"] += 1
        return graph


def _segment_views(segment, handle: GraphHandle):
    """(indptr, indices, weights) numpy views over a segment's buffer."""
    indptr = np.ndarray((handle.indptr_len,), dtype=_INT, buffer=segment.buf)
    offset = handle.indptr_len * _INT.itemsize
    indices = np.ndarray(
        (handle.indices_len,), dtype=_INT, buffer=segment.buf, offset=offset
    )
    offset += handle.indices_len * _INT.itemsize
    weights = None
    if handle.weighted:
        weights = np.ndarray(
            (handle.indices_len,),
            dtype=_FLOAT,
            buffer=segment.buf,
            offset=offset,
        )
    return indptr, indices, weights


#: Per-process singleton: the parent's export table or, in pool
#: workers, the attachment cache installed by the initializer.
_REGISTRY = SharedGraphRegistry()


def get_registry() -> SharedGraphRegistry:
    """The process-wide shared-graph registry."""
    return _REGISTRY


def lookup_shared(key: Tuple) -> Optional[Graph]:
    """Shared graph under ``key``, or None (fast path: one dict probe)."""
    if not _REGISTRY._handles:
        return None
    return _REGISTRY.lookup(key)


def install_worker_table(table: Dict[Tuple, GraphHandle]) -> None:
    """Pool-initializer entry point: adopt the parent's handle table."""
    _REGISTRY.install(table)


def shutdown_shared_graphs() -> None:
    """Unlink every segment exported by this process."""
    _REGISTRY.shutdown()


def shm_stats() -> Dict[str, int]:
    """Counters for ``vcrepro report`` / ``BENCH_perf.json``."""
    return dict(_REGISTRY.counters)


def merge_counters(delta: Dict[str, int]) -> None:
    """Fold a worker's counter deltas into this process's registry."""
    for key, value in delta.items():
        if key in _REGISTRY.counters:
            _REGISTRY.counters[key] += int(value)
