"""Persistent worker pool for *intra-task* kernel sharding.

Every experiment runs in one process, and every MSSP/BKHS/BPPR round
runs its expand/reduce/frontier work on one core by default. This
module adds a long-lived pool of *threads* that executes the hot kernels in
:mod:`repro.graph.csr` as row-sharded data-parallel tasks — each worker
processes a contiguous frontier/row shard into arrays of its own, and
a deterministic sort-based merge (the same winner-key semantics the
block-streaming kernels proved out) combines shard results
byte-identically to the serial path at any shard count.

Threads, not processes, on purpose: the shard bodies are numpy argsort /
``reduceat`` / fancy-gather calls that release the GIL, so threads
give genuine parallelism at ~50µs dispatch cost — against the
multi-millisecond fork/pickle cost that makes worker processes
unusable at per-round granularity. The workers read the same graph
arrays the serial path reads (in RAM or mapped file — both shareable
within one process); the OS places the threads.

Determinism contract: the worker count changes *where* shards run,
never what the merged round computes — ``tests/perf/test_determinism.py``
asserts ``pack_job`` byte-identity across shard counts 1/2/7, pool
on/off, and mapped graphs.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_MIN_SHARD_CANDIDATES",
    "configure_kernel_workers",
    "kernel_workers",
    "min_shard_candidates",
    "choose_shards",
    "shard_bounds",
    "run_sharded",
    "kernel_pool_stats",
    "reset_kernel_pool",
]

#: Measured crossover for going parallel at all: below this many
#: candidates (arcs in flight) per shard, the dispatch + merge overhead
#: exceeds the shard's compute and the round stays serial. Measured with
#: ``benchmarks/kernel_bench.py --workers 2``: per-shard argsort over
#: fewer than ~32 Ki int64 keys completes faster than two pool
#: dispatches plus the winner-key merge.
DEFAULT_MIN_SHARD_CANDIDATES = 1 << 15

_CONFIG: Dict[str, int] = {
    "workers": 0,
    "min_shard_candidates": DEFAULT_MIN_SHARD_CANDIDATES,
}

#: Dispatch counters for ``vcrepro report`` (lock-protected; written
#: once per sharded round, not per shard).
_STATS: Dict[str, int] = {
    "sharded_dispatches": 0,
    "shards_executed": 0,
    "serial_fallbacks": 0,
}
_STATS_LOCK = threading.Lock()

_POOL: Optional["KernelPool"] = None
_POOL_LOCK = threading.Lock()


def configure_kernel_workers(
    workers: Optional[int] = None,
    min_shard_candidates: Optional[int] = None,
) -> int:
    """Set the process-wide intra-task worker count; returns it.

    ``workers`` of 0 or 1 disables sharding entirely (the serial hot
    paths run untouched — the default, byte-identical to every prior
    tree). Counts above the machine's CPU count are allowed: shard
    results are shard-count-invariant, and the determinism suite
    deliberately over-subscribes. ``min_shard_candidates`` overrides
    the serial/parallel crossover (tests force tiny values so small
    graphs still exercise the sharded paths).
    """
    if workers is not None:
        workers = int(workers)
        if workers < 0:
            raise ConfigurationError("--kernel-workers must be >= 0")
        if workers != _CONFIG["workers"]:
            _shutdown_pool()
        _CONFIG["workers"] = workers
    if min_shard_candidates is not None:
        min_shard_candidates = int(min_shard_candidates)
        if min_shard_candidates < 1:
            raise ConfigurationError("min_shard_candidates must be >= 1")
        _CONFIG["min_shard_candidates"] = min_shard_candidates
    return _CONFIG["workers"]


def kernel_workers() -> int:
    """The configured intra-task worker count (0/1 = serial)."""
    return _CONFIG["workers"]


def min_shard_candidates() -> int:
    """The active serial/parallel crossover (candidates per shard)."""
    return _CONFIG["min_shard_candidates"]


def choose_shards(num_candidates: int) -> int:
    """Cost-aware shard count for a round with ``num_candidates``
    in-flight arcs: never more shards than configured workers, and
    never so many that a shard falls under the measured crossover.
    Returns 1 (stay serial) when the pool is off or the round is small.
    """
    workers = _CONFIG["workers"]
    if workers <= 1 or num_candidates <= 0:
        return 1
    by_size = num_candidates // _CONFIG["min_shard_candidates"]
    shards = min(workers, by_size)
    if shards <= 1:
        with _STATS_LOCK:
            _STATS["serial_fallbacks"] += 1
        return 1
    return shards


def shard_bounds(
    weights: np.ndarray, shards: int
) -> List[Tuple[int, int]]:
    """Split ``[0, len(weights))`` into ``shards`` contiguous ranges of
    roughly equal total weight (per-entry out-degrees, usually). Ranges
    partition the index space in order; some may be empty when the
    weight mass is skewed onto few entries.
    """
    size = int(weights.size)
    if shards <= 1 or size == 0:
        return [(0, size)]
    bounds = np.cumsum(weights, dtype=np.int64)
    total = int(bounds[-1])
    if total <= 0:
        # Weightless entries: fall back to an even index split.
        cuts = [size * k // shards for k in range(shards + 1)]
    else:
        # Cut *after* the entry whose cumulative weight first reaches
        # each target, so a single heavy entry lands alone in its shard
        # instead of dragging the whole tail with it.
        targets = [total * k // shards for k in range(1, shards)]
        cuts = (
            [0]
            + [
                int(np.searchsorted(bounds, t, side="left")) + 1
                for t in targets
            ]
            + [size]
        )
    ranges = []
    lo = 0
    for hi in cuts[1:]:
        hi = max(lo, min(int(hi), size))
        ranges.append((lo, hi))
        lo = hi
    ranges[-1] = (ranges[-1][0], size)
    return ranges


class KernelPool:
    """The persistent thread pool (one per process, lazy)."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-kernel"
        )

    def run(self, thunks: Sequence[Callable[[], object]]) -> List[object]:
        """Execute ``thunks`` across the pool; results in input order.

        The first exception (if any) propagates to the caller after all
        shards have settled — a failed shard must not leave siblings
        writing into shared state behind the caller's back.
        """
        futures = [self._executor.submit(thunk) for thunk in thunks]
        results: List[object] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        with _STATS_LOCK:
            _STATS["sharded_dispatches"] += 1
            _STATS["shards_executed"] += len(thunks)
        return results

    def shutdown(self) -> None:
        """Drain in-flight shards and stop the worker threads."""
        self._executor.shutdown(wait=True)


def get_pool() -> Optional[KernelPool]:
    """The live pool, started lazily; ``None`` while sharding is off."""
    workers = _CONFIG["workers"]
    if workers <= 1:
        return None
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.workers != workers:
            if _POOL is not None:
                _POOL.shutdown()
            _POOL = KernelPool(workers)
        return _POOL


def run_sharded(
    thunks: Sequence[Callable[[], object]]
) -> List[object]:
    """Run shard thunks on the pool (or inline when the pool is off —
    callers that reached this point normally checked
    :func:`choose_shards` first)."""
    pool = get_pool()
    if pool is None:
        return [thunk() for thunk in thunks]
    return pool.run(thunks)


def _shutdown_pool() -> None:
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


def kernel_pool_stats() -> Dict[str, object]:
    """Counters for ``vcrepro report`` and the layered benchmark."""
    with _STATS_LOCK:
        stats: Dict[str, object] = dict(_STATS)
    stats["workers"] = _CONFIG["workers"]
    stats["min_shard_candidates"] = _CONFIG["min_shard_candidates"]
    return stats


def reset_kernel_pool() -> None:
    """Stop the pool and restore defaults (tests, CLI startup)."""
    _shutdown_pool()
    _CONFIG.update(
        workers=0, min_shard_candidates=DEFAULT_MIN_SHARD_CANDIDATES
    )
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0
