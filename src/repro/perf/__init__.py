"""Performance subsystem: artifact caching, timings, the kernel pool.

Three coordinated layers added on top of the simulator:

* :mod:`repro.perf.cache` — a content-addressed artifact cache
  (in-memory LRU + optional on-disk ``.npz`` store) shared by dataset
  instantiation, partitioning, mirror planning, and whole engine runs.
* :mod:`repro.perf.timings` — phase-timing spans (graph-gen /
  partition / kernel / cost-model) surfaced by ``vcrepro report`` and
  dumped as ``BENCH_perf.json``.
* :mod:`repro.perf.kernel_pool` — the persistent thread pool for
  *intra-task* kernel sharding (``--kernel-workers``): row-sharded
  expand/reduce rounds with a deterministic winner-key merge,
  byte-identical to the serial path at any worker count.
"""

from repro.perf import timings
from repro.perf.backoff import BackoffPolicy
from repro.perf.cache import (
    ArtifactCache,
    ArraySerializer,
    clear_cache,
    configure_cache,
    get_cache,
)
from repro.perf.kernel_pool import (
    configure_kernel_workers,
    kernel_pool_stats,
    kernel_workers,
    reset_kernel_pool,
)

__all__ = [
    "ArtifactCache",
    "ArraySerializer",
    "BackoffPolicy",
    "clear_cache",
    "configure_cache",
    "configure_kernel_workers",
    "get_cache",
    "kernel_pool_stats",
    "kernel_workers",
    "reset_kernel_pool",
    "timings",
]
