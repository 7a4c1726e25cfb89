"""Kernel micro-benchmark: p50 step time vs a committed baseline.

Run from the repo root (CI does)::

    python benchmarks/kernel_bench.py              # compare to baseline
    python benchmarks/kernel_bench.py --update     # rewrite the baseline
    python benchmarks/kernel_bench.py --strict     # non-zero exit on drift
    python benchmarks/kernel_bench.py --streaming  # block-streaming kernels
    python benchmarks/kernel_bench.py --workers 1 2 4   # sharded kernels
    python benchmarks/kernel_bench.py --parallel-smoke  # digest identity

The default mode measures the median (p50) ``kernel.step()`` wall-clock
per task on a fixed mid-size Chung-Lu graph and compares it against
``benchmarks/kernel_baseline.json`` with a ±30% tolerance. Drift only
*warns* by default — CI hardware is noisy and a micro-benchmark should
flag, not block — but ``--strict`` turns warnings into a failing exit
for local bisection.

``--streaming`` reruns the same task suite against a memory-mapped copy
of the benchmark graph with the block size forced small enough that
every round streams multiple CSR row blocks.
The results land under ``streaming.<task>`` keys in the baseline and
drift only ever warns — the mode exists to keep an eye on the
out-of-core overhead ratio, not to gate merges.

``--workers N [N ...]`` reruns the suite with the intra-task kernel
pool at each worker count (the sharding crossover forced down so the
small benchmark graph actually shards). Results land under
``parallel.wN.<task>`` keys and, like streaming, only ever warn — the
1-CPU CI runners cannot see a thread-level speedup, so the keys track
the dispatch/merge *overhead* trajectory instead.

``--parallel-smoke`` is the blocking leg: it runs every task serially
and at worker counts 2 and 4, digesting each run's full round-summary
stream plus its final result arrays, and exits non-zero on any digest
mismatch — the serial and sharded kernels must agree byte for byte.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.graph.generators import chung_lu  # noqa: E402
from repro.graph.mirrors import build_mirror_plan  # noqa: E402
from repro.graph.partition import hash_partition  # noqa: E402
from repro.messages.routing import PointToPointRouter  # noqa: E402
from repro.rng import make_rng  # noqa: E402
from repro.tasks.base import make_task  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "kernel_baseline.json"

#: (task name, workload, batches) — sized so the whole suite stays under
#: ~20 s on CI hardware while giving every task tens of steps.
SETTINGS = (
    ("mssp", 48.0, 3),
    ("bkhs", 48.0, 3),
    ("bppr", 2048.0, 3),
)

TOLERANCE = 0.30  # fractional drift tolerated before warning

GRAPH_NODES = 4000
GRAPH_AVG_DEGREE = 8.0
MAX_STEPS = 200


def _bench_graph():
    return chung_lu(
        GRAPH_NODES, GRAPH_AVG_DEGREE, seed=1234, name="kernel-bench"
    )


def measure() -> dict:
    """p50 step milliseconds per task on the fixed benchmark graph."""
    return _measure_tasks(_bench_graph())


def measure_streaming() -> dict:
    """p50 step milliseconds with the block-streaming kernel variants.

    The benchmark graph is saved to a temporary CSR directory and
    reopened memory-mapped; the streaming block size is forced down to
    4096 arcs (~8 blocks per full-frontier round on this graph) so the
    per-block expand/reduce/merge path is what gets timed.
    """
    import tempfile

    from repro.graph import csr as csr_mod
    from repro.graph.io import save_mapped

    graph = _bench_graph()
    saved_min = csr_mod.MIN_STREAM_BLOCK_ARCS
    with tempfile.TemporaryDirectory() as tmp:
        mapped = save_mapped(graph, Path(tmp) / "kernel-bench.csr")
        csr_mod.MIN_STREAM_BLOCK_ARCS = 1 << 12
        csr_mod.configure_streaming(max_ram_bytes=1)  # clamp to the floor
        try:
            return _measure_tasks(mapped, prefix="streaming.")
        finally:
            csr_mod.MIN_STREAM_BLOCK_ARCS = saved_min
            csr_mod.configure_streaming(None)


#: Crossover forced for the parallel modes: the benchmark graph has
#: ~32 K arcs, so the production ``DEFAULT_MIN_SHARD_CANDIDATES`` would
#: keep every round serial and the sweep would measure nothing.
PARALLEL_MIN_SHARD_CANDIDATES = 1 << 10

#: Worker counts exercised by the blocking digest smoke.
SMOKE_WORKER_COUNTS = (2, 4)


def measure_parallel(worker_counts) -> dict:
    """p50 step milliseconds with the sharded kernels at each count."""
    from repro.perf import kernel_pool

    graph = _bench_graph()
    results = {}
    try:
        for workers in worker_counts:
            kernel_pool.configure_kernel_workers(
                workers,
                min_shard_candidates=PARALLEL_MIN_SHARD_CANDIDATES,
            )
            results.update(
                _measure_tasks(graph, prefix=f"parallel.w{workers}.")
            )
    finally:
        kernel_pool.reset_kernel_pool()
    return results


def _digest_update(h, obj) -> None:
    """Fold one round-summary / result object into a running digest."""
    if isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            _digest_update(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _digest_update(h, item)
    else:
        h.update(repr(obj).encode())


def _digest_tasks(graph) -> dict:
    """blake2b over every task's round stream + final result arrays."""
    import hashlib

    partition = hash_partition(graph, 4)
    plan = build_mirror_plan(graph, partition)
    digests = {}
    for task_name, workload, batches in SETTINGS:
        h = hashlib.blake2b(digest_size=16)
        for batch in range(batches):
            spec = make_task(task_name, graph, workload)
            router = PointToPointRouter(graph, plan)
            kernel = spec.make_kernel(
                router, workload, make_rng(97 + batch, label=task_name)
            )
            for _ in range(MAX_STEPS):
                summary = kernel.step()
                _digest_update(
                    h,
                    (
                        summary.routed.network_messages,
                        summary.routed.local_messages,
                        summary.compute_ops,
                        summary.task_state_bytes,
                        summary.active_vertices,
                        summary.done,
                    ),
                )
                if summary.done:
                    break
            _digest_update(h, kernel.result)
        digests[task_name] = h.hexdigest()
    return digests


def run_parallel_smoke() -> int:
    """Blocking check: sharded digests must equal the serial digests."""
    from repro.perf import kernel_pool

    graph = _bench_graph()
    try:
        kernel_pool.reset_kernel_pool()
        serial = _digest_tasks(graph)
        failures = 0
        for workers in SMOKE_WORKER_COUNTS:
            kernel_pool.configure_kernel_workers(
                workers, min_shard_candidates=1
            )
            before = kernel_pool.kernel_pool_stats()["sharded_dispatches"]
            sharded = _digest_tasks(graph)
            after = kernel_pool.kernel_pool_stats()["sharded_dispatches"]
            for task_name, digest in sharded.items():
                status = "ok" if digest == serial[task_name] else "MISMATCH"
                print(
                    f"workers={workers} {task_name}: serial "
                    f"{serial[task_name]} vs sharded {digest} [{status}]"
                )
                failures += digest != serial[task_name]
            if after <= before:
                # A digest match proves nothing if the sharded path
                # never actually dispatched.
                print(
                    f"workers={workers}: no sharded dispatches — the "
                    "parallel path did not run"
                )
                failures += 1
    finally:
        kernel_pool.reset_kernel_pool()
    if failures:
        print(f"FAILED: {failures} parallel-kernel digest mismatches")
        return 1
    print("all parallel-kernel digests byte-identical to serial")
    return 0


def _measure_tasks(graph, prefix: str = "") -> dict:
    """Shared timing loop for the in-RAM and streaming modes."""
    partition = hash_partition(graph, 4)
    plan = build_mirror_plan(graph, partition)
    results = {}
    for task_name, workload, batches in SETTINGS:
        step_seconds = []
        for batch in range(batches):
            spec = make_task(task_name, graph, workload)
            router = PointToPointRouter(graph, plan)
            kernel = spec.make_kernel(
                router, workload, make_rng(97 + batch, label=task_name)
            )
            for _ in range(MAX_STEPS):
                start = time.perf_counter()
                summary = kernel.step()
                step_seconds.append(time.perf_counter() - start)
                if summary.done:
                    break
        results[prefix + task_name] = {
            "p50_ms": round(statistics.median(step_seconds) * 1000.0, 4),
            "steps": len(step_seconds),
        }
    return results


def compare(current: dict, baseline: dict) -> list:
    """Human-readable drift warnings (empty when within tolerance)."""
    warnings = []
    for task, entry in current.items():
        base = baseline.get(task)
        if base is None:
            warnings.append(f"{task}: no baseline entry (run --update)")
            continue
        drift = entry["p50_ms"] / base["p50_ms"] - 1.0
        if abs(drift) > TOLERANCE:
            direction = "slower" if drift > 0 else "faster"
            warnings.append(
                f"{task}: p50 {entry['p50_ms']:.3f} ms vs baseline "
                f"{base['p50_ms']:.3f} ms ({abs(drift) * 100:.0f}% "
                f"{direction}, tolerance ±{TOLERANCE * 100:.0f}%)"
            )
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline JSON"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on drift (default: warn only)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="benchmark the block-streaming kernels (warn-only)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="benchmark the sharded kernels at these intra-task worker "
        "counts (warn-only; keys parallel.wN.<task>)",
    )
    parser.add_argument(
        "--parallel-smoke",
        action="store_true",
        help="blocking digest check: serial vs sharded kernels must "
        "match byte for byte",
    )
    args = parser.parse_args(argv)

    if args.parallel_smoke:
        return run_parallel_smoke()

    if args.workers:
        current = measure_parallel(args.workers)
    elif args.streaming:
        current = measure_streaming()
    else:
        current = measure()
    for task, entry in current.items():
        print(f"{task}: p50 {entry['p50_ms']:.3f} ms over {entry['steps']} steps")

    if args.update or not BASELINE_PATH.exists():
        merged = dict(current)
        if BASELINE_PATH.exists():
            # Keep the other mode's keys: --streaming --update must not
            # drop the in-RAM baselines, and vice versa.
            merged = {
                **json.loads(BASELINE_PATH.read_text(encoding="utf-8")),
                **current,
            }
        BASELINE_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote baseline {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    warnings = compare(current, baseline)
    for line in warnings:
        print(f"WARNING: {line}")
    if not warnings:
        print(f"all tasks within ±{TOLERANCE * 100:.0f}% of baseline")
    if args.streaming or args.workers:
        # The streaming and parallel comparisons are informational:
        # overhead depends on the forced block size / host core count
        # and page-cache state, so they never block.
        return 0
    return 1 if (warnings and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
