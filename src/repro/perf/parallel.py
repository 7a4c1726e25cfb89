"""Process-pool fan-out with deterministic results and serial fallback.

Experiments and batch sweeps are embarrassingly parallel: every
``(engine, batch_count)`` run and every experiment derives its RNG
stream from an explicit seed (:func:`repro.rng.derive_seed`), so
executing them in a pool produces byte-identical results to the serial
loop — the only thing that changes is wall-clock. Tests assert this
(``tests/perf/test_parallel.py``).

Two entry points:

* :func:`parallel_map` — for picklable ``fn``/items (experiment fan-out
  in :func:`repro.experiments.runner.run_all`).
* :func:`parallel_map_fork` — for closures (the task factories passed
  to ``sweep_batches``): the callable is stashed in a module global
  *before* the pool forks, so workers inherit it through fork semantics
  and only integer indices cross the pipe. Falls back to the serial
  loop on platforms without ``fork``.

Both degrade gracefully to serial execution when a pool cannot be
created or a payload cannot be pickled — with a :class:`RuntimeWarning`
naming the cause, never silently — and both fold the workers' phase
timings (:mod:`repro.perf.timings`) back into the parent. Where a
worker runs is left to the OS scheduler.

Crash isolation: a worker process dying (OOM-killed, segfault) breaks
the whole ``ProcessPoolExecutor`` — every in-flight future raises
``BrokenProcessPool``, so one bad item would normally take the batch
down with it. Items caught in a broken pool are therefore retried in
fresh single-worker pools with seeded exponential backoff
(:class:`~repro.perf.backoff.BackoffPolicy`): collateral victims
succeed on their first isolated attempt, while an item that keeps
killing its worker exhausts the retry budget and raises
:class:`~repro.errors.WorkerCrashError` naming the item. Configure the
budget with :func:`configure_retries` (CLI ``--max-retries``).

Supervision: :func:`configure_watchdog` arms a heartbeat — when no
future completes for ``heartbeat_seconds``, the pool is declared hung,
its workers are killed (turning the silent stall into the
BrokenProcessPool path above) and the caught items are respawned in
isolation. Every crash, retry, stall, and backoff sleep
is counted in :func:`supervision_stats`, which ``vcrepro`` folds into
``BENCH_perf.json``.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, WorkerCrashError
from repro.perf import timings
from repro.perf.backoff import BackoffPolicy

__all__ = [
    "budgeted_worker_count",
    "resolve_jobs",
    "parallel_map",
    "parallel_map_fork",
    "configure_retries",
    "configure_watchdog",
    "supervision_stats",
    "reset_supervision",
    "set_pool_observer",
]

#: Per-item crash-retry budget and backoff base, shared by both entry
#: points. ``max_retries`` counts the *isolated* re-attempts after an
#: item was caught in a broken pool; re-attempt ``k`` sleeps
#: ``backoff_seconds * 2**(k-1)`` first (jittered when a seed is set).
_RETRY: Dict[str, float] = {
    "max_retries": 2,
    "backoff_seconds": 0.05,
    "jitter": 0.0,
}

#: Seeded generator for backoff jitter (``configure_retries(seed=...)``);
#: ``None`` keeps the legacy exact schedule.
_RETRY_RNG = None

#: Watchdog heartbeat in wall-clock seconds; ``None`` = disarmed.
_WATCHDOG: Dict[str, Optional[float]] = {"heartbeat_seconds": None}

#: Test/chaos seam: called with the live executor right after the
#: items are submitted, so a fault injector can find the worker pids.
_POOL_OBSERVER: Optional[Callable] = None

#: Worker-supervision counters, surfaced via :func:`supervision_stats`
#: and folded into ``BENCH_perf.json`` by the CLI.
_SUPERVISION: Dict[str, float] = {}


def reset_supervision() -> None:
    """Zero the supervision counters (new run / test isolation)."""
    _SUPERVISION.update(
        {
            "pool_crashes": 0,  # futures caught in a broken shared pool
            "isolated_attempts": 0,  # solo-pool runs, first try included
            "retries": 0,  # solo-pool re-attempts after a failure
            "items_recovered": 0,  # crashed items that then succeeded
            "items_lost": 0,  # items that exhausted the retry budget
            "watchdog_stalls": 0,  # heartbeat expiries that killed workers
            "backoff_seconds_total": 0.0,
        }
    )


reset_supervision()


def supervision_stats() -> Dict[str, float]:
    """A copy of the live worker-supervision counters."""
    return dict(_SUPERVISION)


def configure_retries(
    max_retries: Optional[int] = None,
    backoff_seconds: Optional[float] = None,
    seed: Optional[int] = None,
    jitter: Optional[float] = None,
) -> Dict[str, float]:
    """Set the process-wide crash-retry policy; returns the live config.

    ``max_retries=0`` disables isolated retries entirely: any item in a
    broken pool fails immediately (collateral victims included).
    ``seed``/``jitter`` arm deterministic jittered backoff: delays are
    scaled by a draw from the ``perf/backoff`` stream of ``seed``, so
    a re-run sleeps the same schedule (see
    :class:`~repro.perf.backoff.BackoffPolicy`).
    """
    global _RETRY_RNG
    if max_retries is not None:
        max_retries = int(max_retries)
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        _RETRY["max_retries"] = max_retries
    if backoff_seconds is not None:
        backoff_seconds = float(backoff_seconds)
        if backoff_seconds < 0:
            raise ConfigurationError("backoff_seconds must be >= 0")
        _RETRY["backoff_seconds"] = backoff_seconds
    if jitter is not None:
        jitter = float(jitter)
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")
        _RETRY["jitter"] = jitter
    if seed is not None:
        from repro.rng import make_rng

        _RETRY_RNG = make_rng(int(seed), label="perf/backoff")
    return _RETRY


def _retry_policy() -> BackoffPolicy:
    """The live crash-retry schedule as a :class:`BackoffPolicy`."""
    return BackoffPolicy(
        base_seconds=float(_RETRY["backoff_seconds"]),
        factor=2.0,
        jitter=float(_RETRY["jitter"]),
    )


def configure_watchdog(
    heartbeat_seconds: Optional[float],
) -> Optional[float]:
    """Arm (or disarm with ``None``) the hung-worker watchdog.

    While armed, :func:`parallel_map`/:func:`parallel_map_fork` declare
    the pool hung whenever no item completes for ``heartbeat_seconds``
    of wall clock, kill its workers, and respawn the caught items in
    isolated single-worker pools. Set the heartbeat well
    above the longest legitimate item — the watchdog cannot tell a
    slow item from a hung one, only silence from progress.
    """
    if heartbeat_seconds is not None:
        heartbeat_seconds = float(heartbeat_seconds)
        if heartbeat_seconds <= 0:
            raise ConfigurationError("heartbeat_seconds must be positive")
    _WATCHDOG["heartbeat_seconds"] = heartbeat_seconds
    return heartbeat_seconds


def set_pool_observer(observer: Optional[Callable]) -> Optional[Callable]:
    """Install a callback invoked with each live executor after submit.

    A chaos injector uses this to discover worker pids and kill them on
    a schedule; returns the previous observer so tests can restore it.
    """
    global _POOL_OBSERVER
    previous = _POOL_OBSERVER
    _POOL_OBSERVER = observer
    return previous


#: DRAM one pool worker is assumed to need (graph views, per-round
#: kernel buffers, serialized results); ``--jobs 0`` starts no more
#: workers than the host's MemTotal can back at this size.
WORKER_MEMORY_BYTES = 512 << 20


def budgeted_worker_count(meminfo: str = "/proc/meminfo") -> int:
    """The worker count ``--jobs 0`` resolves to: the usable CPUs,
    capped by ``meminfo``'s MemTotal over :data:`WORKER_MEMORY_BYTES`,
    and never below 1. An unreadable ``meminfo`` caps by CPUs alone."""
    try:
        workers = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call (macOS)
        workers = os.cpu_count() or 1
    try:
        with open(meminfo, encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[:1] == ["MemTotal:"]:
                    total = int(fields[1]) * 1024
                    workers = min(workers, total // WORKER_MEMORY_BYTES)
                    break
    except (OSError, ValueError, IndexError):
        pass
    return max(workers, 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: None/1 -> serial, 0 -> auto
    (:func:`budgeted_worker_count`). Explicit positive counts are taken
    verbatim."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError("jobs must be >= 0")
    if jobs == 0:
        return budgeted_worker_count()
    return jobs


def _warn_serial(reason: str) -> None:
    """Name the cause whenever the pool path degrades to the serial loop."""
    warnings.warn(
        f"parallel execution unavailable, falling back to serial: {reason}",
        RuntimeWarning,
        stacklevel=4,
    )


def _is_pickling_error(exc: BaseException) -> bool:
    """A payload failed to cross the pipe (closure, lambda, local class)."""
    import pickle

    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(
        exc
    ).lower()


#: Worker-side timing baseline: the last snapshot already shipped home
#: (set by :func:`_worker_bootstrap`; ``None`` outside pool workers).
_TIMING_BASELINE: Optional[dict] = None


def _worker_bootstrap() -> None:
    """Pool initializer installed by :func:`_pool_map` in every worker:
    clears the timing spans inherited through fork, so a worker ships
    home only what its own items recorded."""
    global _TIMING_BASELINE

    timings.reset()
    _TIMING_BASELINE = {}


def _timed_call(fn: Callable, args: tuple) -> tuple:
    """Worker-side wrapper: run ``fn`` and ship its timing and cache-
    counter deltas home for the parent to fold in."""
    global _TIMING_BASELINE
    from repro.perf import memory
    from repro.perf.cache import get_cache

    before = get_cache().stats.to_dict()
    result = fn(*args)
    after = get_cache().stats.to_dict()
    delta = {key: after[key] - before[key] for key in after}
    peak = memory.peak_rss_bytes()
    if peak is not None:
        delta["mem_peak_rss"] = peak
    snap = timings.snapshot()
    shipped = timings.diff(_TIMING_BASELINE, snap)
    _TIMING_BASELINE = snap
    return result, shipped, delta


def _fork_entry(index: int) -> tuple:
    """Fork-inherited worker entry for :func:`parallel_map_fork`."""
    fn = _FORK_STATE["fn"]
    return _timed_call(fn, (index,))


#: Closure stash read by forked workers (set before the pool submits).
_FORK_STATE: dict = {}


def _run_serial(fn: Callable, arg_tuples: Sequence[tuple]) -> List[Any]:
    return [fn(*args) for args in arg_tuples]


def _run_isolated(
    worker: Callable,
    payload: tuple,
    index: int,
    context,
):
    """Retry one crashed item in fresh single-worker pools.

    Items caught in a broken shared pool land here: a collateral victim
    (its neighbour crashed the worker) succeeds on the first isolated
    attempt; an item that keeps killing its own worker exhausts
    ``max_retries`` and raises :class:`WorkerCrashError`. With the
    watchdog armed, a *hung* (not dead) isolated worker is also killed
    and counted once its heartbeat expires.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    budget = int(_RETRY["max_retries"])
    policy = _retry_policy()
    heartbeat = _WATCHDOG["heartbeat_seconds"]
    last: Optional[BaseException] = None
    for attempt in range(1, budget + 1):
        if attempt > 1:
            delay = policy.delay_seconds(attempt - 1, _RETRY_RNG)
            _SUPERVISION["retries"] += 1
            _SUPERVISION["backoff_seconds_total"] += delay
            time.sleep(delay)
        _SUPERVISION["isolated_attempts"] += 1
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=1,
                mp_context=context,
                initializer=_worker_bootstrap,
            ) as solo:
                future = solo.submit(worker, *payload)
                try:
                    result = future.result(timeout=heartbeat)
                except concurrent.futures.TimeoutError as exc:
                    # The respawned worker hung: kill it and retry.
                    _SUPERVISION["watchdog_stalls"] += 1
                    for proc in list(solo._processes.values()):
                        proc.kill()
                    last = exc
                    continue
                _SUPERVISION["items_recovered"] += 1
                return result
        except BrokenProcessPool as exc:
            last = exc
    _SUPERVISION["items_lost"] += 1
    raise WorkerCrashError(
        f"worker process died while computing item {index} and kept dying "
        f"through {budget} isolated retries; the item appears to crash its "
        f"worker (e.g. OOM or segfault)",
        item_index=index,
        attempts=budget,
    ) from last


def _pool_map(
    worker: Callable,
    payloads: Sequence[tuple],
    jobs: int,
    require_fork: bool,
) -> Optional[List[Any]]:
    """Run ``worker`` over ``payloads`` in a pool; None -> use serial.

    Futures are submitted individually so a dying worker fails only the
    items caught in the broken pool — those are re-run via
    :func:`_run_isolated` rather than dragging the whole map down.
    Exceptions raised *by the worker function itself* propagate
    unchanged.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    import multiprocessing

    try:
        if require_fork:
            if "fork" not in multiprocessing.get_all_start_methods():
                _warn_serial(
                    "the fork start method is unavailable on this platform "
                    "(closures cannot be pickled across spawn)"
                )
                return None
            context = multiprocessing.get_context("fork")
        else:
            context = multiprocessing.get_context()
        workers = min(jobs, max(len(payloads), 1))
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_bootstrap,
        )
    except (OSError, ValueError, ImportError) as exc:
        _warn_serial(f"could not create a process pool ({exc})")
        return None

    outputs: List[Optional[tuple]] = [None] * len(payloads)
    crashed: List[int] = []
    raised: List[BaseException] = []

    def _collect(future, index: int) -> bool:
        """Harvest one future; ``False`` means degrade to serial."""
        try:
            outputs[index] = future.result()
        except BrokenProcessPool:
            _SUPERVISION["pool_crashes"] += 1
            crashed.append(index)
        except Exception as exc:
            if _is_pickling_error(exc):
                _warn_serial(
                    f"payload for item {index} could not be "
                    f"pickled ({exc})"
                )
                return False
            raised.append(exc)  # the worker function's own error
            raise
        return True

    heartbeat = _WATCHDOG["heartbeat_seconds"]
    try:
        with executor:
            futures = {
                executor.submit(worker, *payload): index
                for index, payload in enumerate(payloads)
            }
            if _POOL_OBSERVER is not None:
                _POOL_OBSERVER(executor)
            if heartbeat is None:
                for future, index in futures.items():
                    if not _collect(future, index):
                        return None
            else:
                # Watchdog: harvest as futures finish; a heartbeat
                # with no completion at all means the pool is hung —
                # kill its workers, which breaks the pool and routes
                # every caught item through the isolated-respawn path.
                pending = set(futures)
                while pending:
                    done, pending = concurrent.futures.wait(
                        pending, timeout=heartbeat
                    )
                    if done:
                        for future in done:
                            if not _collect(future, futures[future]):
                                return None
                        continue
                    _SUPERVISION["watchdog_stalls"] += 1
                    for proc in list(executor._processes.values()):
                        proc.kill()
    except (OSError, BrokenProcessPool) as exc:
        if raised:  # an OSError of the worker function: propagate
            raise
        # The pool itself collapsed outside a result() call (e.g. a
        # sandboxed platform killing the management thread).
        _warn_serial(f"process pool collapsed ({exc})")
        return None

    for index in crashed:
        outputs[index] = _run_isolated(worker, payloads[index], index, context)

    from repro.perf import memory
    from repro.perf.cache import get_cache

    results = []
    for result, worker_timings, stats_delta in outputs:
        timings.merge(worker_timings)
        worker_peak = stats_delta.pop("mem_peak_rss", None)
        if worker_peak is not None:
            memory.record_worker_peak(int(worker_peak))
        get_cache().stats.merge(stats_delta)
        results.append(result)
    return results


def parallel_map(
    fn: Callable,
    arg_tuples: Sequence[tuple],
    jobs: Optional[int] = None,
) -> List[Any]:
    """``[fn(*args) for args in arg_tuples]``, fanned out over processes.

    Order is preserved. ``fn`` and every argument must be picklable;
    when they are not (or a pool cannot be created), a
    :class:`RuntimeWarning` names the cause and the serial loop runs
    instead, producing identical results. A worker process dying fails
    only its own item — after the isolated retry budget is exhausted it
    raises :class:`~repro.errors.WorkerCrashError` for that item.
    """
    workers = resolve_jobs(jobs)
    if workers <= 1 or len(arg_tuples) <= 1:
        return _run_serial(fn, arg_tuples)
    payloads = [(fn, args) for args in arg_tuples]
    results = _pool_map(_timed_call, payloads, workers, require_fork=False)
    if results is None:
        return _run_serial(fn, arg_tuples)
    return results


def parallel_map_fork(
    fn: Callable[[int], Any],
    count: int,
    jobs: Optional[int] = None,
) -> List[Any]:
    """``[fn(i) for i in range(count)]`` fanned out via fork inheritance.

    ``fn`` may be any closure: it never crosses a pipe. Workers inherit
    it through the module global set here, so this path requires the
    ``fork`` start method (Linux/macOS); elsewhere a
    :class:`RuntimeWarning` is emitted and the loop runs serially.
    Crash isolation matches :func:`parallel_map`.
    """
    workers = resolve_jobs(jobs)
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    _FORK_STATE["fn"] = fn
    try:
        payloads = [(i,) for i in range(count)]
        results = _pool_map(_fork_entry, payloads, workers, require_fork=True)
    finally:
        _FORK_STATE.pop("fn", None)
    if results is None:
        return [fn(i) for i in range(count)]
    return results
