"""Workload generator: every input the benchmark hands to the program.

One function per workload; its docstring records why the workload
exists and which layer-share property the traced run asserts. All
functions are pure in ``(seed, smoke)`` and return plain JSON data (job
lists, per-job seeds, request streams), so the same seed always yields
the same :func:`input_digest`. Nothing here imports ``repro``: the
program only ever sees the generated inputs.

Cross-seed variance is kept small on purpose (the driver compares runs
made with *different* seeds): job lists are fixed grids whose sampled
sources change with the seed, and the two request streams are fixed
traces in which the seed moves one parameter the schedule does not
depend on (their docstrings say why).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, List, Sequence

DEFAULT_SEED = 20230328

#: Fixes the one request order each ``serve_*`` workload replays.
TRACE_ORDER_SEED = 6

#: Full-size request streams. Both hold more than 4 000 requests, so a
#: 99th percentile keeps at least 40 samples beyond it.
BACKLOG_REQUESTS = 4400
BACKLOG_RATE = 2.0  # requests per 1 s tick
CACHED_BURSTS = 64
CACHED_PER_BURST = 64

#: ``vcrepro report --quick`` runs these, in the paper's order.
EXPERIMENT_IDS = (
    "fig2", "fig3", "fig4", "fig6", "table2", "table3", "fig5", "fig7",
    "fig8", "fig9", "table4", "fig10", "fig11", "fig12", "faults",
    "ablations", "throughput",
)

ALL_ENGINES = (
    "pregel+", "pregel+(mirror)", "giraph", "giraph(async)",
    "giraph(split)", "graphd", "graphlab", "graphlab(async)",
    "pregel+(wholegraph)",
)

#: Table 4's routing (``repro.sched.policy.TABLE4_ROUTES``), restated
#: as plain input so the program receives it like any other policy.
TABLE4_ROUTES = {
    "pagerank": "graphlab(async)",
    "mssp": "graphlab(async)",
    "bppr": "pregel+",
    "bppr-query": "pregel+",
    "bkhs": "pregel+",
}


def _child_seed(seed: int, label: str) -> int:
    """Stable 63-bit seed for one labelled input stream."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") & ((1 << 63) - 1)


def _fraction(seed: int, label: str) -> float:
    """A labelled, seed-determined number in [0, 1)."""
    return _child_seed(seed, label) / float(1 << 63)


def _job(seed: int, engine: str, dataset: str, kind: str,
         workload: float, batches: int, **params) -> Dict[str, object]:
    job_id = f"{dataset}/{kind}/w{workload:g}/b{batches}/{engine}"
    return {
        "id": job_id,
        "engine": engine,
        "dataset": dataset,
        "kind": kind,
        "workload": float(workload),
        "batches": int(batches),
        "params": params,
        # Keyed by everything but the engine, so the same logical job
        # samples from the same stream wherever it runs.
        "seed": _child_seed(seed, f"job:{dataset}/{kind}/{workload:g}/{batches}"),
    }


TRAVERSAL_GRID = [("mssp", 8.0, {}), ("mssp", 16.0, {}),
                  ("bkhs", 64.0, {"k": 2}), ("bkhs", 256.0, {"k": 2})]


def _traversal_jobs(seed: int, smoke: bool, engines: Sequence[str]) -> List[dict]:
    grid = [("mssp", 4.0, {}), ("bkhs", 16.0, {"k": 2})] if smoke else TRAVERSAL_GRID
    jobs = []
    for kind, workload, params in grid:
        for batches in (1, 4):
            for engine in engines:
                jobs.append(_job(seed, engine, "livejournal",
                                 kind, workload, batches, **params))
    return jobs


def _traversal_inputs(seed: int, smoke: bool, engines: Sequence[str],
                      runtime: Dict[str, object]) -> Dict[str, object]:
    scale = 400 if smoke else 100
    return {
        "program": "jobs",
        "runtime": runtime,
        "datasets": {"livejournal": scale},
        "cluster": {"name": "galaxy-8", "scale": scale},
        "jobs": _traversal_jobs(seed, smoke, engines),
    }


# ----------------------------------------------------------------------
# The seven workloads
# ----------------------------------------------------------------------
def report_quick(seed: int, smoke: bool) -> Dict[str, object]:
    """The 17 experiments of ``vcrepro report --quick``, cold cache,
    each table rendered — the number researchers wait for and the
    ROADMAP headline. ``fig8`` (twitter@400, 2.2 M arcs) is ~80 % of
    it, so this is also the large-graph rung and the only workload
    where graph generation sits inside the timed section. The seed is
    the report's ``--seed``. No share assertion: every experiment must
    produce a table."""
    ids = ("fig6", "table2", "fig9", "table4") if smoke else EXPERIMENT_IDS
    return {
        "program": "report",
        "experiments": list(ids),
        "config": {"quick": True, "jobs": 1, "seed": int(seed)},
    }


def jobs_traversal(seed: int, smoke: bool) -> Dict[str, object]:
    """MSSP (W 8, 16) and BKHS (W 64, 256) x batches {1, 4} x engines
    {pregel+, graphd, giraph} on livejournal@100, in RAM. Few heavy
    rounds: the ``graph.csr`` expand/reduce kernels inside
    ``tasks`` must be >= 85 % of ``host_wall_s`` and engine accounting
    ~0, so a kernel rewrite is measured here. The seed picks each job's
    sampled sources."""
    inputs = _traversal_inputs(
        seed, smoke, ("pregel+", "graphd", "giraph"), runtime={}
    )
    inputs["assertions"] = [
        {"what": "share", "of": ["graph.csr", "tasks"], "min": 0.85},
    ]
    return inputs


def jobs_bppr(seed: int, smoke: bool) -> Dict[str, object]:
    """BPPR x batches {1, 4, 16, 32} x all nine engines on web-st@400:
    tens of thousands of ~0.1 ms rounds. The same ``tasks``/``engines``
    layers used the opposite way — per-round accounting (``engines``,
    ``sim``, ``messages``) must be >= 35 % of ``host_wall_s`` — so a
    kernel rewrite that adds per-round overhead shows here and not in
    ``jobs_traversal``. BPPR's expected-mass kernel draws no random
    numbers, so the seed picks the walks-per-node workload instead."""
    rng = random.Random(_child_seed(seed, "bppr-workload"))
    workload = float(rng.randrange(960, 1089, 16))
    batch_axis = (1, 4) if smoke else (1, 4, 16, 32)
    engines = ALL_ENGINES[:3] if smoke else ALL_ENGINES
    jobs = []
    for batches in batch_axis:
        for engine in engines:
            jobs.append(_job(seed, engine, "web-st", "bppr",
                             workload, batches))
    return {
        "program": "jobs",
        "runtime": {},
        "datasets": {"web-st": 400},
        "cluster": {"name": "galaxy-8", "scale": 400},
        "jobs": jobs,
        "assertions": [
            {"what": "share", "of": ["engines", "sim", "messages"], "min": 0.35},
        ],
    }


def jobs_streaming(seed: int, smoke: bool) -> Dict[str, object]:
    """The ``jobs_traversal`` job list after
    ``configure_streaming(max_ram_bytes=1 MiB)``: the dataset is built
    out of core and every kernel round streams CSR blocks of the
    production ``MIN_STREAM_BLOCK_ARCS``. Same kernels through the block
    path; ``setup_s`` carries the external-merge build and
    ``host_peak_rss_mb`` is the reason the mode exists. Asserted: the
    fullest round streams >= 5 blocks."""
    inputs = _traversal_inputs(
        seed, smoke, ("pregel+", "graphd", "giraph"),
        runtime={"max_ram_bytes": 1 << 20},
    )
    inputs["assertions"] = [
        {"what": "metric", "of": "graph.csr.stream_blocks_peak", "min": 5},
    ]
    return inputs


def jobs_sharded(seed: int, smoke: bool) -> Dict[str, object]:
    """The pregel+ jobs of ``jobs_traversal`` after
    ``configure_kernel_workers(2)`` at the production shard threshold —
    the only workload where ``perf.kernel_pool`` does work. Its wall
    time against the same jobs in ``jobs_traversal`` is the number
    ROADMAP's "fix or delete the pool" item needs. Asserted:
    ``sharded_dispatches`` > 0."""
    inputs = _traversal_inputs(
        seed, smoke, ("pregel+",), runtime={"kernel_workers": 2}
    )
    inputs["assertions"] = [
        {"what": "metric", "of": "perf.kernel_pool.sharded_dispatches", "min": 1},
    ]
    return inputs


def _arrival_seconds(slot: int, rate: float) -> float:
    """Slot ``i`` of a stream sending ``rate`` requests per 1 s tick."""
    return float(int(slot / rate))


def serve_backlog(seed: int, smoke: bool) -> Dict[str, object]:
    """One stream of 4 400 tiny requests (units 1-8, eleven bkhs to one
    bppr) sent at 2 per tick into a 3-lane, aging, eagerly preempting
    scheduler on web-st@400: every decision ranks a queue of about
    1 900, so the scheduler loop itself (``sched`` self time) must be
    >= 50 % of ``host_wall_s``. The scheduler state-machine refactor is
    measured here and nowhere else.

    This workload replays one fixed trace. Lane aging makes the latency
    distribution lumpy (on an earlier 1 800-request version: plateaus
    near 605 s and 1 205 s with gaps between), so any reordering — even
    swapping unit counts between requests of one lane — moved the
    median by up to 40 %. The seed only sets the
    class-0 deadline, which eager preemption never consults: it changes
    ``sched.deadline_misses`` and nothing else."""
    count = 80 if smoke else BACKLOG_REQUESTS
    kinds = ("bppr",) + ("bkhs",) * 11
    mix = [
        (kinds[i % 12], float(1 + (i // 2) % 8), (i // 16) % 3)
        for i in range(count)
    ]
    random.Random(TRACE_ORDER_SEED).shuffle(mix)
    deadlines = {0: 110.0 + 20.0 * _fraction(seed, "backlog-deadline")}
    requests = [
        [i, kind, units, _arrival_seconds(i, BACKLOG_RATE), priority,
         deadlines.get(priority), "default"]
        for i, (kind, units, priority) in enumerate(mix)
    ]
    return {
        "program": "serve",
        "runtime": {},
        "dataset": {"name": "web-st", "scale": 400},
        "cluster": {"name": "galaxy-8", "scale": 400},
        "engine": "pregel+",
        "kinds": ["bkhs", "bppr"],
        "service": {"seed": TRACE_ORDER_SEED,
                    "reference_workload": 512.0, "task_params": {}},
        "policy": {
            "priority_classes": 3,
            "aging_seconds": 600.0,
            "preempt": True,
            "preempt_rule": "eager",
        },
        "requests": requests,
        "assertions": [{"what": "share", "of": ["sched"], "min": 0.50}],
    }


def _zipf_units(count: int, exponent: float, top: int) -> List[float]:
    """``count`` unit values over ``1..top`` in exact Zipf proportion
    (largest-remainder rounding), so every seed offers the same work."""
    weights = [rank ** -exponent for rank in range(1, top + 1)]
    total = sum(weights)
    exact = [count * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(top), key=lambda r: (exact[r] - counts[r], -r), reverse=True)
    for rank in by_remainder[: count - sum(counts)]:
        counts[rank] += 1
    units: List[float] = []
    for rank, n in enumerate(counts, start=1):
        units += [float(rank)] * n
    return units


def serve_cached(seed: int, smoke: bool) -> Dict[str, object]:
    """64 bursts of 64 requests, kinds x Zipf(1.1) units over 1-256
    from 3 tenants with quotas, routed per Table 4, through the result
    cache (TTL one and a half burst periods, byte budget small enough to
    evict) with online calibration, on dblp@400. Reads beside writes on
    ``perf.cache.ResultCache`` plus ``tuning.calibrate`` tells and
    refits. Asserted: result hit ratio in 0.4-0.7 and at least one
    eviction, expiration, coalesce and refit.

    This workload replays one fixed trace. Online calibration makes the
    schedule chaotic: merely reordering requests or relabelling tenants
    turned 1 run in 3 into a 4x longer one (a refit with exponent 3.5
    collapsed admissible batches from 19 608 units to 3). Each burst is
    served before the next arrives and a cached result outlives exactly
    one later burst, so the only thing the seed changes — the burst
    period — moves ``sim_makespan_s`` and nothing else. Fewer than half
    the requests are cache hits (latency 0), which keeps
    ``sim_latency_p50_s`` above 0."""
    bursts, per_burst = (2, 20) if smoke else (CACHED_BURSTS, CACHED_PER_BURST)
    kinds = ("bppr", "mssp", "bkhs")
    tenants = ("ads", "search", "batch")
    units = sorted(_zipf_units(bursts * per_burst, 1.1, 256), reverse=True)
    # Deal the sorted units round-robin so every burst offers the same
    # work; the kind follows the unit value, which keeps the key space at
    # 256 results and leaves room for repeats.
    groups: List[List[tuple]] = [[] for _ in range(bursts)]
    for i, unit in enumerate(units):
        groups[i % bursts].append((kinds[int(unit) % 3], unit, tenants[(i // bursts) % 3]))
    order = random.Random(TRACE_ORDER_SEED)
    period = 1200.0 + 40.0 * _fraction(seed, "cached-period")
    requests = []
    for burst, group in enumerate(groups):
        order.shuffle(group)
        for kind, unit, tenant in group:
            requests.append([len(requests), kind, unit, burst * period, 1, None, tenant])
    return {
        "program": "serve",
        "runtime": {},
        "dataset": {"name": "dblp", "scale": 400},
        "cluster": {"name": "galaxy-27", "scale": 400},
        "engine": "pregel+",
        "kinds": list(kinds),
        "service": {
            "seed": TRACE_ORDER_SEED,
            "reference_workload": 512.0,
            "task_params": {"mssp": {"sample_limit": 16},
                            "bkhs": {"sample_limit": 16}},
        },
        "policy": {
            "routes": dict(TABLE4_ROUTES),
            "tenant_quotas": {"ads": 0.5, "search": 0.3, "batch": 0.2},
            "result_cache": True,
            "result_ttl_seconds": 1800.0,
            "result_cache_bytes": 300_000.0,
            "calibrate": True,
        },
        "requests": requests,
        "assertions": [
            {"what": "metric", "of": "perf.cache.result_hit_ratio", "min": 0.4, "max": 0.7},
            {"what": "metric", "of": "perf.cache.result_evictions", "min": 1},
            {"what": "metric", "of": "perf.cache.result_expirations", "min": 1},
            {"what": "metric", "of": "perf.cache.result_coalesced", "min": 1},
            {"what": "metric", "of": "tuning.refits", "min": 1},
        ],
    }


WORKLOADS: Dict[str, Callable[[int, bool], Dict[str, object]]] = {
    "report_quick": report_quick,
    "jobs_traversal": jobs_traversal,
    "jobs_bppr": jobs_bppr,
    "jobs_streaming": jobs_streaming,
    "jobs_sharded": jobs_sharded,
    "serve_backlog": serve_backlog,
    "serve_cached": serve_cached,
}


def generate(name: str, seed: int = DEFAULT_SEED, smoke: bool = False) -> Dict[str, object]:
    """Inputs of workload ``name`` for ``seed`` (any int)."""
    try:
        build = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}") from None
    inputs = build(int(seed), bool(smoke))
    inputs["workload"] = name
    inputs.setdefault("assertions", [])
    if smoke:
        inputs["assertions"] = []  # layer shares are a property of the full size
    return inputs


def input_digest(inputs: Dict[str, object]) -> str:
    """Content digest of generated inputs (same seed => same digest)."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()
