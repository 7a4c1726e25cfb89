#!/usr/bin/env python3
"""Layered benchmark of the vcrepro simulator and serving stack.

Two clocks, kept apart: ``host_*`` is what this Python process costs on
this machine, ``sim_*`` is what the modelled cluster would take.

    # one workload, one fresh process (the driver protocol)
    python3 benchmarks/layered/bench.py --workload jobs_bppr --seed 7 \\
        --seconds 8 --trace 0

    # every workload: repeated untraced runs, then one traced run each
    python3 benchmarks/layered/bench.py [--out DIR] [--smoke]

    python3 benchmarks/layered/bench.py --selfcheck
    python3 benchmarks/layered/bench.py --compare A/results.json B/results.json

See README.md beside this file for the metric glossary.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

#: absolute floors of the issue's regression rule ("worse by more than
#: the bound *and* more than this"), used by --compare / --selfcheck.
FLOORS = {
    "setup_s": 0.1,
    "host_wall_s": 0.1,
    "host_peak_rss_mb": 16.0,
}
#: --compare tightens simulated-clock bounds to this when both sides
#: ran the same seed (the simulator is deterministic per seed).
SAME_SEED_SIM_BOUND = 0.005
#: Untraced runs of each workload in the all-workload report; a set of
#: --selfcheck holds as many. report_quick is one ~20 s pass a run.
REPEATS = 5
REPORT_QUICK_REPEATS = 3
#: Each child keeps every file it writes under its own directory of this
#: prefix in the checkout (the driver lets a run write nowhere else) and
#: removes it on exit; the root .gitignore names the pattern.
SCRATCH_PREFIX = ".bench_layered_tmp-"
#: setup_s is a median over at least this many cold set-ups.
MIN_SETUPS = 3
#: glibc's allocator, pinned in the state its self-adjusting thresholds
#: can end in: arrays under 32 MiB come from the heap, the heap's top
#: is not given back, and kernel-pool threads share the one arena. Left
#: to adjust itself, the allocator settles at a point that depends on
#: the order in which the first large arrays are freed, so identical
#: processes run in different regimes: ``jobs_sharded`` took 1.1-1.8 s
#: a pass by seed under the defaults (2.7 s with every array
#: memory-mapped, 1.7 s with the top trimmed at 64 MiB) against
#: 0.95-1.05 s pinned. The price: page faults of short-lived arrays are
#: mostly out of ``host_wall_s`` and ``process.cpu_sys_s``.
ALLOCATOR = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_ARENA_MAX": "1",
}
DETAIL_PREFIX = "detail "


def say(text: str) -> None:
    """Progress and report lines, visible at once even when piped."""
    print(text, flush=True)


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ======================================================================
# Child: one workload in this process
# ======================================================================
def _pin_allocator(argv: Sequence[str]) -> None:
    """glibc reads :data:`ALLOCATOR` once, when a process starts: a
    child started without it starts itself again with it."""
    if any(os.environ.get(key) != value for key, value in ALLOCATOR.items()):
        os.environ.update(ALLOCATOR)
        os.execv(sys.executable, [sys.executable, str(HERE / "bench.py"), *argv])


def _isolate() -> str:
    """Clear ``REPRO_*``, cap library threads, and pin every temp file
    under a fresh directory of this child's own inside the checkout;
    returns that directory. Must run before numpy is imported."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    # With transparent huge pages in madvise mode numpy asks for them on
    # every large array, and what a huge-page fault costs depends on the
    # host's free memory layout: identical passes then differ by up to
    # 70 % in sys time. Interleaved A/B runs of jobs_streaming showed a
    # 34 % run-to-run spread with the request on and 8 % with it off.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    scratch = tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=ROOT)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    return scratch


_KERNEL_PHASES = ("expand", "reduce", "frontier", "dedup")
_POOL_COUNTERS = ("sharded_dispatches", "serial_fallbacks", "shards_executed")


def _public_counters() -> Dict[str, float]:
    """The program's own running counters the per-layer metrics read
    (``timings.snapshot()``, ``get_cache().stats``, ``kernel_pool_stats()``)."""
    from repro.perf import get_cache, kernel_pool_stats, timings

    phases = timings.snapshot()
    cache_stats = get_cache().stats
    pool = kernel_pool_stats()
    counters = {p: phases.get(f"kernel.{p}", {}).get("seconds", 0.0) for p in _KERNEL_PHASES}
    counters["artifact_hits"] = cache_stats.hits + cache_stats.disk_hits
    counters.update({name: pool[name] for name in _POOL_COUNTERS})
    return counters


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS watermark (Linux), so each round
    reports its own peak; elsewhere the peak stays the process's."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Peak resident set since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(table, recorder, outcome, walls: List[float],
                   baseline_walls: List[float], public: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics a trace yields, per traced round. ``walls``
    are the traced passes, ``baseline_walls`` the untraced ones of the
    same child, ``public`` the growth of :func:`_public_counters` over
    the traced rounds."""
    import spans

    PASS = spans.PHASE_PASS
    per = 1.0 / len(walls)
    busy = lambda name, phase=None: table.busy(name, phase) * per  # noqa: E731
    calls = lambda name, phase=None: table.calls(name, phase) * per  # noqa: E731
    own = lambda name, phase=None: table.self_seconds(name, phase) * per  # noqa: E731
    counter = lambda name: recorder.counters.get(name, 0) * per  # noqa: E731
    m: Dict[str, float] = {}

    m["graph.gen_s"] = busy("graph.gen")
    m["graph.gen_calls"] = calls("graph.gen")
    m["graph.build_ooc_s"] = busy("graph.build_ooc")
    m["graph.open_mapped_s"] = busy("graph.open_mapped")
    m["graph.partition_s"] = busy("graph.partition")
    m["graph.mirror_plan_s"] = busy("graph.mirror_plan")

    m["graph.csr.expand_s"] = busy("graph.csr.expand")
    m["graph.csr.expand_calls"] = calls("graph.csr.expand")
    m["graph.csr.expand_arcs"] = counter("expand_arcs")
    m["graph.csr.segment_min_s"] = busy("graph.csr.segment_min")
    m["graph.csr.segment_min_calls"] = calls("graph.csr.segment_min")
    m["graph.csr.segment_sum_s"] = busy("graph.csr.segment_sum")
    m["graph.csr.scatter_dense_s"] = busy("graph.csr.scatter_dense")
    m["graph.csr.dedup_s"] = busy("graph.csr.dedup")
    m["graph.csr.propagate_mass_s"] = busy("graph.csr.propagate_mass")
    m["graph.csr.propagate_mass_calls"] = calls("graph.csr.propagate_mass")
    m["graph.csr.stream_s"] = busy("graph.csr.stream")
    m["graph.csr.stream_blocks"] = counter("stream_blocks")
    m["graph.csr.stream_blocks_peak"] = float(recorder.peaks.get("stream_blocks", 0))
    # Every sharded kernel, in graph.csr or in a task, dispatches here.
    m["graph.csr.sharded_s"] = busy("perf.kernel_pool.run")

    steps = table.durations("tasks.step", PASS) * 1e3
    m["tasks.step_s"] = busy("tasks.step", PASS)
    m["tasks.step_self_s"] = own("tasks.step", PASS)
    m["tasks.step_calls"] = calls("tasks.step", PASS)
    m["tasks.step_ms_p50"] = stats.percentile(steps, 50) if len(steps) else 0.0
    m["tasks.step_ms_p99"] = stats.tail_percentile(steps, 99)[0] if len(steps) else 0.0
    for task in ("mssp", "bkhs", "bppr"):
        m[f"tasks.{task}.step_s"] = busy(f"tasks.step.{task}", PASS)
    # The kernels' own sub-phase timers (repro.perf.timings), read as is.
    for phase in _KERNEL_PHASES:
        m[f"tasks.{phase}_s"] = public[phase] * per

    m["messages.route_s"] = busy("messages.route")
    m["messages.route_calls"] = calls("messages.route")
    m["messages.combine_s"] = busy("messages.combine")
    m["messages.combine_calls"] = calls("messages.combine")

    m["sim.cost_s"] = busy("sim.cost")
    m["sim.cost_calls"] = calls("sim.cost")
    m["sim.pack_job_s"] = busy("sim.pack_job")
    m["sim.clone_job_s"] = busy("sim.clone_job")

    engine_self = sum(own(n, PASS) for n in (
        "engines.run_job", "engines.run_uncached", "engines.run_batch", "engines.open_session"))
    rounds_run = calls("sim.cost", PASS)
    m["engines.run_job_s"] = busy("engines.run_job", PASS)
    m["engines.run_batch_s"] = busy("engines.run_batch", PASS)
    m["engines.run_batch_calls"] = calls("engines.run_batch", PASS)
    m["engines.self_s"] = engine_self
    m["engines.rounds"] = rounds_run
    m["engines.us_per_round_self"] = engine_self / rounds_run * 1e6 if rounds_run else 0.0
    m["engines.open_session_s"] = busy("engines.open_session")

    jobs = table.durations("engines.run_job", PASS) * 1e3
    m["batching.jobs"] = len(jobs) * per
    m["batching.job_ms_p50"] = stats.percentile(jobs, 50) if len(jobs) else 0.0
    m["batching.job_ms_p90"] = stats.tail_percentile(jobs, 90)[0] if len(jobs) else 0.0

    m["tuning.train_s"] = busy("tuning.train")
    m["tuning.lma_s"] = busy("tuning.lma")
    m["tuning.plan_s"] = busy("tuning.plan")
    m["tuning.plan_calls"] = calls("tuning.plan")
    m["tuning.tell_s"] = busy("tuning.tell")
    for name in ("tuning.probe_jobs", "tuning.tells", "tuning.refits"):
        m[name] = float(outcome.counters.get(name, 0))

    # The loop's own time plus the preemption check it runs as a
    # callback inside the engine's round loop.
    sched_self = own("sched.run", PASS) + own("sched.preempt_check", PASS)
    decisions = float(outcome.counters.get("sched.decisions", 0))
    keys = counter("selection_keys")
    m["sched.run_s"] = busy("sched.run", PASS)
    m["sched.self_s"] = sched_self
    m["sched.decisions"] = decisions
    m["sched.us_per_decision"] = sched_self / decisions * 1e6 if decisions else 0.0
    m["sched.admit_s"] = busy("sched.admit")
    m["sched.admit_calls"] = calls("sched.admit")
    m["sched.selection_keys"] = keys
    m["sched.keys_per_decision"] = keys / decisions if decisions else 0.0
    for name in ("sched.preemptions", "sched.resumes", "sched.deadline_misses"):
        m[name] = float(outcome.counters.get(name, 0))

    lookups = calls("perf.cache.artifact")
    hits = public["artifact_hits"] * per
    m["perf.cache.artifact_lookups"] = lookups
    m["perf.cache.artifact_hits"] = hits
    m["perf.cache.artifact_hit_ratio"] = hits / lookups if lookups else 0.0
    m["perf.cache.artifact_self_s"] = own("perf.cache.artifact")
    m["perf.cache.result_lookup_s"] = busy("perf.cache.result_lookup")
    m["perf.cache.result_store_s"] = busy("perf.cache.result_store")
    for name in ("lookups", "hits", "hit_ratio", "stores", "evictions",
                 "expirations", "coalesced", "bytes"):
        key = f"perf.cache.result_{name}"
        m[key] = float(outcome.counters.get(key, 0))

    dispatches = public["sharded_dispatches"] * per
    fallbacks = public["serial_fallbacks"] * per
    m["perf.kernel_pool.sharded_dispatches"] = dispatches
    m["perf.kernel_pool.serial_fallbacks"] = fallbacks
    m["perf.kernel_pool.shards_executed"] = public["shards_executed"] * per
    m["perf.kernel_pool.useful_ratio"] = (
        dispatches / (dispatches + fallbacks) if dispatches + fallbacks else 0.0
    )

    for eid in workloads.EXPERIMENT_IDS:
        m[f"experiments.{eid}_s"] = busy(f"experiments.{eid}")
    m["experiments.self_s"] = sum(own(f"experiments.{eid}") for eid in workloads.EXPERIMENT_IDS)
    m["experiments.render_s"] = busy("experiments.render")
    for name in ("experiments.claims_checked", "experiments.claims_not_held"):
        m[name] = float(outcome.counters.get(name, 0))

    wall = sum(walls) * per
    unattributed = own("bench.pass", PASS)
    m["process.unattributed_s"] = unattributed
    m["process.unattributed_ratio"] = unattributed / wall
    m["trace.overhead_ratio"] = median(walls) / median(baseline_walls) - 1.0
    return m


def _check_assertions(inputs, layer: Dict[str, float], shares: Dict[str, float]) -> List[str]:
    """Layer-share assertions of a workload that do not hold."""
    broken = []
    for rule in inputs["assertions"]:
        if rule["what"] == "share":
            value = sum(shares.get(layer_name, 0.0) for layer_name in rule["of"])
            label = "+".join(rule["of"]) + " share of host_wall_s"
        else:
            value = layer[rule["of"]]
            label = rule["of"]
        low, high = rule.get("min"), rule.get("max")
        if (low is not None and value < low) or (high is not None and value > high):
            broken.append(f"{label} = {value:.4g}, wanted [{low}, {high}]")
    return broken


def run_child(args, argv: Sequence[str]) -> int:
    _pin_allocator(argv)
    scratch = _isolate()
    try:
        return _run_child(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_child(args, scratch: str) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    sys.path.insert(0, str(ROOT / "src"))
    import gate
    import programs
    import spans
    from repro.perf import clear_cache, reset_kernel_pool

    import_s = time.perf_counter() - _PROCESS_START
    tick = time.perf_counter()
    inputs = workloads.generate(args.workload, args.seed, args.smoke)
    generate_s = time.perf_counter() - tick
    problems = [f"gate: {p}" for p in gate.kernel_gate(args.seed)]

    program = programs.make_program(inputs)
    programs.apply_runtime(inputs.get("runtime", {}))
    recorder = spans.Recorder() if args.trace else None

    setups: List[float] = []
    walls: List[float] = []  # untraced passes
    steps: List[List[float]] = []  # their separately timed steps
    peaks: List[float] = []
    traced_walls: List[float] = []
    cpu_user: List[float] = []
    cpu_sys: List[float] = []
    outcomes = []
    public: Dict[str, float] = {}  # growth of the program's counters over traced passes
    started = time.perf_counter()
    while True:
        # A traced child alternates untraced and traced passes, untraced
        # first: the untraced ones are the baseline of
        # trace.overhead_ratio, and no end-to-end number is ever taken
        # from a traced pass.
        traced = recorder is not None and len(walls) > len(traced_walls)
        workdir = tempfile.mkdtemp(prefix="round-", dir=scratch)
        if traced:
            public_before = _public_counters()
            recorder.install()
            span, phase = recorder.span, recorder.set_phase
        else:
            _reset_peak_rss()
            span, phase = (lambda name: nullcontext()), (lambda value: None)
        phase(spans.PHASE_SETUP)
        with span("bench.setup"):
            tick = time.perf_counter()
            state = program.setup(workdir)
            setup_s = time.perf_counter() - tick
        phase(spans.PHASE_PASS)
        before = resource.getrusage(resource.RUSAGE_SELF)
        with span("bench.pass"):
            tick = time.perf_counter()
            done = program.run(state, recorder if traced else None)
            wall = time.perf_counter() - tick
        after = resource.getrusage(resource.RUSAGE_SELF)
        if traced:
            phase(spans.PHASE_OTHER)
            recorder.uninstall()
            traced_walls.append(wall)
            for name, value in _public_counters().items():
                public[name] = public.get(name, 0.0) + value - public_before[name]
        else:
            cpu_user.append(after.ru_utime - before.ru_utime)
            cpu_sys.append(after.ru_stime - before.ru_stime)
            walls.append(wall)
            steps.append(done.step_seconds)
            peaks.append(_peak_rss_mb())
            setups.append(setup_s)
        outcomes.append(program.finish(state, done.raw))
        del state, done
        clear_cache()
        shutil.rmtree(workdir, ignore_errors=True)
        enough = time.perf_counter() - started >= args.seconds
        if enough and (recorder is None or len(traced_walls) == len(walls)):
            break

    # A pass as long as --seconds leaves room for one round only: set up
    # again, without a pass, until the median has its samples.
    while len(setups) < MIN_SETUPS:
        workdir = tempfile.mkdtemp(prefix="round-", dir=scratch)
        tick = time.perf_counter()
        state = program.setup(workdir)
        setups.append(time.perf_counter() - tick)
        del state
        clear_cache()
        shutil.rmtree(workdir, ignore_errors=True)

    first = outcomes[0]
    correct = not problems and all(o.correct for o in outcomes)
    for outcome in outcomes:
        problems += outcome.problems
    if len({o.sim_digest for o in outcomes}) > 1:
        problems.append("sim_digest differs between passes of one process")
        correct = False
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    # A pass is the sum of its steps; taking each step's median over the
    # passes keeps a slow phase of the host that hit one pass out of it.
    host_wall_s = sum(median(step) for step in zip(*steps))
    end_to_end = {
        "setup_s": import_s + generate_s + median(setups),
        "host_wall_s": host_wall_s,
        "host_ops_per_s": first.ops / host_wall_s,
        "host_peak_rss_mb": median(peaks),
        "sim_makespan_s": first.sim_makespan_s,
        "sim_latency_p50_s": stats.percentile(first.sim_latencies_s, 50),
        "sim_latency_tail_s": stats.percentile(first.sim_latencies_s, first.tail_percentile),
    }
    detail: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "input_digest": workloads.input_digest(inputs),
        "sim_digest": first.sim_digest,
        "part_digests": first.part_digests,
        "passes": len(walls),
        "host_wall_samples_s": walls,
        "setup_samples_s": setups,
        "import_s": import_s,
        "sim_latency_samples": len(first.sim_latencies_s),
        "sim_latency_tail_percentile": first.tail_percentile,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "end_to_end": end_to_end,
    }

    if recorder is None:
        section, values = "end_to_end", end_to_end
    else:
        table = recorder.table()
        values = _layer_metrics(table, recorder, outcomes[-1], traced_walls, walls, public)
        # Measured outside the trace: CPU time of the untraced passes and
        # the benchmark's own request generation.
        values["process.cpu_user_s"] = median(cpu_user)
        values["process.cpu_sys_s"] = median(cpu_sys)
        values["sched.arrivals_gen_s"] = generate_s
        total = sum(traced_walls)
        shares = {layer: seconds / total for layer, seconds in
                  table.layer_self(spans.PHASE_PASS).items()}
        detail["layer_shares"] = shares
        detail["traced_passes"] = len(traced_walls)
        detail["spans"] = len(recorder.start)
        detail["assertions_broken"] = _check_assertions(inputs, values, shares)
        for line in detail["assertions_broken"]:
            print(f"bench: {args.workload}: layer-share assertion failed: {line}", file=sys.stderr)
        if args.trace_out:
            recorder.dump(args.trace_out)
        section = "per_layer"

    reset_kernel_pool()  # stops the worker threads

    metrics = {}
    for spec in contract[section]:
        name = spec["name"]
        if name not in values:
            print(f"bench: metric {name} of BENCHMARK.json is not measured", file=sys.stderr)
            return 2
        metrics[name] = {"value": float(values[name]), "unit": spec["unit"]}
    for problem in problems:
        print(f"bench: {args.workload}: {problem}", file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


# ======================================================================
# Orchestrator: fresh child per repeat, one at a time
# ======================================================================
def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
          trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one child and parse its two result lines."""
    command = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        raise RuntimeError(
            f"{workload} child failed (exit {done.returncode}):\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    result["stderr"] = done.stderr
    return result


def workload_order(names: Sequence[str], repeat: int, sets: int) -> List[str]:
    """Workload order of one repeat: reversed after every ``sets``
    repeats, so that dealing the repeats alternately into ``sets`` sets
    (:func:`_every_other`) gives each set both orders."""
    return list(names) if (repeat // sets) % 2 == 0 else list(reversed(names))


def run_set(names: Sequence[str], seed: int, seconds: float, wanted: Dict[str, int],
            sets: int, smoke: bool, out_dir: Optional[Path], log=say) -> Dict[str, Any]:
    """``wanted[name]`` untraced runs of each workload, then one traced
    run each; returns the results document."""
    contract = load_contract()
    results: Dict[str, Any] = {
        "schema": 1, "seed": seed, "seconds": seconds, "smoke": smoke, "workloads": {},
    }
    for name in names:
        results["workloads"][name] = {
            "end_to_end": {spec["name"]: [] for spec in contract["end_to_end"]},
            "fail_ratio": [], "sim_digests": [], "problems": [], "correct": True,
        }
    for repeat in range(max(wanted.values())):
        for name in workload_order(names, repeat, sets):
            if repeat >= wanted[name]:
                continue
            log(f"  run {repeat + 1}/{wanted[name]} {name}")
            child = spawn(name, seed, seconds, 0, smoke)
            entry = results["workloads"][name]
            for metric, sample in child["metrics"].items():
                entry["end_to_end"][metric].append(sample["value"])
            detail = child["detail"]
            entry["fail_ratio"].append(detail["fail_ratio"])
            entry["sim_digests"].append(detail["sim_digest"])
            entry["input_digest"] = detail["input_digest"]
            entry["part_digests"] = detail["part_digests"]
            entry["tail_percentile"] = detail["sim_latency_tail_percentile"]
            entry["latency_samples"] = detail["sim_latency_samples"]
            entry["problems"] += detail["problems"]
            entry["correct"] = entry["correct"] and child["correct"]
    for name in names:
        log(f"  traced {name}")
        trace_out = str(out_dir / f"trace-{name}.json") if out_dir else None
        child = spawn(name, seed, seconds, 1, smoke, trace_out)
        entry = results["workloads"][name]
        entry["per_layer"] = {k: v["value"] for k, v in child["metrics"].items()}
        entry["layer_shares"] = child["detail"]["layer_shares"]
        entry["assertions_broken"] = child["detail"]["assertions_broken"]
        entry["sim_digests"].append(child["detail"]["sim_digest"])
        entry["problems"] += child["detail"]["problems"]
        entry["correct"] = entry["correct"] and child["correct"]
    return results


def _every_other(results: Dict[str, Any], offset: int) -> Dict[str, Any]:
    """The results document holding every second untraced run."""
    half = json.loads(json.dumps(results))
    for entry in half["workloads"].values():
        for samples in entry["end_to_end"].values():
            samples[:] = samples[offset::2]
        entry["fail_ratio"] = entry["fail_ratio"][offset::2]
    return half


def cross_checks(results: Dict[str, Any]) -> List[str]:
    """Digest rules that span repeats and workloads."""
    errors = []
    loads = results["workloads"]
    for name, entry in loads.items():
        if len(set(entry["sim_digests"])) > 1:
            errors.append(f"{name}: sim_digest differs between repeats")
        if not entry["correct"]:
            errors.append(f"{name}: outputs incorrect: {'; '.join(entry['problems'])}")
        for line in entry.get("assertions_broken", []):
            errors.append(f"{name}: layer-share assertion failed: {line}")
    base = loads["jobs_traversal"]
    for other in ("jobs_sharded", "jobs_streaming"):
        for job_id, digest in loads[other]["part_digests"].items():
            if job_id.endswith("/pregel+") and base["part_digests"].get(job_id) != digest:
                errors.append(f"{other}: {job_id} digest differs from jobs_traversal")
    return errors


def print_report(results: Dict[str, Any], log=say) -> None:
    contract = load_contract()
    for name, entry in results["workloads"].items():
        log(f"\n== {name}  (seed {results['seed']}, inputs {entry.get('input_digest', '?')})")
        log(f"sim_digest {entry['sim_digests'][0] if entry['sim_digests'] else '?'}")
        rows = []
        for spec in contract["end_to_end"]:
            samples = entry["end_to_end"][spec["name"]]
            if not samples:
                continue
            s = stats.summarize(samples)
            note = ""
            if spec["name"] == "sim_latency_tail_s":
                note = (f"p{entry['tail_percentile']:g} of "
                        f"{entry['latency_samples']} samples")
            rows.append([spec["name"], spec["unit"], f"{s['median']:.6g}",
                         f"{s['q1']:.6g}", f"{s['q3']:.6g}", s["n"], note])
        ratios = entry["fail_ratio"]
        if ratios:
            rows.append(["fail_ratio", "ratio", f"{max(ratios):.6g}", "", "", len(ratios), ""])
        log(stats.format_table(rows, ["end-to-end", "unit", "median", "q1", "q3", "n", ""]))
        if "per_layer" in entry:
            rows = [[spec["name"], spec["unit"], f"{entry['per_layer'][spec['name']]:.6g}"]
                    for spec in contract["per_layer"]
                    if entry["per_layer"][spec["name"]]]
            log(stats.format_table(rows, ["per-layer (traced, n=1, zeros omitted)", "unit", "value"]))
            shares = ", ".join(f"{k} {v:.1%}" for k, v in
                               sorted(entry["layer_shares"].items(), key=lambda kv: -kv[1])
                               if v >= 0.005)
            log(f"self-time shares of host_wall_s: {shares}")


def compare(base: Dict[str, Any], new: Dict[str, Any], log=say) -> Dict[str, int]:
    """One row per workload x end-to-end metric; returns verdict counts."""
    contract = load_contract()
    same_seed = base.get("seed") == new.get("seed") and base.get("smoke") == new.get("smoke")
    rows, tally = [], {"better": 0, "within": 0, "worse": 0, "unresolved": 0}
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        specs = list(contract["end_to_end"]) + [
            {"name": "fail_ratio", "unit": "ratio", "better": "lower", "bound": 0.0}]
        for spec in specs:
            metric = spec["name"]
            xs = a["fail_ratio"] if metric == "fail_ratio" else a["end_to_end"][metric]
            ys = b["fail_ratio"] if metric == "fail_ratio" else b["end_to_end"][metric]
            if not xs or not ys:
                continue
            bound = spec["bound"]
            if metric.startswith("sim_") and same_seed:
                bound = SAME_SEED_SIM_BOUND
            v = stats.verdict(spec["better"], bound, xs, ys, FLOORS.get(metric, 0.0))
            tally[v["verdict"]] += 1
            ratio = "n/a" if v["ratio"] is None else f"{v['ratio']:.4f}"
            rows.append([
                name, metric, spec["unit"],
                f"{v['base']['median']:.6g} [{v['base']['q1']:.6g}, {v['base']['q3']:.6g}] n={v['base']['n']}",
                f"{v['new']['median']:.6g} [{v['new']['q1']:.6g}, {v['new']['q3']:.6g}] n={v['new']['n']}",
                f"{ratio} of {v['base']['median']:.6g}", v["verdict"],
            ])
        if same_seed and set(a["sim_digests"]) != set(b["sim_digests"]):
            rows.append([name, "sim_digest", "", a["sim_digests"][0], b["sim_digests"][0], "", "differs"])
    log(stats.format_table(rows, ["workload", "metric", "unit", "base median [q1, q3]",
                                  "new median [q1, q3]", "ratio", "verdict"]))
    log("verdicts: " + ", ".join(f"{k} {v}" for k, v in tally.items()))
    return tally


def run_all(args) -> int:
    names = list(workloads.WORKLOADS)
    out_dir = Path(args.out).resolve() if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    say(f"running: {', '.join(names)}")
    # --selfcheck makes twice the runs and deals them alternately into
    # two sets, so a drift of the host's speed lands on both alike.
    sets_wanted = 2 if args.selfcheck else 1
    wanted = {name: sets_wanted * (1 if args.smoke else
                                   REPORT_QUICK_REPEATS if name == "report_quick" else REPEATS)
              for name in names}
    results = run_set(names, args.seed, args.seconds, wanted, sets_wanted, args.smoke, out_dir)
    sets = [_every_other(results, 0), _every_other(results, 1)] if args.selfcheck else [results]
    if out_dir:
        for label, document in zip(("A", "B") if args.selfcheck else ("",), sets):
            target = out_dir / f"results{label}.json"
            target.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
            print(f"wrote {target}")
    errors = cross_checks(results)
    print_report(results)
    status = 0
    if args.selfcheck:
        print("\n== selfcheck: odd runs against even runs (same tree)")
        tally = compare(sets[0], sets[1])
        if tally["worse"] or tally["better"]:
            errors.append("two runs of the same tree disagree beyond the benchmark's bounds")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
        status = 1
    print("\nOK: outputs correct, digests stable, layer-share assertions hold"
          if not status else "\nFAILED")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract_seconds = load_contract()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract_seconds,
                        help="keep starting passes until this much time has gone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the span dump here (traced child)")
    parser.add_argument("--smoke", action="store_true", help="every workload at ~1/20 size")
    parser.add_argument("--out", help="directory for results.json and trace-*.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two full sets of runs of this tree, compared with the bounds")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if args.smoke and args.seconds == contract_seconds:
        args.seconds = 0.5
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            tally = compare(json.load(fa), json.load(fb))
        return 1 if tally["worse"] else 0
    if args.workload:
        return run_child(args, argv)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
