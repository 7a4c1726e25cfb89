"""Command-line interface: ``python -m repro`` / ``vcrepro``.

Subcommands
-----------
``list``
    List datasets, engines, clusters and experiments.
``run``
    Run one multi-processing job and print its metrics.
``sweep``
    Sweep batch counts for one setting (a mini Figure 3 panel).
``experiment``
    Regenerate one paper table/figure (or ``all``).
``tune``
    Train the Section 5 auto-tuner and run a workload.
``report``
    Run every experiment and write EXPERIMENTS.md.
``serve``
    Run the online scheduling service on a seeded arrival stream.

Shared flags (``--scale``, ``--seed``, ``--cache-dir``, ``--max-ram``,
``--kernel-workers``, the setting flags, and the fault knobs)
are declared once on common *parent parsers* and inherited by every
subcommand that needs them, so a new subcommand can never drift out of
sync with the rest of the CLI.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import List, Optional

from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import PRESETS, cluster_by_name
from repro.engines.registry import ENGINE_NAMES
from repro.errors import ConfigurationError, ReproError
from repro.experiments.base import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.graph.datasets import DEFAULT_SCALE, PAPER_DATASETS, load_dataset
from repro.perf import timings
from repro.perf.cache import configure_cache, get_cache
from repro.rng import DEFAULT_SEED
from repro.tasks.base import make_task
from repro.tuning.autotuner import AutoTuner


def _job_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("kernel workers must be >= 0")
    return value


def _finite_float(text: str) -> float:
    """A float flag that must be a real number (no nan / inf)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


#: ``--max-ram`` suffix multipliers (case-insensitive, powers of two).
_RAM_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def _ram_budget(text: str) -> int:
    """Parse a ``--max-ram`` value: plain bytes or K/M/G/T suffixed."""
    raw = text.strip().lower().rstrip("b")
    multiplier = 1
    if raw and raw[-1] in _RAM_SUFFIXES:
        multiplier = _RAM_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * multiplier)
    except (ValueError, OverflowError):  # nan raises one, inf the other
        raise argparse.ArgumentTypeError(
            f"invalid memory budget {text!r}; use bytes or a K/M/G/T "
            "suffix (e.g. 512M, 2G)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("memory budget must be positive")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Declare the runtime knobs shared by every executing subcommand."""
    parser.add_argument(
        "--scale",
        type=int,
        default=DEFAULT_SCALE,
        help="simulation scale: dataset nodes and cluster capacities are "
        f"divided by this factor (default {DEFAULT_SCALE})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="master RNG seed"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk artifact cache (graphs persist "
        "as .csr directories, engine runs as .npz archives, across "
        "invocations); defaults to the "
        "REPRO_CACHE_DIR environment variable",
    )
    parser.add_argument(
        "--max-ram",
        type=_ram_budget,
        default=None,
        metavar="BYTES",
        help="resident-memory budget (e.g. 512M, 2G; default: the "
        "REPRO_MAX_RAM environment variable, else unlimited). Datasets "
        "whose in-RAM build would exceed it are built out-of-core into "
        "a CSR directory, and graphs whose arcs exceed one block of it "
        "are processed with the block-streaming kernels; results are "
        "byte-identical",
    )
    parser.add_argument(
        "--kernel-workers",
        type=_job_count,
        default=0,
        metavar="N",
        help="intra-task worker threads for the sharded MSSP/BKHS/BPPR "
        "kernels (row-sharded expand/reduce with a deterministic "
        "winner-key merge); 0 or 1 = serial (default); results are "
        "byte-identical at any worker count",
    )


def _add_setting(parser: argparse.ArgumentParser) -> None:
    """Declare the dataset/task/engine/cluster setting flags."""
    parser.add_argument("--dataset", default="dblp", help="paper dataset name")
    parser.add_argument(
        "--task",
        default="bppr",
        choices=["bppr", "bppr-query", "mssp", "bkhs", "pagerank"],
    )
    parser.add_argument("--workload", type=_finite_float, default=1024.0)
    parser.add_argument("--engine", default="pregel+", help="VC-system mode")
    parser.add_argument(
        "--cluster", default="galaxy-8", help="galaxy-8 | galaxy-27 | docker-32"
    )
    parser.add_argument(
        "--machines",
        type=int,
        default=None,
        help="override the preset's machine count",
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    """Declare the fault-injection knobs shared by ``run`` and ``serve``."""
    parser.add_argument(
        "--faults",
        type=_finite_float,
        default=0.0,
        metavar="RATE",
        help="inject a seeded fault plan: per-round crash probability "
        "(stragglers/message loss at half the rate, disk-full at a "
        "quarter)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="K",
        help="write a checkpoint every K rounds (Pregel model); crash "
        "replay is then bounded by K rounds (0 = no checkpoints)",
    )


def _apply_runtime_knobs(args) -> None:
    """Apply ``--cache-dir``/``--kernel-workers``/``--max-ram``."""
    if getattr(args, "cache_dir", None):
        configure_cache(directory=args.cache_dir)
    if getattr(args, "kernel_workers", None):
        from repro.perf.kernel_pool import configure_kernel_workers

        configure_kernel_workers(args.kernel_workers)
    max_ram = getattr(args, "max_ram", None)
    if max_ram is None:
        env = os.environ.get("REPRO_MAX_RAM", "").strip()
        if env:
            try:
                max_ram = _ram_budget(env)
            except argparse.ArgumentTypeError as exc:
                raise ReproError(f"REPRO_MAX_RAM: {exc}") from None
    if max_ram is not None:
        from repro.graph.csr import configure_streaming

        configure_streaming(max_ram_bytes=max_ram)


def _build_setting(args):
    _apply_runtime_knobs(args)
    cluster = cluster_by_name(args.cluster, scale=args.scale)
    if args.machines is not None:
        cluster = cluster.with_machines(args.machines)
    graph = load_dataset(args.dataset, scale=args.scale)
    task = make_task(args.task, graph, args.workload)
    return cluster, graph, task


def cmd_list(args) -> int:
    """``vcrepro list``: show datasets, engines, clusters, experiments."""
    print("datasets: ", ", ".join(sorted(PAPER_DATASETS)))
    print("engines:  ", ", ".join(ENGINE_NAMES))
    print("clusters: ", ", ".join(sorted(PRESETS)))
    print("experiments:", ", ".join(EXPERIMENTS))
    return 0


def cmd_run(args) -> int:
    """``vcrepro run``: execute one job and print (or JSON-dump) metrics."""
    from repro.faults.plan import mixed_fault_plan

    cluster, _graph, task = _build_setting(args)
    job = MultiProcessingJob(args.engine, cluster)
    plan = None
    if args.faults:
        plan = mixed_fault_plan(args.seed, cluster.num_machines, args.faults)
    metrics = job.run(
        task,
        num_batches=args.batches,
        seed=args.seed,
        fault_plan=plan,
        checkpoint_every=args.checkpoint_every or None,
        on_overload=args.on_overload,
    )
    if args.json:
        import json

        print(json.dumps(metrics.to_dict(include_rounds=args.rounds),
                         indent=2))
        return 0
    print(metrics.summary())
    for batch in metrics.batches:
        print(
            f"  batch {batch.batch_index}: W={batch.workload:g} "
            f"rounds={batch.num_rounds} time={batch.seconds:.1f}s "
            f"overloaded={batch.overloaded}"
        )
    if plan or args.checkpoint_every:
        print(
            f"  recovery: {metrics.fault_events} fault events, "
            f"{metrics.crashes} crashes, "
            f"{metrics.rounds_replayed} rounds replayed "
            f"({metrics.replay_seconds:.1f}s), "
            f"{metrics.checkpoints_written} checkpoints "
            f"({metrics.checkpoint_seconds:.1f}s)"
        )
    return 0


def cmd_sweep(args) -> int:
    """``vcrepro sweep``: batch-count sweep with regime classification."""
    from repro.analysis.tradeoff import TradeoffCurve

    cluster, _graph, task = _build_setting(args)
    job = MultiProcessingJob(args.engine, cluster)
    runs = job.sweep_batches(task, seed=args.seed)
    print(
        f"{args.engine} / {args.task} W={args.workload:g} on "
        f"{cluster.name} ({cluster.num_machines} machines):"
    )
    curve = TradeoffCurve.from_runs(runs, cluster.scaled_machine)
    for point, metrics in zip(curve.points, runs):
        print(
            f"  {point.batches:>3} batches: {metrics.time_label():>10} "
            f" msgs/round={point.messages_per_round:>12,.0f}"
            f"  [{point.regime}]"
        )
    best = curve.optimum
    if best is not None:
        print(f"optimum: {best.batches} batches")
    print(f"advice: {curve.advice()}")
    return 0


def cmd_experiment(args) -> int:
    """``vcrepro experiment``: regenerate paper figures/tables."""
    _apply_runtime_knobs(args)
    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        quick=args.quick,
        preempt=getattr(args, "preempt", False),
        multi_tenant=getattr(args, "multi_tenant", False),
        calibrate=getattr(args, "calibrate", False),
    )
    ids = list(EXPERIMENTS) if args.id == "all" else [args.id]
    failures = 0
    for eid in ids:
        start = time.time()
        result = run_experiment(eid, config)
        print(result.to_text())
        print(f"[{time.time() - start:.1f}s]\n")
        failures += sum(1 for holds in result.claims.values() if not holds)
    return 1 if failures else 0


def cmd_tune(args) -> int:
    """``vcrepro tune``: train the Section 5 auto-tuner and run a job."""
    cluster, graph, _task = _build_setting(args)
    tuner = AutoTuner.for_engine(
        args.engine,
        cluster,
        lambda w: make_task(args.task, graph, w),
        seed=args.seed,
    )
    report = tuner.run(args.workload)
    model = report.model
    print(
        f"memory models: M*(W) = {model.peak.a:.3g}*W^{model.peak.b:.3f} "
        f"+ {model.peak.c:.3g}; "
        f"Mr(W) = {model.residual.a:.3g}*W^{model.residual.b:.3f} "
        f"+ {model.residual.c:.3g}"
    )
    print(report.summary())
    return 0


def cmd_report(args) -> int:
    """``vcrepro report``: write EXPERIMENTS.md from a full run.

    Also prints the phase-timing table accumulated during the run, the
    process's peak RSS and the artifact-cache counters.
    """
    import resource

    from repro.experiments.report import write_experiments_markdown
    from repro.perf.kernel_pool import kernel_pool_stats

    _apply_runtime_knobs(args)
    config = ExperimentConfig(
        scale=args.scale, seed=args.seed, quick=args.quick
    )
    timings.reset()
    start = time.time()
    path = write_experiments_markdown(args.output, config)
    wall = time.time() - start
    print(f"wrote {path} (wall {wall:.1f}s)")
    print()
    print(timings.render_table(subphases=args.phases))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024  # ru_maxrss is KiB on Linux, bytes on macOS
    print(f"memory: peak RSS {peak / 1e6:.1f} MB")
    cache = get_cache().stats
    print(
        f"artifact cache: {cache.hits} hits, {cache.disk_hits} disk hits, "
        f"{cache.misses} misses, {cache.corruptions} corruptions"
    )
    pool_info = kernel_pool_stats()
    if pool_info["sharded_dispatches"]:
        print(
            f"kernel pool: {pool_info['workers']} workers, "
            f"{pool_info['sharded_dispatches']} sharded rounds "
            f"({pool_info['shards_executed']} shards, "
            f"{pool_info['serial_fallbacks']} serial fallbacks)"
        )
    return 0


def _parse_kv_flags(pairs, cast, flag: str):
    """Parse repeatable ``NAME=VALUE`` flags into a dict (None if none)."""
    if not pairs:
        return None
    out = {}
    for spec in pairs:
        name, sep, value = spec.partition("=")
        name = name.strip()
        if not sep or not name or not value.strip():
            raise ConfigurationError(
                f"{flag} expects NAME=VALUE, got {spec!r}"
            )
        try:
            out[name] = cast(value.strip())
        except ValueError as exc:
            raise ConfigurationError(f"{flag} {spec!r}: {exc}") from exc
    return out


def _parse_tenants(raw):
    """``--tenants`` value: a count (``3`` → tenant-0..2) or a comma
    list of names; None when the flag is absent."""
    if not raw:
        return None
    raw = raw.strip()
    if raw.isdigit():
        count = int(raw)
        if count < 1:
            raise ConfigurationError("--tenants count must be >= 1")
        return tuple(f"tenant-{i}" for i in range(count))
    names = tuple(t.strip() for t in raw.split(",") if t.strip())
    if not names:
        raise ConfigurationError("--tenants needs at least one name")
    return names


def cmd_serve(args) -> int:
    """``vcrepro serve``: online scheduling on a seeded arrival stream.

    Generates the seeded Poisson stream, builds a
    :class:`~repro.sched.service.SchedulerService` (training the
    per-kind memory models first), runs the queue until it drains and
    prints the latency/throughput table, or with ``--json`` the full
    metrics on stdout.
    """
    import json

    from repro.engines.registry import create_engine
    from repro.faults.plan import mixed_fault_plan
    from repro.sched.arrivals import generate_arrivals
    from repro.sched.policy import ServicePolicy
    from repro.sched.service import SchedulerService

    _apply_runtime_knobs(args)
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    deadlines = {}
    for spec in args.deadline or []:
        cls, sep, seconds = spec.rpartition("=")
        try:
            deadlines[int(cls) if sep else 0] = float(seconds)
        except ValueError:
            raise ConfigurationError(
                f"--deadline expects [CLASS=]SECONDS with an integer "
                f"CLASS, got {spec!r}"
            ) from None
    tenants = _parse_tenants(args.tenants)
    # Before anything is built: the stream rejects deadlines that are
    # not finite and positive.
    requests = generate_arrivals(
        args.arrivals,
        args.duration,
        seed=args.seed,
        kinds=kinds,
        priority_classes=args.priority_classes,
        deadlines=deadlines or None,
        tenants=tenants,
    )
    cluster = cluster_by_name(args.cluster, scale=args.scale)
    if args.machines is not None:
        cluster = cluster.with_machines(args.machines)
    graph = load_dataset(args.dataset, scale=args.scale)
    engine = create_engine(args.engine, cluster)
    plan = None
    if args.faults:
        plan = mixed_fault_plan(args.seed, cluster.num_machines, args.faults)
    routes = None
    if args.route:
        if len(args.route) == 1 and args.route[0].strip() == "table4":
            from repro.sched.policy import TABLE4_ROUTES

            routes = dict(TABLE4_ROUTES)
        else:
            routes = _parse_kv_flags(args.route, str, "--route")
    policy = ServicePolicy(
        priority_classes=args.priority_classes,
        aging_seconds=args.aging if args.aging > 0 else None,
        preempt=args.preempt,
        preempt_rule=args.preempt_rule,
        max_queue=args.max_queue,
        shed_watermark=args.shed_watermark,
        drop_expired=args.drop_expired,
        routes=routes,
        tenant_quotas=_parse_kv_flags(
            args.tenant_quota, float, "--tenant-quota"
        ),
        tenant_priorities=_parse_kv_flags(
            args.tenant_priority, int, "--tenant-priority"
        ),
        result_cache=args.result_cache,
        result_ttl_seconds=args.result_ttl,
        result_cache_bytes=args.result_cache_bytes,
        calibrate=args.calibrate,
    )
    service = SchedulerService(
        engine,
        graph,
        kinds=kinds,
        seed=args.seed,
        overload_fraction=args.overload_fraction,
        reference_workload=args.workload,
        task_params={
            "mssp": {"sample_limit": args.sample_limit},
            "bkhs": {"sample_limit": args.sample_limit},
        },
        fault_plan=plan,
        checkpoint_every=args.checkpoint_every or None,
        policy=policy,
    )
    metrics = service.run(
        requests, arrival_rate=args.arrivals, duration_rounds=args.duration
    )
    if args.json:
        print(json.dumps(metrics.to_dict(include_latencies=True), indent=2))
    else:
        print(metrics.summary())
        print(metrics.latency_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands.

    Shared flag groups live on parent parsers (``add_help=False``) so
    each subcommand inherits them via ``parents=[...]`` instead of
    re-declaring them — a new subcommand gets the full runtime-knob
    surface for free.
    """
    parser = argparse.ArgumentParser(
        prog="vcrepro",
        description=(
            "Multi-task processing in vertex-centric graph systems: "
            "reproduction toolkit (EDBT 2023)"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    setting = argparse.ArgumentParser(add_help=False)
    _add_setting(setting)
    faults = argparse.ArgumentParser(add_help=False)
    _add_faults(faults)

    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list datasets/engines/experiments")
    p_list.set_defaults(fn=cmd_list)

    p_run = sub.add_parser(
        "run",
        help="run one multi-processing job",
        parents=[common, setting, faults],
    )
    p_run.add_argument("--batches", type=int, default=1)
    p_run.add_argument(
        "--on-overload",
        choices=["report", "raise"],
        default="report",
        help="report: mark overloaded runs at the 6000 s cutoff (paper "
        "behaviour); raise: fail fast with machine/peak context",
    )
    p_run.add_argument(
        "--json", action="store_true", help="emit metrics as JSON"
    )
    p_run.add_argument(
        "--rounds",
        action="store_true",
        help="include the per-round trace in --json output",
    )
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="sweep batch counts", parents=[common, setting]
    )
    p_sweep.set_defaults(fn=cmd_sweep)

    p_exp = sub.add_parser(
        "experiment",
        help="regenerate a paper figure/table",
        parents=[common],
    )
    p_exp.add_argument("id", choices=list(EXPERIMENTS) + ["all"])
    p_exp.add_argument("--quick", action="store_true", help="smaller sweeps")
    p_exp.add_argument(
        "--preempt",
        action="store_true",
        help="throughput experiment only: add the FIFO-versus-preemptive "
        "serving comparison (small urgent requests behind a large batch "
        "job)",
    )
    p_exp.add_argument(
        "--multi-tenant",
        action="store_true",
        help="throughput experiment only: add the single-versus-multi-"
        "tenant serving comparison (tenant quotas, Table-4 engine "
        "routing, content-keyed result cache with request coalescing)",
    )
    p_exp.add_argument(
        "--calibrate",
        action="store_true",
        help="throughput experiment only: add the static-versus-"
        "calibrated serving comparison (online ask-tell cost-model "
        "refits on a deadline-bearing stream)",
    )
    p_exp.set_defaults(fn=cmd_experiment)

    p_tune = sub.add_parser(
        "tune",
        help="run the Section 5 auto-tuner",
        parents=[common, setting],
    )
    p_tune.set_defaults(fn=cmd_tune)

    p_rep = sub.add_parser(
        "report", help="write EXPERIMENTS.md", parents=[common]
    )
    p_rep.add_argument("--output", default="EXPERIMENTS.md")
    p_rep.add_argument("--quick", action="store_true")
    p_rep.add_argument(
        "--phases",
        action="store_true",
        help="break the timing table down into kernel sub-phases "
        "(expand/dedup/reduce/frontier)",
    )
    p_rep.set_defaults(fn=cmd_report)

    p_srv = sub.add_parser(
        "serve",
        help="run the online scheduling service (repro.sched)",
        parents=[common, setting, faults],
    )
    p_srv.add_argument(
        "--arrivals",
        type=_finite_float,
        required=True,
        metavar="RATE",
        help="mean requests per simulated second (Poisson)",
    )
    p_srv.add_argument(
        "--duration",
        type=int,
        default=60,
        metavar="ROUNDS",
        help="arrival-stream length in ticks (default 60); the service "
        "then drains the queue before shutting down",
    )
    p_srv.add_argument(
        "--kinds",
        default="bppr,mssp",
        help="comma-separated task kinds on the stream (default "
        "bppr,mssp); --workload sets the training reference workload",
    )
    p_srv.add_argument(
        "--overload-fraction",
        type=_finite_float,
        default=0.8,
        metavar="P",
        help="fraction of machine memory admission control may use "
        "(the paper's overloading parameter p, default 0.8)",
    )
    p_srv.add_argument(
        "--sample-limit",
        type=int,
        default=48,
        help="source sampling cap for MSSP/BKHS requests (default 48)",
    )
    p_srv.add_argument(
        "--priority-classes",
        type=int,
        default=1,
        metavar="N",
        help="priority lanes on the stream (class 0 = most urgent, "
        "drawn per request from the seeded stream); default 1 = "
        "legacy FIFO, byte-identical to previous releases",
    )
    p_srv.add_argument(
        "--deadline",
        action="append",
        default=None,
        metavar="[CLASS=]SECONDS",
        help="latency deadline attached to arrivals of a priority "
        "class (bare SECONDS = class 0; SECONDS finite and positive); "
        "repeatable. Misses are counted in the resilience section",
    )
    p_srv.add_argument(
        "--preempt",
        action="store_true",
        help="suspend the running batch at a superstep barrier when a "
        "strictly more urgent cross-kind request is waiting (its "
        "deadline within the margin; requires --priority-classes > 1)",
    )
    p_srv.add_argument(
        "--preempt-rule",
        choices=["deadline", "eager"],
        default="deadline",
        help="deadline: preempt only to save a blowing deadline "
        "(default); eager: preempt for any more urgent waiter",
    )
    p_srv.add_argument(
        "--max-queue",
        type=int,
        default=4096,
        metavar="N",
        help="pending-queue bound; the least urgent untouched request "
        "is shed deterministically with a Retry-After hint when an "
        "arrival would exceed it (default 4096)",
    )
    p_srv.add_argument(
        "--aging",
        type=_finite_float,
        default=120.0,
        metavar="SECONDS",
        help="queueing seconds that promote a waiting request one "
        "priority class (anti-starvation; 0 disables, default 120)",
    )
    p_srv.add_argument(
        "--shed-watermark",
        type=_finite_float,
        default=None,
        metavar="FRACTION",
        help="shed lowest-class arrivals once admitted+pinned residual "
        "memory exceeds this fraction of the admission budget "
        "(default: off)",
    )
    p_srv.add_argument(
        "--drop-expired",
        action="store_true",
        help="drop queued requests already past their deadline instead "
        "of running them late (counted under drops_expired)",
    )
    p_srv.add_argument(
        "--tenants",
        default=None,
        metavar="NAMES|N",
        help="multi-tenant arrival stream: a comma-separated list of "
        "tenant names, or a count N (tenant-0..tenant-N-1); requests "
        "draw their tenant from the seeded stream. Default: single "
        "implicit tenant, byte-identical to previous releases",
    )
    p_srv.add_argument(
        "--tenant-quota",
        action="append",
        default=None,
        metavar="TENANT=FRACTION",
        help="per-tenant memory quota as a fraction (0,1] of the shared "
        "admission budget; repeatable. Unlisted tenants are "
        "unconstrained",
    )
    p_srv.add_argument(
        "--tenant-priority",
        action="append",
        default=None,
        metavar="TENANT=CLASS",
        help="map a tenant's requests to a fixed priority class "
        "(0 = most urgent); repeatable, overrides the request's own "
        "class before clamping to --priority-classes",
    )
    p_srv.add_argument(
        "--route",
        action="append",
        default=None,
        metavar="KIND=ENGINE",
        help="route a task kind to a specific engine (repeatable), or "
        "the single value 'table4' for the paper's Table-4 split "
        "(async-capable kinds on graphlab(async), heavy BPPR on "
        "pregel+). Unrouted kinds use --engine",
    )
    p_srv.add_argument(
        "--result-cache",
        action="store_true",
        help="serve repeat queries from a content-keyed result cache "
        "(graph fingerprint + kind + engine + params) and coalesce "
        "duplicate in-flight requests onto one execution",
    )
    p_srv.add_argument(
        "--result-ttl",
        type=_finite_float,
        default=None,
        metavar="SECONDS",
        help="expire cached results after this many simulated seconds "
        "(default: no expiry)",
    )
    p_srv.add_argument(
        "--result-cache-bytes",
        type=_finite_float,
        default=None,
        metavar="BYTES",
        help="LRU bytes budget for the result cache (default: unbounded)",
    )
    p_srv.add_argument(
        "--calibrate",
        action="store_true",
        help="online ask-tell calibration: every executed batch tells "
        "its observed (workload, peak, residual, seconds) back to the "
        "cost models, which refit when standardized residuals drift; "
        "fitted coefficients persist in the artifact cache so a warm "
        "restart skips probe training entirely",
    )
    p_srv.add_argument(
        "--json",
        action="store_true",
        help="emit the full service metrics (with per-task latencies) "
        "as JSON",
    )
    p_srv.set_defaults(fn=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (``vcrepro report … | head -1``):
        # point stdout at the null device so the interpreter's exit
        # flush cannot raise again, and exit as SIGPIPE would (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
