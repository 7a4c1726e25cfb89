"""The program side of each workload: cold set-up, one timed pass, and
the untimed reduction of the pass's outputs to metrics and digests.

Three programs serve the seven workloads (``report``, ``jobs``,
``serve``); the generated inputs (:mod:`workloads`) select which and
carry every parameter. ``repro`` entry points are always reached
through their module (``datasets.load_dataset(...)``), never through a
name imported here, so the traced run's rebinding wrappers take effect.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List

import numpy as np

import stats
from repro.batching import executor
from repro.cluster import cluster as clusters
from repro.engines import registry
from repro.experiments import runner
from repro.experiments.base import ExperimentConfig
from repro.graph import csr, datasets, mirrors, partition
from repro.perf import cache as artifact_cache
from repro.perf import kernel_pool
from repro.sched import policy as sched_policy
from repro.sched import service as sched_service
from repro.sched.arrivals import TaskRequest
from repro.sim import metrics as sim_metrics
from repro.tasks import base as tasks_base


@dataclass
class Pass:
    """What one timed pass returns: the program's raw outputs and the
    wall seconds of each separately timed step (one per experiment or
    job; the whole stream for a service run)."""

    raw: Any
    step_seconds: List[float]


@dataclass
class Outcome:
    """One pass reduced to what the benchmark reports."""

    ops: int
    failed: int
    #: simulated seconds of the whole pass (the modelled cluster's time).
    sim_makespan_s: float
    #: simulated latency of each operation (jobs) or request (serve).
    sim_latencies_s: List[float]
    #: the percentile ``sim_latency_tail_s`` reads from them: 100 for a
    #: job or experiment list, which is enumerated whole, so its slowest
    #: entry is exact; requests are a sample of a traffic mix, so the
    #: stream's size decides (:func:`stats.supported_percentile`).
    tail_percentile: float
    #: blake2b over the pass's simulated outputs.
    sim_digest: str
    #: digest per operation id, for cross-workload comparison.
    part_digests: Dict[str, str] = field(default_factory=dict)
    #: why ``failed`` operations failed, and any correctness violation.
    problems: List[str] = field(default_factory=list)
    correct: bool = True
    #: exact counts read from the program's own public counters.
    counters: Dict[str, float] = field(default_factory=dict)


def _digest(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def apply_runtime(runtime: Dict[str, Any]) -> None:
    """Process-global ``configure_*`` knobs of a workload (once per child)."""
    if runtime.get("max_ram_bytes"):
        csr.configure_streaming(int(runtime["max_ram_bytes"]))
    if runtime.get("kernel_workers"):
        kernel_pool.configure_kernel_workers(int(runtime["kernel_workers"]))


def cold_cache(workdir: str) -> None:
    """Empty in-memory artifact cache over an empty on-disk store."""
    store = os.path.join(workdir, "cache")
    os.makedirs(store, exist_ok=True)
    artifact_cache.configure_cache(directory=store)
    artifact_cache.clear_cache()


# ----------------------------------------------------------------------
# report: the quick experiment report
# ----------------------------------------------------------------------
class ReportProgram:
    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.ids: List[str] = list(inputs["experiments"])
        self.config = ExperimentConfig(**inputs["config"])
        self.ops = len(self.ids)

    def setup(self, workdir: str) -> Dict[str, Any]:
        cold_cache(workdir)
        return {"store": os.path.join(workdir, "cache")}

    def run(self, state: Dict[str, Any], recorder=None) -> Pass:
        rendered, seconds = [], []
        for eid in self.ids:
            tick = perf_counter()
            try:
                result = runner.run_experiment(eid, self.config)
                if recorder is not None:
                    with recorder.span("experiments.render"):
                        text = result.to_markdown()
                else:
                    text = result.to_markdown()
                rendered.append((eid, result, text))
            except Exception as error:  # one experiment must not hide the rest
                rendered.append((eid, None, repr(error)))
            seconds.append(perf_counter() - tick)
        return Pass(rendered, seconds)

    def finish(self, state: Dict[str, Any], raw: List[Any]) -> Outcome:
        problems, chunks, parts = [], [], {}
        failed = claims = held = 0
        for eid, result, text in raw:
            if result is None:
                failed += 1
                problems.append(f"{eid}: raised {text}")
                continue
            if not result.rows:
                failed += 1
                problems.append(f"{eid}: empty table")
            claims += len(result.claims)
            held += result.claims_held
            parts[eid] = _digest(text.encode())
            chunks.append(text.encode())
        # The experiments persist every engine job they ran to the
        # artifact store; those files are the pass's simulated output.
        seconds = []
        for path in sorted(glob.glob(os.path.join(state["store"], "run-*.npz"))):
            with np.load(path, allow_pickle=False) as data:
                job = sim_metrics.unpack_job({"payload": data["payload"]})
            seconds.append(float(job.seconds))
        correct = failed == 0 and bool(seconds)
        if not seconds:
            problems.append("no engine job reached the artifact store")
        return Outcome(
            ops=self.ops,
            failed=failed,
            sim_makespan_s=float(sum(seconds)),
            sim_latencies_s=seconds,
            tail_percentile=100.0,
            sim_digest=_digest(*chunks),
            part_digests=parts,
            problems=problems,
            correct=correct,
            counters={
                "experiments.claims_checked": claims,
                "experiments.claims_not_held": claims - held,
            },
        )


# ----------------------------------------------------------------------
# jobs: a list of offline engine jobs
# ----------------------------------------------------------------------
class JobsProgram:
    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.inputs = inputs
        self.jobs: List[Dict[str, Any]] = inputs["jobs"]
        self.ops = len(self.jobs)

    def setup(self, workdir: str) -> Dict[str, Any]:
        cold_cache(workdir)
        spec = self.inputs["cluster"]
        cluster = clusters.cluster_by_name(spec["name"], scale=spec["scale"])
        graphs = {
            name: datasets.load_dataset(name, scale=scale)
            for name, scale in self.inputs["datasets"].items()
        }
        # What every engine's first job would otherwise build lazily.
        for job in self.jobs:
            profile = registry.engine_profile(job["engine"])
            graph = graphs[job["dataset"]]
            strategy = "hash" if profile.whole_graph else profile.partition_strategy
            part = partition.partition_graph(graph, cluster.num_machines, strategy)
            mirrors.build_mirror_plan(graph, part, profile.mirror_degree_threshold)
        return {"cluster": cluster, "graphs": graphs}

    def run(self, state: Dict[str, Any], recorder=None) -> Pass:
        done, seconds = [], []
        for job in self.jobs:
            tick = perf_counter()
            try:
                task = tasks_base.make_task(
                    job["kind"], state["graphs"][job["dataset"]],
                    job["workload"], **job["params"],
                )
                done.append(executor.run_job(
                    job["engine"], state["cluster"], task,
                    num_batches=job["batches"], seed=job["seed"],
                ))
            except Exception as error:  # one job must not hide the rest
                done.append(error)
            seconds.append(perf_counter() - tick)
        return Pass(done, seconds)

    def finish(self, state: Dict[str, Any], raw: List[Any]) -> Outcome:
        problems, parts, seconds = [], {}, []
        failed = 0
        for job, result in zip(self.jobs, raw):
            if isinstance(result, Exception):
                failed += 1
                problems.append(f"{job['id']}: raised {result!r}")
                continue
            if result.overloaded:
                failed += 1
                problems.append(f"{job['id']}: overloaded")
            seconds.append(float(result.seconds))
            payload = sim_metrics.pack_job(result)["payload"].tobytes()
            parts[job["id"]] = _digest(payload)
        return Outcome(
            ops=self.ops,
            failed=failed,
            sim_makespan_s=float(sum(seconds)),
            sim_latencies_s=seconds,
            tail_percentile=100.0,
            sim_digest=_digest(*(parts[k].encode() for k in sorted(parts))),
            part_digests=parts,
            problems=problems,
            correct=not any(isinstance(r, Exception) for r in raw),
        )


# ----------------------------------------------------------------------
# serve: one request stream through the scheduler service
# ----------------------------------------------------------------------
class ServeProgram:
    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.inputs = inputs
        self.rows: List[List[Any]] = inputs["requests"]
        self.ops = len(self.rows)

    def setup(self, workdir: str) -> Dict[str, Any]:
        cold_cache(workdir)
        inputs = self.inputs
        graph = datasets.load_dataset(
            inputs["dataset"]["name"], scale=inputs["dataset"]["scale"]
        )
        cluster = clusters.cluster_by_name(
            inputs["cluster"]["name"], scale=inputs["cluster"]["scale"]
        )
        engine = registry.create_engine(inputs["engine"], cluster)
        options = inputs["service"]
        service = sched_service.SchedulerService(
            engine,
            graph,
            kinds=tuple(inputs["kinds"]),
            seed=options["seed"],
            reference_workload=options["reference_workload"],
            task_params=options["task_params"],
            policy=sched_policy.ServicePolicy(**inputs["policy"]),
        )
        requests = [
            TaskRequest(
                task_id=task_id, kind=kind, units=units,
                arrival_seconds=arrival, priority=priority,
                deadline_seconds=deadline, tenant=tenant,
            )
            for task_id, kind, units, arrival, priority, deadline, tenant in self.rows
        ]
        return {"service": service, "requests": requests}

    def run(self, state: Dict[str, Any], recorder=None) -> Pass:
        tick = perf_counter()
        metrics = state["service"].run(state["requests"])
        return Pass(metrics, [perf_counter() - tick])

    def finish(self, state: Dict[str, Any], metrics: Any) -> Outcome:
        problems = []
        sent = [row[0] for row in self.rows]
        completed = [t.task_id for t in metrics.latencies]
        dropped = [entry["task_id"] for entry in metrics.drop_log]
        answered = completed + dropped
        # Request conservation: every id answered exactly once.
        if len(set(answered)) != len(answered):
            problems.append("a request id was answered twice")
        if set(answered) != set(sent):
            missing = len(set(sent) - set(answered))
            problems.append(f"{missing} requests never completed or dropped")
        served = {"executed": 0, "cache-hit": 0, "coalesced": 0}
        for latency in metrics.latencies:
            served[latency.served_by] = served.get(latency.served_by, 0) + 1
        if sum(served.values()) + len(dropped) != len(sent):
            problems.append("engine + cache-hit + coalesced + failed != sent")
        failed = len(set(sent) - set(completed))
        payload = metrics.to_dict(include_latencies=True)
        blob = json.dumps(payload, sort_keys=True, default=float).encode()
        cache_stats = metrics.result_cache or {}
        calibration = metrics.calibration or {}
        lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
        decisions = len(metrics.batch_log) + metrics.preemptions
        return Outcome(
            ops=self.ops,
            failed=failed,
            sim_makespan_s=float(metrics.elapsed_seconds),
            sim_latencies_s=[float(t.latency_seconds) for t in metrics.latencies],
            tail_percentile=stats.supported_percentile(len(metrics.latencies), 99),
            sim_digest=_digest(blob),
            problems=problems,
            correct=not problems,
            counters={
                "sched.decisions": decisions,
                "sched.preemptions": metrics.preemptions,
                "sched.resumes": metrics.resumes,
                "sched.deadline_misses": metrics.deadline_misses,
                "perf.cache.result_lookups": lookups,
                "perf.cache.result_hits": cache_stats.get("hits", 0),
                "perf.cache.result_hit_ratio": (
                    cache_stats.get("hits", 0) / lookups if lookups else 0.0
                ),
                "perf.cache.result_stores": cache_stats.get("stores", 0),
                "perf.cache.result_evictions": cache_stats.get("evictions", 0),
                "perf.cache.result_expirations": cache_stats.get("expirations", 0),
                "perf.cache.result_coalesced": cache_stats.get("coalesced", 0),
                "perf.cache.result_bytes": cache_stats.get("cached_bytes", 0.0),
                "tuning.probe_jobs": calibration.get("training_runs", 0),
                "tuning.tells": calibration.get("tells", 0),
                "tuning.refits": calibration.get("refits", 0),
            },
        )


PROGRAMS = {"report": ReportProgram, "jobs": JobsProgram, "serve": ServeProgram}


def make_program(inputs: Dict[str, Any]):
    return PROGRAMS[inputs["program"]](inputs)
