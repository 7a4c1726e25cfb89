"""Scheduling-digest equivalence on the hard queue paths.

The indexed ready queue (``repro.sched.queue``) changed *how* the
serving order is computed, never the order. The layered benchmark's
streams prove that for the common path; the scenarios here reach the
rest — ``max_queue`` eviction with partially executed and suspended
requests queued, expiry sweeps, watermark shedding, deadline-margin
and round-count preemption, tenant-quota skipping — each on a small
seeded stream. Every digest in ``SCENARIOS`` was recorded on the last
commit whose service loop still ranked a flat list (PR 11, ``3fdc17d``)
and is the blake2b of ``ServiceMetrics.to_dict(include_latencies=True)``;
the plain counters beside it say which path a scenario exists to reach,
so a drifted digest can be told from a scenario that stopped biting.
``REPAIRS``, at the end, holds the streams that loop got wrong.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import create_engine
from repro.graph.datasets import load_dataset
from repro.sched.arrivals import TaskRequest
from repro.sched.policy import ServicePolicy
from repro.sched.service import SchedulerService

SCALE = 400
KINDS = ("bppr", "bkhs", "mssp")
TENANTS = ("ads", "search", "batch")


def stream(seed, count, *, units, span, deadlines=None, duplicate_ids=False):
    """``count`` requests over ``span`` simulated seconds: kinds,
    classes and tenants uniform, unit counts uniform over the kind's
    ``units`` range (inclusive), arrivals on a quarter-second grid so
    ties happen."""
    rng = random.Random(seed)
    requests = []
    for i in range(count):
        priority = int(rng.random() * 3)
        kind = KINDS[int(rng.random() * len(KINDS))]
        low, high = units[kind]
        requests.append(
            TaskRequest(
                task_id=i // 2 if duplicate_ids else i,
                kind=kind,
                units=float(low + int(rng.random() * (high - low + 1))),
                arrival_seconds=int(rng.random() * span * 4) / 4.0,
                priority=priority,
                deadline_seconds=(deadlines or {}).get(priority),
                tenant=TENANTS[int(rng.random() * len(TENANTS))],
            )
        )
    return requests


#: Unit ranges per kind: one MSSP unit costs about a simulated second,
#: a BPPR unit a quarter of one, a BKHS unit a sixteenth.
UNITS = {"bppr": (200, 3000), "bkhs": (100, 2000), "mssp": (10, 120)}

#: ``batch`` may hold 4 % of the admission budget: its requests run in
#: slices (partially executed requests stay queued) and are skipped,
#: not stopped at, whenever its share is spent.
QUOTAS = {"ads": 0.5, "search": 0.3, "batch": 0.04}

#: name -> (policy, stream arguments, pinned digest, counters that must
#: be non-zero for the scenario to mean anything).
SCENARIOS = {
    # An 8-deep queue overflowing under eager preemption and tenant
    # quotas, every task id used twice. When recorded, 114 arrivals
    # were evicted: 31 with a suspended batch's requests queued, 22
    # with partially executed ones, 26 of the victims older than the
    # arrival that overflowed the queue.
    "max_queue_eviction": (
        dict(
            priority_classes=3,
            aging_seconds=400.0,
            preempt=True,
            preempt_rule="eager",
            max_queue=8,
            tenant_quotas=QUOTAS,
        ),
        dict(seed=131, count=160, units=UNITS, span=5000.0,
             duplicate_ids=True),
        "e3b042c3af406ea80b988c38d7b00a2c",
        ("drops_queue_full", "preemptions", "resumes", "flushes"),
    ),
    "drop_expired": (
        dict(priority_classes=3, aging_seconds=300.0, drop_expired=True),
        dict(seed=102, count=200, units=UNITS, span=9000.0,
             deadlines={0: 150.0, 1: 600.0, 2: 2000.0}),
        "fcaee831b52b94ab6e9a73580394a22f",
        ("drops_expired", "deadline_misses", "completed_tasks"),
    ),
    "shed_watermark": (
        dict(priority_classes=3, aging_seconds=300.0, shed_watermark=0.05,
             max_queue=64),
        dict(seed=103, count=200, units=UNITS, span=9000.0),
        "70f4693d7477c0edf7af0d992d099773",
        ("drops_watermark", "flushes"),
    ),
    "preempt_deadline_margin": (
        dict(
            priority_classes=3,
            aging_seconds=500.0,
            preempt=True,
            preempt_rule="deadline",
            preempt_margin_seconds=60.0,
        ),
        dict(seed=104, count=180, units=UNITS, span=12000.0,
             deadlines={0: 120.0, 1: 900.0}),
        "f8eefc2fe468d070f02348d0223c893b",
        ("preemptions", "resumes", "deadline_misses"),
    ),
    "preempt_after_rounds": (
        dict(
            priority_classes=3,
            aging_seconds=None,
            preempt=True,
            preempt_after_rounds=2,
            max_suspends_per_batch=2,
        ),
        dict(seed=105, count=180, units=UNITS, span=12000.0),
        "246fad7806a1b3532e1b19abfc9797da",
        ("preemptions", "resumes"),
    ),
    # Batch formation must skip the quota-blocked tenant's requests
    # (not stop at them) and the feasibility scan must look past them;
    # when recorded, 61 of 262 feasibility scans found no tenant with
    # headroom and flushed.
    "tenant_quota_skipping": (
        dict(
            priority_classes=3,
            aging_seconds=600.0,
            tenant_quotas=QUOTAS,
            tenant_priorities={"batch": 2},
        ),
        dict(seed=106, count=200, units=UNITS, span=6000.0),
        "4090809b3cad67eaf08ba4be3add6b5d",
        ("flushes",),
    ),
}


@pytest.fixture(scope="module")
def graph():
    return load_dataset("dblp", scale=SCALE)


@pytest.fixture(scope="module")
def engine():
    return create_engine("pregel+", cluster_by_name("galaxy-8", scale=SCALE))


def make_service(engine, graph, policy):
    return SchedulerService(
        engine,
        graph,
        kinds=KINDS,
        seed=21,
        policy=ServicePolicy(**policy),
        task_params={
            "mssp": {"sample_limit": 16},
            "bkhs": {"sample_limit": 16},
        },
    )


def run_scenario(engine, graph, name):
    policy, stream_args, _, _ = SCENARIOS[name]
    return make_service(engine, graph, policy).run(stream(**stream_args))


def digest(metrics) -> str:
    blob = json.dumps(
        metrics.to_dict(include_latencies=True), sort_keys=True
    ).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digest_matches_the_list_based_loop(engine, graph, name):
    _, _, pinned, must_bite = SCENARIOS[name]
    metrics = run_scenario(engine, graph, name)
    for counter in must_bite:
        assert getattr(metrics, counter) > 0, (name, counter)
    assert digest(metrics) == pinned


#: A 4-deep queue under eager preemption: the smallest policy that
#: reaches the first two repairs below.
TIGHT_QUEUE = dict(
    priority_classes=3,
    aging_seconds=400.0,
    preempt=True,
    preempt_rule="eager",
    max_queue=4,
)

#: Streams the loop of PR 12 got wrong, pinned on the loop that repaired
#: them (PR 17): name -> (engine, policy, stream arguments, digest,
#: counters that show the repaired path was reached). At the parent
#: commit the first answers task 107 twice (121 answers to 120
#: requests), the second raises ``TuningError`` from ``admit`` and the
#: third ``BatchingError`` from an empty batch.
REPAIRS = {
    # A whole request inside a batch's *first* segment was still the
    # ``max_queue`` victim of an arrival admitted at a barrier: dropped,
    # then completed. Units are claimed at formation now.
    "claimed_at_formation": (
        "pregel+",
        TIGHT_QUEUE,
        dict(seed=203, count=120, units=UNITS, span=3000.0),
        "51392e065df113f5aaa08fba97bf487c",
        ("drops_queue_full", "preemptions"),
    ),
    # A batch formed at the full admissible size, suspended, and
    # resumed after urgent batches added residual no longer fitted the
    # budget when it completed. A frozen batch is re-admitted (flush
    # first) when it resumes.
    "readmitted_at_resume": (
        "pregel+",
        TIGHT_QUEUE,
        dict(seed=235, count=120, units=UNITS, span=3000.0),
        "7378361ea38e603376b9d8c7ffe1ec19",
        ("resumes", "flushes"),
    ),
    # On a whole-graph engine a flush costs simulated seconds, which
    # can age another kind's request to the head; the loop went on to
    # form a batch of the old head's kind and found nothing to put in
    # it. A flush is followed by a fresh decision.
    "decides_again_after_flush": (
        "pregel+(wholegraph)",
        dict(priority_classes=3, aging_seconds=60.0),
        dict(seed=304, count=150, units=UNITS, span=2000.0),
        "fc9f98e08fb6fd1f4eed2c83405db771",
        ("flushes", "flush_seconds"),
    ),
}


@pytest.mark.parametrize("name", sorted(REPAIRS))
def test_repaired_stream_answers_every_request_once(graph, name):
    engine_name, policy, stream_args, pinned, must_bite = REPAIRS[name]
    engine = create_engine(
        engine_name, cluster_by_name("galaxy-8", scale=SCALE)
    )
    metrics = make_service(engine, graph, policy).run(stream(**stream_args))
    answered = [t.task_id for t in metrics.latencies]
    answered += [entry["task_id"] for entry in metrics.drop_log]
    assert sorted(answered) == list(range(stream_args["count"]))
    for counter in must_bite:
        assert getattr(metrics, counter) > 0, (name, counter)
    assert digest(metrics) == pinned
