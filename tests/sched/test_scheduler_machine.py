"""Stateful invariants of the serve loop (``repro.sched.service``).

``SchedulerService.run`` is one state record (``_Run``) and three
transitions over it. The machine below drives those transitions one
decision at a time on real engine sessions, with requests arriving
between — and, because arrivals are stamped ahead of the clock, inside —
the batches, and checks after every rule what ``run`` can only check at
the end:

* conservation — no request is both completed and dropped, none is
  answered twice, and ``completed + dropped + queued + not yet arrived``
  is always everything sent;
* Equation 1 — residual plus pinned (suspended-batch) bytes stay under
  the ``p·M`` budget, each tenant's charged bytes under its quota, and
  every batch handed to ``_dispatch``, newly formed *or resumed*,
  projects under the budget at that instant;
* the default policy stays first come, first served.

The graph is dblp@400 with the unit ranges of
``test_queue_equivalence.py``: at the suite's usual scale 4000 a batch
is over before the next arrival, nothing is ever preempted or evicted
mid-batch, and the machine finds nothing.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import create_engine
from repro.graph.datasets import load_dataset
from repro.sched.arrivals import TaskRequest
from repro.sched.queue import ReadyQueue
from repro.sched.service import _Run
from repro.sim.metrics import ServiceMetrics
from tests.sched.test_queue_equivalence import (
    KINDS,
    QUOTAS,
    SCALE,
    TENANTS,
    UNITS,
    make_service,
)

#: Relative slack for float round-off in the budget comparisons.
EPS = 1e-9


@lru_cache(maxsize=None)
def service_parts():
    """Engine and graph, built once for every example."""
    cluster = cluster_by_name("galaxy-8", scale=SCALE)
    return create_engine("pregel+", cluster), load_dataset("dblp", scale=SCALE)


class SchedulerMachine(RuleBasedStateMachine):
    @initialize(
        lanes=st.booleans(),
        max_queue=st.sampled_from([3, 4, 8, None]),
        quotas=st.booleans(),
    )
    def open_service(self, lanes, max_queue, quotas):
        policy = {}
        if lanes:
            policy = dict(
                priority_classes=3,
                preempt=True,
                preempt_rule="eager",
                max_queue=max_queue,
                tenant_quotas=QUOTAS if quotas else None,
            )
        self.fifo = not lanes
        engine, graph = service_parts()
        self.service = make_service(engine, graph, policy)
        self.run = _Run(
            metrics=ServiceMetrics(
                engine=engine.name, cluster=engine.cluster.name
            ),
            arrivals=deque(),
            queue=ReadyQueue(self.service.policy),
        )
        self.sent = 0
        self.last_arrival = 0.0

    def arrive(self, dt, kind, size, priority, tenant):
        low, high = UNITS[kind]
        self.last_arrival = max(self.last_arrival, self.run.clock) + dt
        self.run.arrivals.append(
            TaskRequest(
                task_id=self.sent,
                kind=kind,
                units=float(low + int(size * (high - low))),
                arrival_seconds=self.last_arrival,
                priority=priority,
                tenant=tenant,
            )
        )
        self.sent += 1

    def step(self):
        service, run = self.service, self.run
        inflight = service._select(run)
        if inflight is None:
            return  # nothing sent yet, or everything answered
        admission = service.admission
        projected = admission.projected_bytes(
            inflight.kind, inflight.batch_units
        )
        assert projected <= admission.budget * (1 + EPS), (
            "resumed" if inflight.checkpoint is not None else "formed"
        )
        service._settle(run, inflight, service._dispatch(run, inflight))

    # One rule, not ``arrive`` and ``step`` as two: Hypothesis switches
    # rules off per example (swarm testing), and with two of them half
    # the examples only arrived or only stepped.
    @rule(
        burst=st.lists(
            st.fixed_dictionaries(
                dict(
                    dt=st.integers(0, 240).map(lambda q: q / 4.0),
                    kind=st.sampled_from(KINDS),
                    size=st.floats(0.0, 1.0),
                    priority=st.integers(0, 2),
                    tenant=st.sampled_from(TENANTS),
                )
            ),
            max_size=3,
        )
    )
    def arrivals_then_step(self, burst):
        for request in burst:
            self.arrive(**request)
        self.step()

    @invariant()
    def every_request_is_in_exactly_one_place(self):
        run = self.run
        completed = [t.task_id for t in run.metrics.latencies]
        dropped = [entry["task_id"] for entry in run.metrics.drop_log]
        answered = completed + dropped
        assert len(set(answered)) == len(answered), sorted(
            i for i in set(answered) if answered.count(i) > 1
        )
        assert (
            len(answered) + len(run.queue) + len(run.arrivals) == self.sent
        )

    @invariant()
    def equation_1_holds(self):
        admission = self.service.admission
        used = admission.residual_bytes() + admission.pinned_bytes()
        assert used <= admission.budget * (1 + EPS)
        for tenant, quota in (admission.tenant_quotas or {}).items():
            assert admission.tenant_charged_bytes(tenant) <= quota * (1 + EPS)

    @invariant()
    def default_policy_stays_fifo(self):
        if self.fifo:
            order = [
                (t.arrival_seconds, t.task_id)
                for t in self.run.metrics.latencies
            ]
            assert order == sorted(order)


#: Derandomized: tier-1 gates merges, so it replays the same 40 examples
#: every time; drop the flag (and raise the counts) to go hunting.
SchedulerMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)
TestSchedulerMachine = SchedulerMachine.TestCase


def test_machine_reaches_the_hard_paths():
    """The rules above, replayed on one fixed stream: the machine's
    invariants are only worth something if eviction, preemption and
    resumption really happen under its arrival pattern."""
    machine = SchedulerMachine()
    machine.open_service(lanes=True, max_queue=4, quotas=False)
    for i in range(60):
        machine.arrive(
            dt=(i * 37 % 11) * 4.0,
            kind=KINDS[i * 7 % 3],
            size=(i * 13 % 10) / 10.0,
            priority=i * 5 % 3,
            tenant=TENANTS[i % 3],
        )
    while machine.run.arrivals or machine.run.queue or machine.run.suspended:
        machine.step()
        machine.every_request_is_in_exactly_one_place()
        machine.equation_1_holds()
    metrics = machine.run.metrics
    assert metrics.drops_queue_full > 0
    assert metrics.preemptions > 0 and metrics.resumes == metrics.preemptions
    assert len(metrics.latencies) + len(metrics.drop_log) == machine.sent


def test_resumed_batch_is_readmitted_against_tenant_quotas():
    """The machine's first finding on the repaired loop, kept as a fixed
    replay: ``batch`` (4 % of the budget) has an MSSP batch frozen under
    its own urgent BPPR batches, which fill the quota left beside the
    pin; the MSSP residual is larger than the pin, so completing the
    resumed batch put the tenant 0.26 % over its quota. Re-admission at
    resume checks tenant quotas like formation does, and flushes."""
    machine = SchedulerMachine()
    machine.open_service(lanes=True, max_queue=3, quotas=True)
    machine.arrive(dt=0.0, kind="mssp", size=0.0, priority=1, tenant="batch")
    machine.arrive(dt=0.25, kind="bppr", size=1.0, priority=0, tenant="batch")
    for _ in range(4):
        machine.step()
        machine.equation_1_holds()
    metrics = machine.run.metrics
    # One flush made room for the second BPPR batch, one for the resume.
    assert metrics.resumes == 1 and metrics.flushes == 2
