"""Priority lanes, aging, shedding, and barrier preemption.

Policy arithmetic is tested standalone; the service-level scenarios
run real engines at a small scale and assert the *scheduling*
consequences — who is served first, who is shed, when a running batch
suspends — plus the two legacy-equivalence guarantees: one priority
class reproduces FIFO byte for byte, and an un-preempted run under a
preemption-enabled policy executes identical batches.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import create_engine
from repro.errors import ConfigurationError
from repro.graph.datasets import load_dataset
from repro.sched.arrivals import TaskRequest, generate_arrivals
from repro.sched.policy import ServicePolicy
from repro.sched.service import SchedulerService
from repro.sim.metrics import JobMetrics, pack_job

SCALE = 400


@pytest.fixture(scope="module")
def graph():
    return load_dataset("dblp", scale=SCALE)


@pytest.fixture(scope="module")
def engine():
    return create_engine("pregel+", cluster_by_name("galaxy-8", scale=SCALE))


def service_for(engine, graph, policy=None, kinds=("bppr",), **kwargs):
    kwargs.setdefault("task_params", {"bkhs": {"sample_limit": 16}})
    return SchedulerService(
        engine, graph, kinds=kinds, seed=21, policy=policy, **kwargs
    )


def metrics_json(metrics):
    return json.dumps(
        metrics.to_dict(include_latencies=True), sort_keys=True
    )


class TestPolicyArithmetic:
    def test_static_class_clamps_to_lanes(self):
        policy = ServicePolicy(priority_classes=3)
        req = lambda p: TaskRequest(0, "bppr", 8.0, 0.0, priority=p)
        assert policy.static_class(req(0)) == 0
        assert policy.static_class(req(7)) == 2
        assert policy.static_class(req(-4)) == 0

    def test_single_class_collapses_everything(self):
        policy = ServicePolicy()
        req = TaskRequest(3, "bppr", 8.0, 1.5, priority=9)
        assert policy.static_class(req) == 0
        assert policy.selection_key(req, 100.0) == (0, 1.5, 3)

    def test_aging_promotes_one_lane_per_interval(self):
        policy = ServicePolicy(priority_classes=4, aging_seconds=10.0)
        req = TaskRequest(0, "bppr", 8.0, 0.0, priority=3)
        assert policy.effective_class(req, 0.0) == 3
        assert policy.effective_class(req, 10.0) == 2
        assert policy.effective_class(req, 25.0) == 1
        assert policy.effective_class(req, 1000.0) == 0  # never below 0

    def test_aging_disabled_keeps_static_class(self):
        policy = ServicePolicy(priority_classes=4, aging_seconds=None)
        req = TaskRequest(0, "bppr", 8.0, 0.0, priority=3)
        assert policy.effective_class(req, 1e9) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServicePolicy(priority_classes=0)
        with pytest.raises(ConfigurationError):
            ServicePolicy(aging_seconds=0.0)
        with pytest.raises(ConfigurationError):
            ServicePolicy(preempt_rule="sometimes")
        with pytest.raises(ConfigurationError):
            ServicePolicy(max_queue=0)
        with pytest.raises(ConfigurationError):
            ServicePolicy(shed_watermark=1.5)
        with pytest.raises(ConfigurationError):
            ServicePolicy(preempt_after_rounds=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "aging_seconds",
            "result_ttl_seconds",
            "result_cache_bytes",
        ],
    )
    def test_non_finite_values_are_rejected(self, field, value):
        # nan used to pass every range check; "off" is spelled None.
        with pytest.raises(ConfigurationError, match=f"{field}.*finite"):
            ServicePolicy(result_cache=True, **{field: value})


class TestFifoEquivalence:
    """The load-bearing regression guard: the policy layer must be
    invisible unless its knobs are actually exercised."""

    def _stream(self, engine, graph, policy):
        service = service_for(engine, graph, policy, record_rounds=True)
        requests = generate_arrivals(
            0.6, 15, seed=21, kinds=("bppr",), units_range=(8, 48)
        )
        return metrics_json(service.run(requests, arrival_rate=0.6))

    def test_default_policy_is_byte_identical_to_legacy(self, engine, graph):
        legacy = self._stream(engine, graph, None)
        explicit = self._stream(engine, graph, ServicePolicy())
        assert legacy == explicit

    def test_uniform_priorities_match_fifo(self, engine, graph):
        # Every generated request carries DEFAULT_PRIORITY, so three
        # lanes plus aging still order exactly like FIFO. Only the
        # recorded lane label may differ (class 1 instead of the
        # single-lane 0); everything measured must match byte for byte.
        def normalized(payload):
            data = json.loads(payload)
            for entry in data["batches"]:
                entry.pop("priority", None)
            return json.dumps(data, sort_keys=True)

        fifo = normalized(self._stream(engine, graph, None))
        laned = normalized(
            self._stream(engine, graph, ServicePolicy(priority_classes=3))
        )
        assert fifo == laned

    def test_unexercised_preemption_executes_identical_batches(
        self, engine, graph
    ):
        # A single request can never be preempted (nothing else is
        # waiting): the engine-level batches must be identical to the
        # default policy's.
        request = [TaskRequest(0, "bppr", 64.0, 0.0)]

        def batches(policy):
            service = service_for(engine, graph, policy)
            service.run(list(request))
            job = JobMetrics(
                engine="pregel+",
                task="bppr",
                dataset=graph.name,
                cluster="galaxy-8",
                num_machines=engine.cluster.num_machines,
                total_workload=64.0,
                batch_sizes=[64.0],
            )
            for _, batch in service.executed_batches:
                job.batches.append(batch)
            return bytes(pack_job(job)["payload"])

        preemptive = ServicePolicy(
            priority_classes=3, preempt=True, preempt_rule="eager"
        )
        assert batches(None) == batches(preemptive)


class TestPriorityOrdering:
    def test_urgent_class_is_served_first(self, engine, graph):
        policy = ServicePolicy(priority_classes=3, aging_seconds=None)
        service = service_for(engine, graph, policy)
        requests = [
            TaskRequest(0, "bppr", 16.0, 0.0, priority=2),
            TaskRequest(1, "bppr", 16.0, 0.0, priority=0),
            TaskRequest(2, "bppr", 16.0, 0.0, priority=1),
        ]
        metrics = service.run(requests)
        assert metrics.completed_tasks == 3
        first_units = [
            latency.task_id
            for latency in sorted(
                metrics.latencies, key=lambda l: l.start_seconds
            )
        ]
        # Urgent first; ties broken by start order = class order.
        assert first_units.index(1) < first_units.index(2) < first_units.index(0)

    def test_aging_rescues_a_starved_request(self, engine, graph):
        policy = ServicePolicy(priority_classes=3, aging_seconds=60.0)
        service = service_for(engine, graph, policy)
        # The patient request has waited 200 s by clock zero — aging
        # has promoted it past the fresh urgent arrival.
        requests = [
            TaskRequest(0, "bppr", 16.0, -200.0, priority=2),
            TaskRequest(1, "bppr", 16.0, 0.0, priority=1),
        ]
        metrics = service.run(requests)
        starts = {l.task_id: l.start_seconds for l in metrics.latencies}
        assert starts[0] <= starts[1]

        # Without aging the same stream serves the fresh class-1 first.
        unaged = service_for(
            engine,
            graph,
            ServicePolicy(priority_classes=3, aging_seconds=None),
        )
        metrics = unaged.run(
            [
                TaskRequest(0, "bppr", 16.0, -200.0, priority=2),
                TaskRequest(1, "bppr", 16.0, 0.0, priority=1),
            ]
        )
        starts = {l.task_id: l.start_seconds for l in metrics.latencies}
        assert starts[1] <= starts[0]


class TestShedding:
    def test_bounded_queue_evicts_least_urgent_youngest(self, engine, graph):
        policy = ServicePolicy(
            priority_classes=3, aging_seconds=None, max_queue=2
        )
        service = service_for(engine, graph, policy)
        requests = [
            TaskRequest(0, "bppr", 16.0, 0.0, priority=0),
            TaskRequest(1, "bppr", 16.0, 0.0, priority=2),
            TaskRequest(2, "bppr", 16.0, 0.0, priority=2),
            TaskRequest(3, "bppr", 16.0, 0.0, priority=1),
        ]
        metrics = service.run(requests)
        assert metrics.dropped_requests == 2
        assert metrics.drops_queue_full == 2
        # Deterministic victims: lowest class, youngest arrival first.
        assert [d["task_id"] for d in metrics.drop_log] == [2, 1]
        assert all(
            d["retry_after_seconds"]
            >= policy.retry_after_floor_seconds
            for d in metrics.drop_log
        )
        assert metrics.completed_tasks == 2
        assert {l.task_id for l in metrics.latencies} == {0, 3}

    def test_watermark_sheds_lowest_class_under_pressure(self, engine, graph):
        policy = ServicePolicy(
            priority_classes=2, aging_seconds=None, shed_watermark=0.0
        )
        service = service_for(engine, graph, policy)
        requests = [
            TaskRequest(0, "bppr", 32.0, 0.0, priority=0),
            # Arrives after the first batch has accumulated residual
            # memory: above the (zero) watermark, lowest class -> shed.
            TaskRequest(1, "bppr", 16.0, 5.0, priority=1),
        ]
        metrics = service.run(requests)
        assert metrics.completed_tasks == 1
        assert metrics.drops_watermark == 1
        assert metrics.drop_log[0]["task_id"] == 1
        assert metrics.drop_log[0]["reason"] == "watermark"

    def test_expired_requests_drop_before_starting(self, engine, graph):
        policy = ServicePolicy(
            priority_classes=2, aging_seconds=None, drop_expired=True
        )
        service = service_for(engine, graph, policy)
        requests = [
            TaskRequest(0, "bppr", 64.0, 0.0, priority=0),
            TaskRequest(
                1, "bppr", 16.0, 1.0, priority=1, deadline_seconds=0.5
            ),
        ]
        metrics = service.run(requests)
        assert metrics.drops_expired == 1
        assert metrics.completed_tasks == 1
        assert metrics.resilience_summary()["drops_expired"] == 1


class TestPreemption:
    def test_urgent_cross_kind_request_preempts(self, engine, graph):
        policy = ServicePolicy(
            priority_classes=3,
            aging_seconds=None,
            preempt=True,
            preempt_rule="eager",
        )
        service = service_for(
            engine, graph, policy, kinds=("bppr", "bkhs")
        )
        requests = [
            TaskRequest(0, "bkhs", 96.0, 0.0, priority=2),
            TaskRequest(1, "bppr", 8.0, 0.5, priority=0),
        ]
        metrics = service.run(requests)
        assert metrics.preemptions >= 1
        assert metrics.resumes >= 1
        assert metrics.preempt_seconds > 0.0
        assert metrics.completed_tasks == 2
        # The urgent request overtakes: it finishes first.
        finishes = {l.task_id: l.finish_seconds for l in metrics.latencies}
        assert finishes[1] < finishes[0]
        # All pinned checkpoint memory was released on resume.
        assert service.admission.pinned_bytes() == 0.0
        summary = metrics.resilience_summary()
        assert summary["preemptions"] == metrics.preemptions
        assert summary["resumes"] == metrics.resumes

    def test_same_kind_never_preempts(self, engine, graph):
        policy = ServicePolicy(
            priority_classes=3,
            aging_seconds=None,
            preempt=True,
            preempt_rule="eager",
        )
        service = service_for(engine, graph, policy, kinds=("bppr", "bkhs"))
        requests = [
            TaskRequest(0, "bkhs", 96.0, 0.0, priority=2),
            TaskRequest(1, "bkhs", 8.0, 0.5, priority=0),
        ]
        metrics = service.run(requests)
        assert metrics.preemptions == 0
        assert metrics.completed_tasks == 2

    def test_suspend_cap_bounds_churn(self, engine, graph):
        policy = ServicePolicy(
            priority_classes=3,
            aging_seconds=None,
            preempt=True,
            preempt_rule="eager",
            max_suspends_per_batch=1,
        )
        service = service_for(engine, graph, policy, kinds=("bppr", "bkhs"))
        requests = [TaskRequest(0, "bkhs", 96.0, 0.0, priority=2)] + [
            TaskRequest(
                i, "bppr", 8.0, 0.5 * i, priority=0
            )
            for i in range(1, 6)
        ]
        metrics = service.run(requests)
        assert metrics.completed_tasks == 6
        per_batch = [
            entry["preemptions"]
            for entry in metrics.batch_log
            if entry["kind"] == "bkhs"
        ]
        assert per_batch and max(per_batch) <= 1
