"""The scheduler's indexed ready queue (``repro.sched.queue``).

Three layers of evidence that the per-class lanes and their lazy merge
are the old "rank the whole queue" order, computed cheaply:

* a Hypothesis property test of the lane invariant itself — for any
  admission-ordered stream, any interleaving of removals and any
  ``now``, the merge equals a stable sort by
  ``ServicePolicy.selection_key`` (a list oracle written out in the
  test), plain iteration is admission order, and the eviction victim
  and the preemption waiters equal their brute-force definitions;
* a complexity guard that *counts* ``selection_key`` calls through a
  real service run over a deep queue, so the full re-rank cannot come
  back unnoticed on a host too noisy to time it;
* the degenerate-input contract (out-of-order appends are refused).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import create_engine
from repro.errors import BatchingError, SchedulingError
from repro.graph.datasets import load_dataset
from repro.sched.arrivals import TaskRequest
from repro.sched.policy import ServicePolicy
from repro.sched.queue import Pending, ReadyQueue
from repro.sched.service import SchedulerService

KINDS = ("bppr", "mssp", "bkhs")
TENANTS = ("default", "gold", "bulk")

request_specs = st.lists(
    st.tuples(
        # few distinct arrival instants and ids: ties and duplicates.
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0]),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=-2, max_value=6),  # incl. out of range
        st.sampled_from(TENANTS),
        st.sampled_from(KINDS),
    ),
    min_size=1,
    max_size=40,
)

policies = st.builds(
    ServicePolicy,
    priority_classes=st.integers(min_value=1, max_value=4),
    aging_seconds=st.sampled_from([None, 0.37, 3.0, 1e6]),
    tenant_priorities=st.one_of(
        st.none(),
        st.dictionaries(
            st.sampled_from(TENANTS[1:]),
            st.integers(min_value=0, max_value=5),
            max_size=2,
        ),
    ),
)


def admission_order(specs):
    """The order ``SchedulerService.run`` admits a stream in."""
    requests = [
        TaskRequest(
            task_id, kind, 4.0, arrival, priority=priority, tenant=tenant
        )
        for arrival, task_id, priority, tenant, kind in specs
    ]
    return sorted(requests, key=lambda r: (r.arrival_seconds, r.task_id))


class TestOrderingInvariant:
    @settings(max_examples=200, deadline=None)
    @given(specs=request_specs, policy=policies, data=st.data())
    def test_merge_equals_stable_sort_of_admission_order(
        self, specs, policy, data
    ):
        queue = ReadyQueue(policy)
        model = []  # the list oracle: pendings in admission order
        for request in admission_order(specs):
            pending = Pending(request, remaining=request.units)
            queue.append(pending)
            model.append(pending)
            if data.draw(st.booleans(), label="remove one"):
                victim = data.draw(st.sampled_from(model), label="victim")
                queue.discard(victim)
                queue.discard(victim)  # idempotent
                model.remove(victim)
            now = request.arrival_seconds + data.draw(
                st.floats(min_value=0.0, max_value=20.0), label="waited"
            )
            ranked = sorted(
                model, key=lambda p: policy.selection_key(p.request, now)
            )
            assert list(queue.ranked(now)) == ranked
            assert list(queue) == model
            assert len(queue) == len(model)
            assert bool(queue) == bool(model)
            if model:
                assert queue.head(now) is ranked[0]

    @settings(max_examples=200, deadline=None)
    @given(specs=request_specs, policy=policies, data=st.data())
    def test_victim_and_waiters_equal_their_definitions(
        self, specs, policy, data
    ):
        queue = ReadyQueue(policy)
        model = []
        for request in admission_order(specs):
            pending = Pending(request, remaining=request.units)
            state = data.draw(st.sampled_from(["new", "partial", "frozen"]))
            if state == "partial":
                pending.remaining = 1.0
            elif state == "frozen":
                pending.inflight = 2.0
            queue.append(pending)
            model.append(pending)
        # The parent commit's eviction rule, verbatim.
        candidates = [
            p
            for p in model
            if p.inflight == 0 and p.remaining >= p.request.units
        ]
        expected = max(
            candidates,
            key=lambda p: (
                policy.static_class(p.request),
                p.request.arrival_seconds,
                p.request.task_id,
            ),
            default=None,
        )
        assert queue.evictable() is expected

        now = model[-1].request.arrival_seconds + data.draw(
            st.floats(min_value=0.0, max_value=20.0), label="waited"
        )
        batch_class = data.draw(st.integers(min_value=0, max_value=4))
        kind = data.draw(st.sampled_from(KINDS))
        waiters = [
            p
            for p in model
            if p.request.kind != kind
            and not p.inflight > 0
            and policy.effective_class(p.request, now) < batch_class
        ]
        found = list(queue.urgent_waiters(batch_class, now, kind))
        assert sorted(p.seq for p in found) == [p.seq for p in waiters]

    def test_out_of_order_append_is_refused(self):
        queue = ReadyQueue(ServicePolicy(priority_classes=2))
        queue.append(Pending(TaskRequest(5, "bppr", 4.0, 3.0), 4.0))
        # Another lane is independent; the same lane must not go back.
        queue.append(Pending(TaskRequest(1, "bppr", 4.0, 1.0, priority=0), 4.0))
        with pytest.raises(SchedulingError, match="order"):
            queue.append(Pending(TaskRequest(4, "bppr", 4.0, 3.0), 4.0))
        assert len(queue) == 2


class CountingPolicy(ServicePolicy):
    """``ServicePolicy`` that counts ``selection_key`` evaluations."""

    calls = [0]

    def selection_key(self, request, now):
        self.calls[0] += 1
        return super().selection_key(request, now)


class TestServiceLoopCost:
    @pytest.fixture(scope="class")
    def service_parts(self):
        graph = load_dataset("dblp", scale=400)
        engine = create_engine(
            "pregel+", cluster_by_name("galaxy-8", scale=400)
        )
        return engine, graph

    def test_selection_keys_per_decision_do_not_grow_with_the_queue(
        self, service_parts
    ):
        """~1 500 tiny requests pre-queued over three lanes and three
        kinds: every batch is cut short by the next other-kind request,
        so the run makes hundreds of decisions against a deep queue.
        Per decision the loop may evaluate ``selection_key`` at most
        ``priority_classes × (parts in the batch + 2)`` times (the lane
        heads for the head pick and for the merge, plus one per request
        read). Re-ranking the queue would cost ``2 × len(queue)``."""
        engine, graph = service_parts
        classes = 3
        policy = CountingPolicy(
            priority_classes=classes, aging_seconds=None, max_queue=None
        )
        service = SchedulerService(
            engine,
            graph,
            kinds=KINDS,
            seed=21,
            policy=policy,
            task_params={"bkhs": {"sample_limit": 16}},
        )
        rng = random.Random(5)
        requests = [
            TaskRequest(
                i,
                KINDS[int(rng.random() * 3)],
                float(1 + int(rng.random() * 2)),
                0.0,
                priority=int(rng.random() * classes),
            )
            for i in range(1500)
        ]
        CountingPolicy.calls[0] = 0
        metrics = service.run(requests)
        assert metrics.completed_tasks == len(requests)
        decisions = len(metrics.batch_log)
        assert decisions > 300
        # Every request is a part of at least one batch, so this is
        # the per-decision bound summed over the run (from below).
        parts = metrics.completed_tasks
        # A re-rank of the ~750-deep average queue is ~150× over it.
        assert CountingPolicy.calls[0] <= classes * (parts + 2 * decisions)

    def test_request_with_nothing_to_schedule_fails_the_run(
        self, service_parts
    ):
        """A zero-unit request can never join a batch, so it must not
        leave the queue unanswered (no latency, no drop) either: the
        run fails as soon as it becomes the queue head, wherever in the
        stream it arrived."""
        engine, graph = service_parts
        service = SchedulerService(engine, graph, kinds=("bppr",), seed=21)
        with pytest.raises(BatchingError):
            service.run(
                [
                    TaskRequest(0, "bppr", 8.0, 0.0),
                    TaskRequest(1, "bppr", 0.0, 0.0),
                ]
            )
