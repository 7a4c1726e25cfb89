"""One BPPR walk per significand of W (DESIGN.md §10.1): on an engine
that neither combines nor broadcasts, the batch at ``m * 2**e`` reads
the walk at ``m`` scaled by ``2**e``.

The oracle here shares no code with the tape: it steps
:class:`~repro.tasks.bppr.BPPRKernel` directly at the batch's own
workload, with no engine and no tape, and every field of every round
must match the tape-served round bit for bit. Whole jobs are compared
with the same jobs run tape-free (``replay_key`` declared ``None``), as
packed bytes, on all seven linear engines and through the session paths
a batch can take: overload then continue, faults and checkpoints, and
suspension inside a replayed batch.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.cluster.cluster import cluster_by_name
from repro.engines.base import BatchCheckpoint, EngineSession
from repro.engines.registry import create_engine
from repro.faults.plan import mixed_fault_plan
from repro.graph.build import from_edge_list
from repro.graph.datasets import load_dataset
from repro.perf.cache import clear_cache
from repro.tasks import bppr
from repro.tasks.bppr import BPPRKernel, ScaledWalk, bppr_task
from tests.engines.test_round_tape import (
    _ExplodingGenerator,
    job_digest,
    session_job,
)
from tests.engines.test_workload_scaling import (
    LINEAR_ENGINES,
    SUBLINEAR_ENGINES,
)

SCALE = 4000
SEED = 7

#: A significand multiple that is no integer, at k = -3 .. 3: the three
#: below one walk per vertex keep walks of their own.
MULTIPLE = 3.3
WORKLOADS = tuple(math.ldexp(MULTIPLE, k) for k in range(-3, 4))


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture(scope="module")
def graph():
    return load_dataset("dblp", scale=SCALE)


@pytest.fixture(scope="module")
def cluster():
    return cluster_by_name("galaxy-8", scale=SCALE)


@pytest.fixture(scope="module")
def hub_graph():
    """One hub every vertex points at and that points at all of them,
    a chain off the hub and a dangling tail: mass piles up on the hub
    and leaves through 400 arcs at once."""
    leaves = 400
    edges = [(0, v) for v in range(1, leaves + 1)]
    edges += [(v, 0) for v in range(1, leaves + 1)]
    edges += [(v, v + 1) for v in range(1, 40)]
    edges += [(leaves + 1, leaves + 2)]
    edges += [(0, leaves + 1)]
    return from_edge_list(edges, num_vertices=leaves + 3, name="hub")


@pytest.fixture
def tape_free(monkeypatch):
    """Run every BPPR batch on a live kernel, as before round tapes."""

    def declare_nothing():
        monkeypatch.setattr(BPPRKernel, "replay_key", lambda kernel: None)

    return declare_nothing


def field_bits(summary, residual):
    """Every field of a ``RoundSummary`` and the residual after it, with
    floats as their exact bits."""

    def exact(value):
        if isinstance(value, tuple):
            return tuple(exact(v) for v in value)
        if value is None or isinstance(value, bool):
            return value
        return float(value).hex()

    return exact(dataclasses.astuple(summary) + (residual,))


def oracle_rounds(router, graph, workload, **params):
    """The batch's rounds from a kernel stepped by hand."""
    kernel = BPPRKernel(graph, router, _ExplodingGenerator(), **params)
    kernel.start_batch(workload)
    rounds = []
    while not rounds or not rounds[-1][0].done:
        summary = kernel.step()
        rounds.append((summary, kernel.residual_bytes()))
    return [field_bits(*r) for r in rounds]


def served_rounds(session, workload):
    """The rounds the session's tape served a batch of ``workload``."""
    kernel = session.task.make_kernel(session.prep.router, workload, None)
    tape = session.prep.tapes[session._tape_scope + (kernel.replay_key(),)]
    view = tape.views[kernel.replay_exponent()]
    return [field_bits(summary, residual) for summary, residual, _ in view]


def sweep_session(engine_name, graph, cluster, sizes, **params):
    session = EngineSession(
        create_engine(engine_name, cluster),
        bppr_task(graph, sum(sizes), **params),
        seed=SEED,
        cutoff_seconds=None,
    )
    for size in sizes:
        session.run_batch(size)
    return session


# ----------------------------------------------------------------------
# Round by round, against a kernel stepped by hand
# ----------------------------------------------------------------------
class TestAgainstTheKernel:
    @pytest.mark.parametrize("engine_name", LINEAR_ENGINES)
    def test_every_scale_every_field(self, engine_name, graph, cluster):
        # Middle scale first, then up and down: the walk is extended by
        # later, larger scales and read short by smaller ones.
        sizes = sorted(WORKLOADS, key=lambda w: abs(math.log2(w / MULTIPLE)))
        session = sweep_session(engine_name, graph, cluster, sizes)
        router = session.prep.router
        for workload in WORKLOADS:
            expected = oracle_rounds(router, graph, workload)
            assert served_rounds(session, workload) == expected, workload
        walks = [
            t.walk for t in session.prep.tapes.values()
            if isinstance(t.walk, ScaledWalk)
        ]
        # 1.65 .. 26.4 read one walk at 0.825; 0.4125 and 0.825 keep
        # walks of their own, under keys that name their workload.
        (walk,) = walks
        assert walk.recorded == len(served_rounds(session, 26.4))
        assert len(session.prep.tapes) == 3 and not walk._exact

    def test_hub_heavy_graph(self, hub_graph, small_cluster):
        """Up to W = 2**53 walks per vertex, read off the walk itself: no
        cluster holds the engine's residual that far."""
        engine = create_engine("pregel+", small_cluster)
        task = bppr_task(hub_graph, 1.0)
        router = engine._prepare(task).router
        walk, lengths = None, {}
        for exponent in (9, 1, 53, 30):
            workload = math.ldexp(0.6875, exponent)
            kernel = task.make_kernel(router, workload, None)
            assert kernel.replay_exponent() == exponent
            walk = walk or kernel.replay_walk()
            served, index = [], 0
            while not served or not served[-1][0].done:
                served.append(walk.round(index, exponent))
                index += 1
            expected = oracle_rounds(router, hub_graph, workload)
            assert [field_bits(*r) for r in served] == expected, exponent
            lengths[exponent] = index
        assert isinstance(walk, ScaledWalk) and not walk._exact
        assert walk.recorded == max(lengths.values()) == lengths[53]

    @pytest.mark.parametrize("workload", [2.0**-1000, 2.0**60])
    def test_outside_the_scaled_range_a_batch_keeps_its_walk(
        self, workload, hub_graph, small_cluster
    ):
        session = sweep_session(
            "pregel+", hub_graph, small_cluster, [workload], max_rounds=400
        )
        ((key, tape),) = session.prep.tapes.items()
        assert key[-1] == (bppr.DEFAULT_ALPHA, 400, workload)
        assert list(tape.views) == [0]
        expected = oracle_rounds(
            session.prep.router, hub_graph, workload, max_rounds=400
        )
        # 2**60 walks per vertex overload the cluster on round 1.
        served = served_rounds(session, workload)
        assert served and served == expected[: len(served)]

    def test_subnormal_stops_run_every_scale_on_its_own(
        self, graph, cluster
    ):
        """α = 1e-310 is subnormal, so is every stopped share: no round
        may be scaled, and each scale runs a kernel of its own."""
        params = {"alpha": 1e-310, "max_rounds": 12}
        sizes = [6.6, 26.4, 3.3]
        session = sweep_session("pregel+", graph, cluster, sizes, **params)
        for workload in sizes:
            expected = oracle_rounds(
                session.prep.router, graph, workload, **params
            )
            assert served_rounds(session, workload) == expected
        (tape,) = session.prep.tapes.values()
        assert sorted(tape.walk._exact) == sorted(tape.views) == [2, 3, 5]

    def test_a_scale_leaves_the_walk_where_its_values_would_not(
        self, monkeypatch, graph, cluster
    ):
        """Raise the floor to the walk's smallest value over its first
        five rounds: a scale reads those off the walk, then runs its own
        kernel from the first round below the floor on."""
        probe = sweep_session("pregel+", graph, cluster, [52.8])
        (tape,) = probe.prep.tapes.values()
        smallest = [tape.walk.record(i)[-1] for i in range(tape.walk.recorded)]
        floor = min(smallest[:5])
        first_below = next(i for i, s in enumerate(smallest) if s < floor)
        monkeypatch.setattr(bppr, "NORMAL_FLOOR", floor)
        clear_cache()
        session = sweep_session("pregel+", graph, cluster, [13.2, 52.8, 13.2])
        for workload in (13.2, 52.8):
            expected = oracle_rounds(session.prep.router, graph, workload)
            assert served_rounds(session, workload) == expected
        (tape,) = session.prep.tapes.values()
        assert tape.walk.recorded == first_below + 1
        assert sorted(tape.walk._exact) == [4, 6]


# ----------------------------------------------------------------------
# Whole jobs, against the same jobs run tape-free
# ----------------------------------------------------------------------
def scenario_digests(graph, cluster, engine_name):
    """Packed bytes of every scenario, in one run of each."""
    digests = {}
    engine = create_engine(engine_name, cluster)
    task = bppr_task(graph, 128.0)
    for batches in (1, 2, 4, 8, 16):
        job = engine.run_job(task, [128.0 / batches] * batches, seed=SEED)
        digests[f"sweep-b{batches}"] = job_digest(job)
        clear_cache()
    uneven = engine.run_job(task, [52.8, 26.4, 26.4, 13.2, 9.2], seed=SEED)
    digests["uneven"] = job_digest(uneven)
    clear_cache()
    return digests


class TestAgainstTapeFreeJobs:
    @pytest.mark.parametrize("engine_name", LINEAR_ENGINES)
    def test_linear_engines_pack_the_same_bytes(
        self, engine_name, tape_free, graph, cluster
    ):
        served = scenario_digests(graph, cluster, engine_name)
        tape_free()
        assert scenario_digests(graph, cluster, engine_name) == served

    @pytest.mark.parametrize("engine_name", SUBLINEAR_ENGINES)
    def test_combining_and_broadcast_keep_one_walk_per_w(
        self, engine_name, graph, cluster
    ):
        session = sweep_session(engine_name, graph, cluster, [32.0, 8.0, 16.0])
        keys = [key[-1] for key in session.prep.tapes]
        assert keys == [(bppr.DEFAULT_ALPHA, 10_000, w) for w in (32.0, 8.0, 16.0)]
        assert not any(
            isinstance(t.walk, ScaledWalk) for t in session.prep.tapes.values()
        )

    def test_overload_then_continue_at_a_second_scale(
        self, tape_free, graph, cluster
    ):
        def run():
            limit = cluster.scaled_machine.overload_limit_bytes
            session = EngineSession(
                create_engine("pregel+", cluster),
                bppr_task(graph, 128.0),
                seed=SEED,
                initial_residual_bytes=limit * cluster.num_machines,
            )
            first = session.run_batch(16.0)
            session.flush_residual()
            batches = [first, session.run_batch(64.0), session.run_batch(16.0)]
            return session, batches

        session, batches = run()
        assert batches[0].overloaded and len(batches[0].rounds) == 1
        assert not batches[1].overloaded and not batches[2].overloaded
        (tape,) = session.prep.tapes.values()
        assert tape.walk.recorded == len(batches[1].rounds)
        served = job_digest(session_job(session, batches))
        tape_free()
        session, batches = run()
        assert job_digest(session_job(session, batches)) == served

    @pytest.mark.parametrize("engine_name", ["pregel+", "graphd"])
    def test_faults_and_checkpoints(
        self, engine_name, tape_free, graph, cluster
    ):
        def run():
            plan = mixed_fault_plan(5, cluster.num_machines, 0.05)
            return create_engine(engine_name, cluster).run_job(
                bppr_task(graph, 128.0),
                [16.0, 64.0, 32.0, 16.0],
                seed=SEED,
                fault_plan=plan,
                checkpoint_every=3,
            )

        job = run()
        assert job.fault_events > 0 and job.checkpoints_written > 0
        served = job_digest(job)
        clear_cache()
        tape_free()
        assert job_digest(run()) == served

    def test_suspension_inside_a_replayed_batch_at_a_second_scale(
        self, tape_free, graph, cluster
    ):
        def run(suspend):
            session = EngineSession(
                create_engine("pregel+", cluster),
                bppr_task(graph, 80.0),
                seed=SEED,
            )

            def at_even_barriers(batch):
                return len(batch.rounds) % 2 == 0

            batches, suspends = [], 0
            for index, size in enumerate((16.0, 32.0, 32.0)):
                callback = at_even_barriers if suspend and index else None
                result = session.run_batch(size, should_suspend=callback)
                while isinstance(result, BatchCheckpoint):
                    suspends += 1
                    result = session.resume(should_suspend=callback)
                batches.append(result)
            return job_digest(session_job(session, batches)), suspends

        served, suspends = run(True)
        straight, none = run(False)
        assert suspends > 0 and none == 0
        assert served == straight
        tape_free()
        assert run(True) == (served, suspends)
        assert run(False)[0] == served
