"""Round tapes: a deterministic walk executes once per engine and
graph, and every batch of any session of that engine whose rounds it
determines — an equal batch, or on a linear engine any batch at a
power-of-two multiple of its workload — replays the recorded rounds
(DESIGN.md §10.1, "Round tapes").

Two kinds of guard:

* **equivalence** — packed job bytes on the paths the layered benchmark
  does not reach, against digests pinned from commit ``c154351`` (the
  last one that executed every batch). A replay changes how often a
  round is computed, never its value.
* **counts** — how often the real kernel advances, which no host is too
  noisy to measure.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import weakref

import pytest

from repro.cluster.cluster import cluster_by_name
from repro.engines.base import (
    MAX_ENGINE_TAPES,
    BatchCheckpoint,
    EngineSession,
)
from repro.engines.registry import ENGINE_NAMES, create_engine
from repro.faults.plan import mixed_fault_plan
from repro.graph.datasets import load_dataset
from repro.perf import timings
from repro.perf.cache import clear_cache
from repro.sim.metrics import JobMetrics, pack_job
from repro.tasks.base import make_task
from repro.tasks.bppr import BPPRKernel, bppr_task

SCALE = 4000
SEED = 7

#: name -> batch sizes. ``w130-b4`` splits 33/33/32/32: two tapes.
CASES = {
    "w128-b1": [128.0],
    "w128-b4": [32.0] * 4,
    "w128-b16": [8.0] * 16,
    "w130-b4": [33.0, 33.0, 32.0, 32.0],
}

#: blake2b-8 of ``pack_job(job)["payload"]`` at commit c154351.
PINNED_JOBS = {
    "pregel+/w128-b1": "4c62d8320ae2b922",
    "pregel+/w128-b4": "b00b33e5744bf930",
    "pregel+/w128-b16": "cf4614763eaede8d",
    "pregel+/w130-b4": "d6d5666288ffacf9",
    "pregel+(mirror)/w128-b1": "1a270b04d3770415",
    "pregel+(mirror)/w128-b4": "69355bd085239d12",
    "pregel+(mirror)/w128-b16": "372e2aba7be26560",
    "pregel+(mirror)/w130-b4": "806dec7e1f42ddb0",
    "giraph/w128-b1": "4f175186194c9cb6",
    "giraph/w128-b4": "d0ab18651af045a9",
    "giraph/w128-b16": "1d9c66b2d1352f86",
    "giraph/w130-b4": "22b9fb4255f9c140",
    "giraph(async)/w128-b1": "46c1e72714a7b49f",
    "giraph(async)/w128-b4": "5f62c7ca1d2ac2a1",
    "giraph(async)/w128-b16": "0f390eb47df9e6fc",
    "giraph(async)/w130-b4": "05bea18bacf02303",
    "giraph(split)/w128-b1": "335ec4c03457a459",
    "giraph(split)/w128-b4": "6a4b9a14a4544330",
    "giraph(split)/w128-b16": "27a9b29c7b6d2113",
    "giraph(split)/w130-b4": "1394d8a83d443011",
    "graphd/w128-b1": "d71a6d0857c77624",
    "graphd/w128-b4": "9bf1791167118f6d",
    "graphd/w128-b16": "84c34c0c1f96223a",
    "graphd/w130-b4": "5b0d9240da77ced4",
    "graphlab/w128-b1": "d86a5357e45cfce6",
    "graphlab/w128-b4": "eb3abbdff8c460ec",
    "graphlab/w128-b16": "43e5da006b341590",
    "graphlab/w130-b4": "1e628cb0665b6178",
    "graphlab(async)/w128-b1": "8455fe0c9b741893",
    "graphlab(async)/w128-b4": "df09ea67febf6ee7",
    "graphlab(async)/w128-b16": "df3f3e4311325fcf",
    "graphlab(async)/w130-b4": "ef927d9c48f6589a",
    "pregel+(wholegraph)/w128-b1": "d7371329bb2b52b3",
    "pregel+(wholegraph)/w128-b4": "e935fbd3256e2990",
    "pregel+(wholegraph)/w128-b16": "a46618dcba4dcacc",
    "pregel+(wholegraph)/w130-b4": "bb4601f77b801c5e",
}

#: session-driven scenarios, same digest, same commit.
PINNED_SCENARIOS = {
    "overload-then-continue": "8a5d8b14ec66ddea",
    "faults/pregel+": "09b715f5016dc868",
    "faults/graphd": "cac6f51942aa7917",
    "three-equal-batches": "6d752c2c69b07e83",
    "serve": "fb0808d8ae726201",
}


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


def _hex(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def job_digest(job: JobMetrics) -> str:
    return _hex(bytes(pack_job(job)["payload"]))


def session_job(session: EngineSession, batches) -> JobMetrics:
    """Wrap batches a test drove by hand so ``pack_job`` can digest them."""
    engine, task = session.engine, session.task
    job = JobMetrics(
        engine=engine.name,
        task=task.name,
        dataset=task.graph.name,
        cluster=engine.cluster.name,
        num_machines=engine.cluster.num_machines,
        total_workload=sum(b.workload for b in batches),
        batch_sizes=[b.workload for b in batches],
    )
    job.batches.extend(batches)
    return job


def bppr_job(engine_name, graph, cluster, sizes) -> JobMetrics:
    engine = create_engine(engine_name, cluster)
    return engine.run_job(bppr_task(graph, sum(sizes)), sizes, seed=SEED)


def sole_view(session: EngineSession):
    """The rounds of the one view of the one tape a session's batches
    read: ``(summary, kernel residual, stage-1 demand)`` per round."""
    (tape,) = session.prep.tapes.values()
    (view,) = tape.views.values()
    return view


# ----------------------------------------------------------------------
# Scenarios (also run against c154351 to pin the digests)
# ----------------------------------------------------------------------
def full_residual_session(graph, cluster) -> EngineSession:
    """A pregel+ BPPR session whose residual already fills every
    machine to the overload limit: any batch overloads on round 1."""
    limit = cluster.scaled_machine.overload_limit_bytes
    return EngineSession(
        create_engine("pregel+", cluster),
        bppr_task(graph, 64.0),
        seed=SEED,
        initial_residual_bytes=limit * cluster.num_machines,
    )


def overload_then_continue(graph, cluster):
    """Batch 1 overloads on its first round; after a flush the same
    size runs to completion."""
    session = full_residual_session(graph, cluster)
    first = session.run_batch(32.0)
    session.flush_residual()
    second = session.run_batch(32.0)
    return session, [first, second]


def faulted_job(engine_name, graph, cluster) -> JobMetrics:
    engine = create_engine(engine_name, cluster)
    plan = mixed_fault_plan(5, cluster.num_machines, 0.05)
    return engine.run_job(
        bppr_task(graph, 128.0),
        [32.0] * 4,
        seed=SEED,
        fault_plan=plan,
        checkpoint_every=3,
    )


def suspended_session(graph, cluster, suspend: bool):
    """Three equal batches; the two replayed ones freeze at every even
    barrier when ``suspend`` is set."""
    engine = create_engine("pregel+", cluster)
    session = EngineSession(engine, bppr_task(graph, 48.0), seed=SEED)

    def at_even_barriers(batch):
        return len(batch.rounds) % 2 == 0

    batches, suspends = [], 0
    for index in range(3):
        callback = at_even_barriers if suspend and index else None
        result = session.run_batch(16.0, should_suspend=callback)
        while isinstance(result, BatchCheckpoint):
            suspends += 1
            result = session.resume(should_suspend=callback)
        batches.append(result)
    return session, batches, suspends


def calibrated_serve(graph, cluster) -> str:
    from repro.sched.arrivals import TaskRequest
    from repro.sched.policy import ServicePolicy
    from repro.sched.service import SchedulerService

    service = SchedulerService(
        create_engine("pregel+", cluster),
        graph,
        kinds=("bppr",),
        seed=17,
        record_rounds=True,
        policy=ServicePolicy(calibrate=True),
    )
    # Far enough apart that each request is its own batch, and only
    # two unit counts, so most batches repeat an earlier one.
    requests = [
        TaskRequest(i, "bppr", (8.0, 24.0)[i % 2], 5000.0 * i)
        for i in range(8)
    ]
    metrics = service.run(requests)
    blob = json.dumps(metrics.to_dict(include_latencies=True), sort_keys=True)
    return _hex(blob.encode())


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@pytest.fixture
def advances(monkeypatch):
    """Count real ``BPPRKernel._advance`` calls."""
    calls = []
    original = BPPRKernel._advance

    def counting(kernel):
        calls.append(kernel._workload)
        return original(kernel)

    monkeypatch.setattr(BPPRKernel, "_advance", counting)
    return calls


class TestReplayEquivalence:
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_every_engine_every_split(self, engine_name, graph, cluster):
        for case, sizes in CASES.items():
            job = bppr_job(engine_name, graph, cluster, sizes)
            assert not job.overloaded
            assert job_digest(job) == PINNED_JOBS[f"{engine_name}/{case}"], (
                engine_name, case,
            )

    def test_overloaded_first_batch_leaves_tape_unfinished(
        self, graph, cluster
    ):
        session = full_residual_session(graph, cluster)
        first = session.run_batch(32.0)
        assert first.overloaded and len(first.rounds) == 1
        # Lazy: nothing executed past the break, kernel kept to go on.
        assert len(sole_view(session)) == 1
        (tape,) = session.prep.tapes.values()
        assert tape.walk.recorded == 1
        assert tape.walk.kernel is not None
        assert tape.walk.kernel.round_index == 1

    def test_equal_batch_continues_the_unfinished_kernel(
        self, advances, graph, cluster
    ):
        session, batches = overload_then_continue(graph, cluster)
        first, second = batches
        assert first.overloaded and not second.overloaded
        # One kernel, advanced once per round of the longer batch.
        assert len(sole_view(session)) == len(second.rounds) > 1
        assert len(advances) == len(second.rounds)
        digest = job_digest(session_job(session, batches))
        assert digest == PINNED_SCENARIOS["overload-then-continue"]

    @pytest.mark.parametrize("engine_name", ["pregel+", "graphd"])
    def test_faults_and_checkpoints_index_global_rounds(
        self, engine_name, graph, cluster
    ):
        job = faulted_job(engine_name, graph, cluster)
        # Vacuity guards: faults landed in replayed batches too, and
        # not the same ones in each (events follow ``global_round``).
        assert job.fault_events > 0 and job.checkpoints_written > 0
        per_batch = [b.fault_log for b in job.batches]
        assert any(per_batch[1:]) and len({tuple(log) for log in per_batch}) > 1
        assert job_digest(job) == PINNED_SCENARIOS[f"faults/{engine_name}"]

    def test_suspend_inside_a_replayed_batch(self, advances, graph, cluster):
        session, batches, suspends = suspended_session(graph, cluster, True)
        # Resuming mid-replay re-executes nothing: one batch's worth.
        assert len(advances) == len(batches[0].rounds)
        _, straight, zero = suspended_session(graph, cluster, False)
        assert suspends > 0 and zero == 0
        digest = job_digest(session_job(session, batches))
        assert digest == job_digest(session_job(session, straight))
        assert digest == PINNED_SCENARIOS["three-equal-batches"]

    def test_calibrated_serve_stream(self, graph, cluster):
        timings.reset()
        assert calibrated_serve(graph, cluster) == PINNED_SCENARIOS["serve"]
        replayed = timings.snapshot()["kernel.replayed"]
        assert replayed["count"] > 0 and replayed["seconds"] == 0.0


class _ExplodingGenerator:
    """Stands in for the session RNG; any use is a test failure."""

    def __getattribute__(self, name):
        raise AssertionError(f"deterministic kernel touched rng.{name}")


class TestTruthfulDeclaration:
    def test_declared_kernel_never_touches_the_rng(self, graph, cluster):
        engine = create_engine("pregel+", cluster)

        def run(rng=None):
            session = EngineSession(engine, bppr_task(graph, 48.0), seed=SEED)
            if rng is not None:
                session.rng = rng
            batches = [session.run_batch(size) for size in (16.0, 16.0, 16.0)]
            return job_digest(session_job(session, batches))

        assert run(_ExplodingGenerator()) == run()

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("mssp", {}),
            ("bkhs", {}),
            ("bppr-query", {}),
            ("bppr", {"mode": "montecarlo"}),
            ("bppr", {"track_sources": True}),
        ],
    )
    def test_rng_and_tracked_kernels_declare_nothing(
        self, kind, params, social_graph, small_cluster
    ):
        engine = create_engine("pregel+", small_cluster)
        session = EngineSession(
            engine, make_task(kind, social_graph, 4.0, **params), seed=SEED
        )
        kernel = session.task.make_kernel(
            session.prep.router, 2.0, session.rng
        )
        assert kernel.replay_key() is None
        session.run_batch(2.0)
        assert not session.prep.tapes

    def test_bppr_key_names_what_the_rounds_depend_on(
        self, social_graph, small_cluster
    ):
        cases = [
            # Linear: the significand of W, W = 0.5 * 2**3.
            ("pregel+", 4.0, (0.2, 50, "significand", 0.5), 3),
            ("giraph", 12.0, (0.2, 50, "significand", 0.75), 4),
            # Outside 1 <= W <= 2**53 a batch keeps its own walk.
            ("pregel+", 0.75, (0.2, 50, 0.75), 0),
            ("pregel+", 2.0**60, (0.2, 50, 2.0**60), 0),
            # Combining and broadcast are not linear in W.
            ("graphlab", 4.0, (0.2, 50, 4.0), 0),
            ("pregel+(mirror)", 4.0, (0.2, 50, 4.0), 0),
        ]
        task = bppr_task(social_graph, 8.0, alpha=0.2, max_rounds=50)
        for engine_name, workload, key, exponent in cases:
            engine = create_engine(engine_name, small_cluster)
            session = EngineSession(engine, task, seed=SEED)
            kernel = task.make_kernel(
                session.prep.router, workload, session.rng
            )
            assert kernel.replay_key() == key, engine_name
            assert kernel.replay_exponent() == exponent, engine_name

    def test_subclass_does_not_inherit_the_declaration(
        self, social_graph, small_cluster
    ):
        class Shuffled(BPPRKernel):
            pass

        engine = create_engine("pregel+", small_cluster)
        session = EngineSession(
            engine, bppr_task(social_graph, 8.0), seed=SEED
        )
        kernel = Shuffled(social_graph, session.prep.router, session.rng)
        kernel.start_batch(4.0)
        assert kernel.replay_key() is None


# ----------------------------------------------------------------------
# Across sessions: one engine, one tape store
# ----------------------------------------------------------------------
class TestAcrossSessions:
    def test_canonical_run_replays_the_serving_session(
        self, advances, graph, cluster
    ):
        engine = create_engine("pregel+", cluster)
        task = bppr_task(graph, 24.0)
        serving = engine.open_session(task, SEED, cutoff_seconds=None)
        executed = len(serving.run_batch(24.0).rounds)
        assert len(advances) == executed
        payload = engine.run_canonical(task, seed=SEED)
        assert len(advances) == executed  # replayed, nothing executed
        fresh = create_engine("pregel+", cluster).run_canonical(
            task, seed=SEED
        )
        assert len(advances) == 2 * executed
        assert payload == fresh

    def test_tasks_differing_in_alpha_never_share_a_record(
        self, advances, graph, cluster
    ):
        engine = create_engine("pregel+", cluster)
        digests = {}
        for alpha in (0.15, 0.2, 0.15, 0.2):
            task = bppr_task(graph, 16.0, alpha=alpha)
            digests.setdefault(alpha, []).append(
                job_digest(engine.run_job(task, [16.0], seed=SEED))
            )
            clear_cache()  # the second run of each must replay, not memo
        tapes = engine._prepare(bppr_task(graph, 16.0)).tapes
        assert len(tapes) == 2
        views = [tape.views[5] for tape in tapes.values()]
        # Each alpha executed once, on its own tape, to its own bytes.
        assert len(advances) == sum(len(view) for view in views)
        assert views[0][0][0] != views[1][0][0]
        for alpha, (first, replayed) in digests.items():
            fresh = create_engine("pregel+", cluster).run_job(
                bppr_task(graph, 16.0, alpha=alpha), [16.0], seed=SEED
            )
            assert first == replayed == job_digest(fresh)

    def test_params_stage_one_reads_are_part_of_the_key(
        self, advances, graph, cluster
    ):
        """Equal replay keys, different ``task.params``: stage 1 reads
        ``async_update_factor`` on an async engine, so the tasks keep
        separate records."""
        engine = create_engine("graphlab(async)", cluster)
        plain = bppr_task(graph, 16.0)
        damped = dataclasses.replace(
            plain, params={**plain.params, "async_update_factor": 0.5}
        )
        jobs = [engine.run_job(t, [16.0], seed=SEED) for t in (plain, damped)]
        assert len(engine._prepare(plain).tapes) == 2
        assert len(advances) == jobs[0].num_rounds + jobs[1].num_rounds
        assert jobs[1].total_messages < jobs[0].total_messages

    def test_replayed_round_lands_on_this_sessions_residual(
        self, advances, graph, cluster
    ):
        engine = create_engine("pregel+", cluster)
        task = bppr_task(graph, 64.0)
        recorder = engine.open_session(task, SEED)
        recorded = recorder.run_batch(16.0)
        residual = 0.25 * cluster.scaled_machine.usable_memory_bytes
        machines = cluster.num_machines
        session = engine.open_session(
            task, SEED, initial_residual_bytes=residual * machines
        )
        batch = session.run_batch(16.0)
        assert len(advances) == len(recorded.rounds) == len(batch.rounds)
        for landed, first, (_, kernel_residual, demand) in zip(
            batch.rounds, recorded.rounds, sole_view(session)
        ):
            stage_one = demand.load.peak_memory_bytes
            assert first.peak_memory_bytes == (
                stage_one + kernel_residual / machines
            )
            assert landed.peak_memory_bytes == (
                stage_one + (residual * machines + kernel_residual) / machines
            )
            assert landed.peak_memory_bytes > first.peak_memory_bytes


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------
def tape_significand(key) -> float:
    """The walk workload of a BPPR tape key on a linear engine: (kind,
    params, (alpha, max_rounds, "significand", significand))."""
    kind, params, (alpha, max_rounds, scaled, significand) = key
    assert scaled == "significand"
    return significand


class TestCountGuard:
    def test_equal_batches_execute_once(self, advances, graph, cluster):
        single = bppr_job("pregel+", graph, cluster, [8.0])
        rounds = single.num_rounds
        assert len(advances) == rounds
        del advances[:]
        clear_cache()
        job = bppr_job("pregel+", graph, cluster, [8.0] * 16)
        assert job.num_rounds == 16 * rounds
        assert len(advances) == rounds

    def test_two_sizes_execute_twice(self, advances, graph, cluster):
        """33 and 32 differ in significand (33 / 64 and 1 / 2), so each
        walk runs as far as its own batches go."""
        job = bppr_job("pregel+", graph, cluster, CASES["w130-b4"])
        by_walk = {math.frexp(33.0)[0]: 0, math.frexp(32.0)[0]: 0}
        for workload in advances:
            by_walk[workload] += 1
        assert by_walk[33.0 / 64.0] == len(job.batches[0].rounds)
        assert by_walk[0.5] == len(job.batches[2].rounds)
        assert job.num_rounds == 2 * len(advances)

    def test_one_significand_executes_once(self, advances, graph, cluster):
        """A fig3-style sweep — W = 128 as b batches of 128 / b — reads
        one walk at five scales, and advances it only as far as the
        largest scale's batch runs, whatever order the sizes come in."""
        engine = create_engine("pregel+", cluster)
        task = bppr_task(graph, 128.0)
        jobs = {}
        for batches in (4, 16, 1, 2, 8):
            size = 128.0 / batches
            jobs[batches] = engine.run_job(task, [size] * batches, seed=SEED)
            clear_cache()  # the artifact cache would memo the whole job
        assert set(advances) == {0.5}
        assert len(advances) == len(jobs[1].batches[0].rounds)
        # A smaller scale stops earlier: its mass falls below one walk
        # sooner, on the same walk.
        rounds = [len(jobs[b].batches[0].rounds) for b in (1, 2, 4, 8, 16)]
        assert rounds == sorted(rounds, reverse=True) and rounds[0] > rounds[-1]
        for batches in (1, 4, 16):
            digest = job_digest(jobs[batches])
            assert digest == PINNED_JOBS[f"pregel+/w128-b{batches}"]

    def test_replayed_rounds_are_reported(self, graph, cluster):
        timings.reset()
        job = bppr_job("pregel+", graph, cluster, [8.0] * 4)
        replayed = timings.snapshot()["kernel.replayed"]["count"]
        assert replayed == 3 * len(job.batches[0].rounds)

    def test_engine_keeps_a_bounded_number_of_tapes(
        self, tiny_graph, small_cluster
    ):
        # Odd sizes: every one has a significand of its own.
        sizes = [float(2 * i + 1) for i in range(MAX_ENGINE_TAPES + 68)]
        engine = create_engine("pregel+", small_cluster)
        session = EngineSession(
            engine, bppr_task(tiny_graph, sum(sizes)), seed=SEED,
            cutoff_seconds=None,
        )
        for size in sizes:
            session.run_batch(size)
        tapes = session.prep.tapes
        assert len(tapes) == MAX_ENGINE_TAPES
        # Least recently used goes first: the survivors are the newest.
        assert [tape_significand(key) for key in tapes] == [
            math.frexp(size)[0] for size in sizes[68:]
        ]
        # A hit at another scale of a surviving walk refreshes it.
        session.run_batch(2.0 * sizes[68])
        assert tape_significand(list(tapes)[-1]) == math.frexp(sizes[68])[0]
        assert len(tapes) == MAX_ENGINE_TAPES

    def test_finished_tape_holds_no_kernel(self, graph, cluster):
        """A walk that reaches ``max_rounds`` drops its kernel, and so
        does every batch kernel the tape was keyed from."""
        kernels = []
        task = bppr_task(graph, 24.0, max_rounds=6)
        factory = task.kernel_factory

        def remembering(*args):
            kernel = factory(*args)
            kernels.append(weakref.ref(kernel))
            return kernel

        task = dataclasses.replace(task, kernel_factory=remembering)
        engine = create_engine("pregel+", cluster)
        session = EngineSession(engine, task, seed=SEED)
        batches = [session.run_batch(size) for size in (8.0, 16.0, 8.0)]
        gc.collect()
        assert len(kernels) == 3
        assert all(ref() is None for ref in kernels)
        assert [len(b.rounds) for b in batches] == [6, 6, 6]
        (tape,) = session.prep.tapes.values()
        assert tape.walk.kernel is None and tape.walk.recorded == 6
        assert all(view[-1][0].done for view in tape.views.values())

    def test_walk_outlives_a_finished_scale(self, graph, cluster):
        """Below ``max_rounds`` a finished scale keeps the kernel: a
        larger scale of the walk runs longer and goes on with it."""
        engine = create_engine("pregel+", cluster)
        session = EngineSession(engine, bppr_task(graph, 24.0), seed=SEED)
        small = session.run_batch(8.0)
        (tape,) = session.prep.tapes.values()
        walk = tape.walk
        assert walk.kernel is not None
        assert walk.kernel.round_index == len(small.rounds)
        large = session.run_batch(16.0)
        assert len(large.rounds) > len(small.rounds)
        assert walk.kernel.round_index == walk.recorded == len(large.rounds)
