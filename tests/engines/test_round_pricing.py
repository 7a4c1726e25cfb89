"""Two-stage round pricing (DESIGN.md §10.2): stage 1 records what a
round *demands*, stage 2 prices where it *lands* in memory.

Four kinds of guard:

* **pinned bytes** — packed jobs on the paths ``test_round_tape.py``
  does not reach (live kernels; one tape replayed onto different
  residuals), against digests taken at commit ``6a34aa0``, the last one
  that priced every round from scratch.
* **counts** — how often each stage runs, which no host is too noisy
  to measure.
* **property** — stage 2 over a reused stage-1 record equals both
  stages run afresh, field by field, for any summary and residual.
* **bounded history** — a session's cost model keeps O(1) state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import cluster_by_name
from repro.engines.base import (
    AGGREGATED_ENDPOINTS_PER_VERTEX,
    EngineSession,
)
from repro.engines.registry import ENGINE_NAMES, create_engine
from repro.graph.datasets import load_dataset
from repro.messages.routing import RoutedMessages
from repro.perf.cache import clear_cache
from repro.sim.cost import CostModel
from repro.sim.metrics import JobMetrics
from repro.tasks.base import RoundSummary, make_task
from repro.tasks.bppr import bppr_task
from tests.engines.test_round_tape import job_digest, session_job, sole_view

SCALE = 4000
SEED = 7

#: blake2b-8 of ``pack_job(job)["payload"]`` at commit 6a34aa0: MSSP and
#: BKHS (no replay key, so every round runs both stages live), 16
#: sources as one batch and as four.
PINNED_LIVE = {
    "pregel+/mssp-b1": "786d3fdb0ea06dd2",
    "pregel+/mssp-b4": "fb4a552172d23ee0",
    "pregel+/bkhs-b1": "715e74ebb5d15b10",
    "pregel+/bkhs-b4": "636794cc8a8ae7c8",
    "pregel+(mirror)/mssp-b1": "3e7d5a1a187697d5",
    "pregel+(mirror)/mssp-b4": "897d7c4737cc17d6",
    "pregel+(mirror)/bkhs-b1": "5dd5efcc9046235d",
    "pregel+(mirror)/bkhs-b4": "6a52b888e5137a35",
    "giraph/mssp-b1": "89e00bd5dd735b14",
    "giraph/mssp-b4": "9148690b611511cb",
    "giraph/bkhs-b1": "4bb758545b8fc055",
    "giraph/bkhs-b4": "1b878fc7dabb5adb",
    "giraph(async)/mssp-b1": "220d55b5e197513d",
    "giraph(async)/mssp-b4": "8dd6135fb5d90355",
    "giraph(async)/bkhs-b1": "969e957a803ffc80",
    "giraph(async)/bkhs-b4": "ba76433293e9aacf",
    "giraph(split)/mssp-b1": "a5e9daf89aa96cfb",
    "giraph(split)/mssp-b4": "a567f962ea23f60e",
    "giraph(split)/bkhs-b1": "95c4c4564fe907a7",
    "giraph(split)/bkhs-b4": "95dc9c9889725c4f",
    "graphd/mssp-b1": "bf32cd11abb468cc",
    "graphd/mssp-b4": "a7633a0204324bf2",
    "graphd/bkhs-b1": "c10b27eeff208060",
    "graphd/bkhs-b4": "ecb9ec922e04ecf8",
    "graphlab/mssp-b1": "c8e9929a6568f21d",
    "graphlab/mssp-b4": "0db5dfab6bb008a9",
    "graphlab/bkhs-b1": "f376728c8e457962",
    "graphlab/bkhs-b4": "05bed91f251bfd6f",
    "graphlab(async)/mssp-b1": "39328a5b98a64623",
    "graphlab(async)/mssp-b4": "fc5f1750928574d0",
    "graphlab(async)/bkhs-b1": "818ab99124f08c99",
    "graphlab(async)/bkhs-b4": "75d56fa81ba1ed9c",
    "pregel+(wholegraph)/mssp-b1": "145c447f251f98ec",
    "pregel+(wholegraph)/mssp-b4": "5593a6670c94aaf0",
    "pregel+(wholegraph)/bkhs-b1": "f275df5d1feea4ed",
    "pregel+(wholegraph)/bkhs-b4": "362ffc9efe1196e6",
}

#: same digest, same commit: equal BPPR batches of one session, so one
#: tape, each replay landing on more residual than the one before.
PINNED_LANDINGS = {
    "pregel+": "fa1e219d80cc0193",
    "graphd": "b535344c6a9168a7",
    "giraph(split)": "a543af815e4771e0",
}

#: ``cost_model.overuse_totals()`` after the ≥ 200-round sessions of
#: :func:`long_session`, same commit.
PINNED_OVERUSE = {
    "pregel+": {
        "network_overuse_seconds": 5.835795711109956,
        "io_overuse_seconds": 0.0,
    },
    "graphd": {
        "network_overuse_seconds": 5.835795711109956,
        "io_overuse_seconds": 38.84800316966235,
    },
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


def landed_digest(session: EngineSession, batches) -> str:
    """Digest of hand-driven batches plus the session's overuse totals:
    a replayed round must still book its network and disk usage."""
    job = session_job(session, batches)
    job.extras.update(session.cost_model.overuse_totals())
    return job_digest(job)


# ----------------------------------------------------------------------
# Scenarios (also run against 6a34aa0 to pin the digests)
# ----------------------------------------------------------------------
def live_job(engine_name, kind, graph, cluster, batches) -> JobMetrics:
    engine = create_engine(engine_name, cluster)
    sizes = [16.0 / batches] * batches
    return engine.run_job(make_task(kind, graph, 16.0), sizes, seed=SEED)


def landing_session(engine_name, graph, cluster, workload, start_fraction):
    """Equal BPPR batches on one session — one tape — until one
    overloads (at most eight). The session starts with
    ``start_fraction`` of every machine's usable memory already
    residual and no time cutoff, so each replay lands higher than the
    last and only memory can end the run."""
    usable = cluster.scaled_machine.usable_memory_bytes
    session = EngineSession(
        create_engine(engine_name, cluster),
        bppr_task(graph, 8 * workload),
        seed=SEED,
        initial_residual_bytes=start_fraction * usable * cluster.num_machines,
        cutoff_seconds=None,
    )
    batches = []
    while len(batches) < 8 and not (batches and batches[-1].overloaded):
        batches.append(session.run_batch(workload))
    return session, batches


def memory_states(batches):
    """The memory regimes the batches' rounds were priced in."""
    states = set()
    for batch in batches:
        for r in batch.rounds:
            states.add("ok" if r.thrash_multiplier == 1.0 else "thrashing")
        if batch.overloaded:
            assert batch.overload_reason == "memory"
            states.add("overloaded")
    return states


def long_session(engine_name, graph, cluster) -> EngineSession:
    """Five equal BPPR batches: one executed, four replayed."""
    session = EngineSession(
        create_engine(engine_name, cluster), bppr_task(graph, 1280.0), seed=SEED
    )
    for _ in range(5):
        session.run_batch(256.0)
    return session


# ----------------------------------------------------------------------
# Pinned bytes
# ----------------------------------------------------------------------
class TestLivePath:
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_every_engine_prices_live_kernels_as_before(
        self, engine_name, graph, cluster
    ):
        for kind in ("mssp", "bkhs"):
            for batches in (1, 4):
                job = live_job(engine_name, kind, graph, cluster, batches)
                assert not job.overloaded
                case = f"{engine_name}/{kind}-b{batches}"
                assert job_digest(job) == PINNED_LIVE[case], case


class TestSameDemandDifferentLanding:
    def test_one_tape_lands_ok_then_thrashing_then_overloaded(
        self, graph, cluster
    ):
        session, batches = landing_session("pregel+", graph, cluster, 4096.0, 0.4)
        assert len(batches) > 2
        assert len(sole_view(session)) == len(batches[0].rounds)
        assert memory_states(batches[:1]) == {"ok"}
        assert batches[-1].overloaded and len(batches[-1].rounds) == 1
        # The same recorded round, priced higher on every replay.
        first = batches[0].rounds
        heaviest = max(first, key=lambda r: r.peak_memory_bytes).round_index
        multipliers = [
            b.rounds[heaviest].thrash_multiplier for b in batches[:-1]
        ]
        assert multipliers[0] == 1.0
        assert multipliers == sorted(set(multipliers))
        digest = landed_digest(session, batches)
        assert digest == PINNED_LANDINGS["pregel+"]

    def test_capped_engine_lands_the_same_everywhere(self, graph, cluster):
        session, batches = landing_session("graphd", graph, cluster, 4096.0, 0.4)
        assert len(batches) == 8 and memory_states(batches) == {"ok"}
        first = batches[0]
        # Spilling, saturated — and blind to the residual piling up.
        assert max(r.disk_utilization for r in first.rounds) > 1.0
        assert batches[-1].residual_memory_bytes > first.residual_memory_bytes
        for batch in batches[1:]:
            assert batch.rounds == first.rounds
        digest = landed_digest(session, batches)
        assert digest == PINNED_LANDINGS["graphd"]

    def test_split_rounds_replay_with_their_splits(self, graph):
        # Ten times the memory of the other scenarios: a round over the
        # split threshold fits only there.
        roomy = cluster_by_name("galaxy-8", scale=SCALE // 10)
        session, batches = landing_session(
            "giraph(split)", graph, roomy, 16384.0, 0.5
        )
        assert any(demand.load.splits > 1 for _, _, demand in sole_view(session))
        assert memory_states(batches) == {"ok", "thrashing", "overloaded"}
        digest = landed_digest(session, batches)
        assert digest == PINNED_LANDINGS["giraph(split)"]


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------
@pytest.fixture
def stage_calls(monkeypatch):
    """Count stage-1 runs and ``CostModel.round_cost`` calls."""
    calls = {"demand": 0, "round_cost": 0}
    demand, round_cost = EngineSession._demand, CostModel.round_cost

    def counting_demand(session, summary):
        calls["demand"] += 1
        return demand(session, summary)

    def counting_round_cost(model, *args, **kwargs):
        calls["round_cost"] += 1
        return round_cost(model, *args, **kwargs)

    monkeypatch.setattr(EngineSession, "_demand", counting_demand)
    monkeypatch.setattr(CostModel, "round_cost", counting_round_cost)
    return calls


class TestCountGuard:
    def test_replayed_rounds_run_stage_two_only(
        self, stage_calls, graph, cluster
    ):
        session = EngineSession(
            create_engine("pregel+", cluster), bppr_task(graph, 128.0), seed=SEED
        )
        batches = [session.run_batch(8.0) for _ in range(16)]
        recorded = len(sole_view(session))
        priced = sum(len(b.rounds) for b in batches)
        assert priced == 16 * recorded
        assert stage_calls == {"demand": recorded, "round_cost": priced}

    def test_each_scale_runs_stage_one_once(self, stage_calls, graph, cluster):
        """One walk read at three scales: stage 1 prices each scale's
        rounds once (they differ in traffic), replays price nothing."""
        session = EngineSession(
            create_engine("pregel+", cluster), bppr_task(graph, 128.0), seed=SEED
        )
        batches = [session.run_batch(size) for size in (8.0, 32.0, 8.0, 32.0)]
        (tape,) = session.prep.tapes.values()
        assert sorted(tape.views) == [4, 6]
        priced = sum(len(b.rounds) for b in batches)
        assert stage_calls == {
            "demand": len(tape.views[4]) + len(tape.views[6]),
            "round_cost": priced,
        }

    def test_live_rounds_run_both_stages(self, stage_calls, graph, cluster):
        job = live_job("pregel+", "mssp", graph, cluster, 4)
        assert job.num_rounds > 4
        assert stage_calls == {
            "demand": job.num_rounds, "round_cost": job.num_rounds,
        }


# ----------------------------------------------------------------------
# Property
# ----------------------------------------------------------------------
counts = st.floats(min_value=0.0, max_value=1e9)
summaries = st.builds(
    RoundSummary,
    routed=st.builds(RoutedMessages, counts, counts, counts),
    compute_ops=counts,
    task_state_bytes=st.floats(min_value=0.0, max_value=1e8),
    active_vertices=st.floats(min_value=0.0, max_value=1e6),
    done=st.booleans(),
    combined_messages=st.none() | counts,
)
residuals = st.lists(
    st.floats(min_value=0.0, max_value=1e8), min_size=1, max_size=4
)


@pytest.fixture(scope="module")
def sessions(graph, cluster):
    """engine name -> (session that keeps its stage-1 records, session
    that prices every round from scratch)."""
    def pair(name):
        engine = create_engine(name, cluster)
        task = bppr_task(graph, 64.0)
        return (
            EngineSession(engine, task, seed=SEED),
            EngineSession(engine, task, seed=SEED),
        )

    return {name: pair(name) for name in ENGINE_NAMES}


class TestStagesCompose:
    @given(
        engine_name=st.sampled_from(ENGINE_NAMES),
        summary=summaries,
        landings=residuals,
    )
    @settings(max_examples=150, deadline=None)
    def test_reused_demand_equals_fresh_pricing(
        self, sessions, engine_name, summary, landings
    ):
        reusing, fresh = sessions[engine_name]
        demand = reusing._demand(summary)
        for index, residual in enumerate(landings):
            metrics, overloaded = reusing._land(demand, index, residual)
            again, again_overloaded = fresh._land(
                fresh._demand(summary), index, residual
            )
            assert overloaded == again_overloaded
            for name, value in metrics._asdict().items():
                assert value == getattr(again, name), name
        assert (
            reusing.cost_model.overuse_totals()
            == fresh.cost_model.overuse_totals()
        )

    @given(
        engine_name=st.sampled_from(ENGINE_NAMES),
        summary=summaries,
        residual=st.floats(min_value=0.0, max_value=1e8),
    )
    @settings(max_examples=150, deadline=None)
    def test_landing_adds_the_residual_last(
        self, sessions, engine_name, summary, residual
    ):
        """Equation 1 as the breakdown sums it: graph, buffers, task
        state, then the residual — divided by the machine count before
        it is added."""
        session, _ = sessions[engine_name]
        profile = session.engine.profile
        demand = session._demand(summary)
        metrics, _ = session._land(demand, 0, residual)
        if profile.out_of_core:
            assert metrics.peak_memory_bytes == demand.load.peak_memory_bytes
            return
        if profile.aggregated_residual:
            residual = min(
                residual,
                session.task.graph.num_vertices
                * AGGREGATED_ENDPOINTS_PER_VERTEX
                * session.task.residual_record_bytes,
            )
        machines = session.engine.cluster.num_machines
        assert metrics.peak_memory_bytes == (
            demand.load.peak_memory_bytes + residual / machines
        )

    @given(engine_name=st.sampled_from(ENGINE_NAMES), summary=summaries)
    @settings(max_examples=100, deadline=None)
    def test_demand_ignores_where_the_session_stands(
        self, sessions, engine_name, summary
    ):
        session, other = sessions[engine_name]
        before = session._demand(summary)
        session.elapsed += 1234.5
        session.global_round += 99
        session.residual_bytes += 1e7
        assert session._demand(summary) == before == other._demand(summary)


# ----------------------------------------------------------------------
# Bounded history
# ----------------------------------------------------------------------
class TestBoundedHistory:
    @pytest.mark.parametrize("engine_name", ["pregel+", "graphd"])
    def test_long_session_keeps_constant_state(
        self, engine_name, graph, cluster
    ):
        session = long_session(engine_name, graph, cluster)
        assert session.global_round >= 200
        model = session.cost_model
        for part in (model.network_model, model.disk_model):
            if part is not None:
                assert not any(
                    isinstance(value, (list, tuple, dict, set))
                    for value in vars(part).values()
                ), vars(part)
        assert model.overuse_totals() == PINNED_OVERUSE[engine_name]
        model.reset()
        assert model.overuse_totals() == {
            "network_overuse_seconds": 0.0, "io_overuse_seconds": 0.0,
        }
