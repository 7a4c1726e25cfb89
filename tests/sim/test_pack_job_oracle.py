"""The byte contract of ``pack_job`` and what writing a result down
costs (DESIGN.md 10.3).

* **oracle** — the payload is ``json.dumps(dataclasses.asdict(job),
  default=_json_safe)``, each round rendered as its ``_asdict()``, byte
  for byte. That rendering lives only here:
  ``pack_job`` reaches the same bytes by encoding each distinct round
  record once and splicing the peak into the rest, so everything that
  could make the splice differ from the whole encode is thrown at it —
  non-finite, signed-zero, ``int``-valued and numpy-typed fields, values
  equal in Python and different in JSON, non-ASCII text, empty levels.
* **counts** — how many whole records ``pack_job`` encodes and how
  often the serving tier renders a response, which no host is too noisy
  to measure: one pack per distinct content key, and none — nor any job
  rebuilt — when a warm store answers.
"""

from __future__ import annotations

import dataclasses
import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import cluster_by_name
from repro.engines import base as engine_module
from repro.engines.registry import ENGINE_NAMES, create_engine
from repro.graph.datasets import load_dataset
from repro.perf.cache import (
    ArraySerializer,
    clear_cache,
    configure_cache,
    get_cache,
)
from repro.sched.arrivals import TaskRequest
from repro.sched.policy import ServicePolicy
from repro.sched.service import SchedulerService
from repro.sim import metrics as metrics_module
from repro.sim.metrics import (
    JOB_SERIALIZER,
    BatchMetrics,
    JobMetrics,
    RoundMetrics,
    _json_safe,
    pack_job,
    unpack_job,
)
from repro.tasks.base import make_task

SCALE = 400
SEED = 7


def oracle(job: JobMetrics) -> bytes:
    data = dataclasses.asdict(job)
    # ``asdict`` keeps a named tuple a tuple, which JSON would render as
    # an array: a round is rendered as the object of its fields.
    for batch in data["batches"]:
        batch["rounds"] = [r._asdict() for r in batch["rounds"]]
    return json.dumps(data, default=_json_safe).encode()


def packed(job: JobMetrics) -> bytes:
    return pack_job(job)["payload"].tobytes()


def assert_contract(job: JobMetrics) -> None:
    assert packed(job) == oracle(job)


# ----------------------------------------------------------------------
# Hypothesis-built jobs
# ----------------------------------------------------------------------
class Seconds(float):
    """A float subclass: ``marshal`` refuses it, JSON renders it."""


class Lane(enum.IntEnum):
    URGENT = 0


#: every way a metric value has been seen to arrive, and a few it must
#: survive: each group below is equal (and hash-equal) as Python values
#: and different as JSON.
SCALARS = st.one_of(
    st.sampled_from(
        [
            0, 0.0, -0.0, False, np.float64(0.0), np.int64(0), np.bool_(False),
            1, 1.0, True, np.float64(1.0), np.int64(1), np.bool_(True),
            float("nan"), float("inf"), float("-inf"), np.float64("nan"),
            3.0e9, 3_000_000_000, np.float32(0.1), 0.1, 1e-320, 1.7e308,
            Seconds(0.0), Seconds(0.1), Lane.URGENT,
        ]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
)
TEXT = st.text(max_size=12)  # full unicode: the encoder escapes it
ROUND_NAMES = list(RoundMetrics._fields)


@st.composite
def round_lists(draw):
    """Rounds drawn from a small pool, so one job holds twins (equal but
    for the peak), exact repeats, and near-twins one field apart."""
    pool = draw(
        st.lists(
            st.fixed_dictionaries({name: SCALARS for name in ROUND_NAMES}),
            min_size=1,
            max_size=3,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.none() | SCALARS),
            max_size=6,
        )
    )
    return [
        RoundMetrics(
            **{**fields, **({} if peak is None else {"peak_memory_bytes": peak})}
        )
        for fields, peak in picks
    ]


@st.composite
def jobs(draw):
    shapes = draw(st.lists(round_lists(), max_size=3))
    if shapes and draw(st.booleans()):
        shapes.append(shapes[0])  # an equal batch: every round a repeat
    batches = [
        BatchMetrics(
            batch_index=index,
            workload=draw(SCALARS),
            rounds=[r._replace() for r in rounds],
            overloaded=draw(st.booleans()),
            overload_reason=draw(st.none() | TEXT),
            residual_memory_bytes=draw(SCALARS),
            crashes=draw(SCALARS),
            fault_log=draw(st.lists(TEXT, max_size=3)),
        )
        for index, rounds in enumerate(shapes)
    ]
    return JobMetrics(
        engine=draw(TEXT),
        task="bppr",
        dataset="déjà-vu 图",
        cluster="galaxy-8",
        num_machines=draw(SCALARS),
        total_workload=draw(SCALARS),
        batch_sizes=[b.workload for b in batches],
        batches=batches,
        aggregation_seconds=draw(SCALARS),
        extras=draw(st.dictionaries(TEXT, SCALARS, max_size=3)),
        retry_history=draw(
            st.lists(
                st.dictionaries(
                    TEXT,
                    SCALARS | st.lists(SCALARS, max_size=2)
                    | st.dictionaries(TEXT, SCALARS, max_size=2),
                    max_size=3,
                ),
                max_size=2,
            )
        ),
    )


@settings(max_examples=150, deadline=None)
@given(jobs())
def test_payload_is_the_asdict_rendering(job):
    assert_contract(job)


def _round(**fields) -> RoundMetrics:
    base = dict(
        round_index=0,
        network_messages=12.0,
        local_messages=3.0,
        bottleneck_bytes=96.0,
        compute_ops=40.0,
        peak_memory_bytes=1.5e6,
    )
    return RoundMetrics(**{**base, **fields})


def _job(rounds) -> JobMetrics:
    batch = BatchMetrics(batch_index=0, workload=1.0, rounds=list(rounds))
    return JobMetrics("e", "t", "d", "c", 8, 1.0, [1.0], [batch])


@pytest.mark.parametrize("name", ["spilled_bytes", "round_index", "network_saturated"])
def test_equal_values_of_different_type_or_sign_render_apart(name):
    """``0 == 0.0 == -0.0 == False`` and all four hash alike: a memo
    keyed on field *values* would render the first one four times."""
    spellings = {0: "0", 0.0: "0.0", False: "false"}
    assert len(spellings) == 1  # the trap itself
    values = [0, 0.0, False, -0.0, np.float64(0.0), np.int64(0), Seconds(0.0)]
    job = _job(_round(**{name: v}, peak_memory_bytes=float(i)) for i, v in enumerate(values))
    assert_contract(job)
    text = packed(job).decode()
    for rendered in ("0", "0.0", "false", "-0.0"):
        assert f'"{name}": {rendered}' in text


@pytest.mark.parametrize(
    "peak",
    [float("nan"), float("inf"), float("-inf"), -0.0, 7, True, 1e22,
     np.float64(2.5), np.float32(2.5), np.int64(7), np.bool_(True)],
)
def test_a_peak_that_is_not_a_finite_float_is_still_exact(peak):
    twin = _round()
    job = _job([twin, _round(peak_memory_bytes=peak), twin._replace()])
    assert_contract(job)


def test_only_declared_fields_are_rendered():
    """A stray attribute on a batch is no part of the payload (it used
    to leak through ``vars(r)`` and break ``unpack_job``); a round takes
    none at all."""
    clean = _job([_round(), _round(round_index=1)])
    marked = _job([_round(), _round(round_index=1)])
    with pytest.raises(AttributeError):
        marked.batches[0].rounds[1].debug_note = "scratch"
    marked.batches[0].debug_note = "scratch"
    assert packed(marked) == packed(clean)
    assert_contract(clean)
    rebuilt = unpack_job(JOB_SERIALIZER.pack(marked))
    assert not hasattr(rebuilt.batches[0], "debug_note")


# ----------------------------------------------------------------------
# Real jobs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return load_dataset("web-st", scale=SCALE)


@pytest.fixture(scope="module")
def cluster():
    return cluster_by_name("galaxy-8", scale=SCALE)


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_cache()
    yield
    clear_cache()


def run(engine_name, graph, cluster, kind, workload, batches) -> JobMetrics:
    engine = create_engine(engine_name, cluster)
    task = make_task(kind, graph, workload)
    return engine.run_job(task, [workload / batches] * batches, seed=SEED)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize("batches", [1, 4, 16])
def test_bppr_jobs_meet_the_contract(graph, cluster, engine_name, batches):
    assert len(ENGINE_NAMES) == 9
    assert_contract(run(engine_name, graph, cluster, "bppr", 256.0, batches))


@pytest.mark.parametrize("kind,workload", [("mssp", 8.0), ("bkhs", 64.0)])
def test_traversal_jobs_meet_the_contract(graph, cluster, kind, workload):
    assert_contract(run("pregel+", graph, cluster, kind, workload, 4))


# ----------------------------------------------------------------------
# Count guards
# ----------------------------------------------------------------------
@pytest.fixture
def whole_encodes(monkeypatch):
    """Calls of the whole-record encode helper, by reference."""
    calls = []
    encode = metrics_module._encode_round

    def counted(r):
        calls.append(1)
        return encode(r)

    monkeypatch.setattr(metrics_module, "_encode_round", counted)
    return calls


@pytest.mark.parametrize("engine_name", ["pregel+", "graphd"])
def test_a_split_job_encodes_only_the_rounds_it_executed(
    graph, cluster, whole_encodes, engine_name
):
    """W = 1 040 in 16 equal batches: one batch executes, fifteen replay
    its tape, and a replayed round is its twin but for the peak —
    graphd's included, whose peak is capped in stage 1."""
    job = run(engine_name, graph, cluster, "bppr", 1040.0, 16)
    executed = job.batches[0].num_rounds
    assert job.num_rounds == 16 * executed == 992
    pack_job(job)
    assert 0 < len(whole_encodes) <= executed == 62


def test_an_unsplit_job_encodes_every_round_once(graph, cluster, whole_encodes):
    job = run("pregel+", graph, cluster, "bppr", 1040.0, 1)
    pack_job(job)
    assert len(whole_encodes) == job.num_rounds > 0


def make_service(graph, cluster, ttl: float) -> SchedulerService:
    return SchedulerService(
        create_engine("pregel+", cluster),
        graph,
        kinds=("bppr",),
        seed=9,
        policy=ServicePolicy(result_cache=True, result_ttl_seconds=ttl),
    )


class TestOneRenderedResponsePerContentKey:
    """Two bursts of the same 8 contents, further apart than the TTL:
    every second-burst request misses the result cache and is answered
    from the rendered bytes of the first."""

    UNITS = [float(u) for u in range(1, 9)]
    TTL = 50.0

    def requests(self):
        # The second burst arrives 1e6 simulated seconds later: long
        # after the first has finished and its entries have expired.
        return [
            TaskRequest(burst * 8 + i, "bppr", units, burst * 1.0e6)
            for burst in range(2)
            for i, units in enumerate(self.UNITS)
        ]

    def serve(self, graph, cluster, monkeypatch, forget: bool):
        clear_cache()
        packs = []
        monkeypatch.setattr(
            engine_module,
            "pack_job",
            lambda job: packs.append(1) or pack_job(job),
        )
        service = make_service(graph, cluster, self.TTL)
        if forget:
            render = service._result_payload

            def render_cold(request):
                clear_cache()
                return render(request)

            monkeypatch.setattr(service, "_result_payload", render_cold)
        metrics = service.run(self.requests())
        return service, metrics, len(packs)

    def test_second_burst_renders_nothing(self, graph, cluster, monkeypatch):
        service, metrics, packs = self.serve(graph, cluster, monkeypatch, False)
        assert metrics.result_cache["expirations"] == 8
        assert metrics.result_cache["hits"] == 0
        assert metrics.result_cache["stores"] == 16
        assert packs == 8

        cold, cold_metrics, cold_packs = self.serve(
            graph, cluster, monkeypatch, True
        )
        assert cold_packs == 16
        assert cold.responses == service.responses
        assert len(set(service.responses.values())) == 8
        assert cold_metrics.to_dict() == metrics.to_dict()


class TestPackedOnceThroughTheStore:
    """With a cache directory: a cold run packs each canonical job once
    — the bytes it answers with are the bytes it stores — and a warm
    store answers with the stored bytes, rebuilding no job."""

    UNITS = [float(u) for u in range(1, 9)]

    @pytest.fixture(autouse=True)
    def _restore_directory(self):
        cache = get_cache()
        directory = cache.directory
        yield
        cache.directory = directory
        clear_cache()

    def requests(self):
        return [
            TaskRequest(i, "bppr", units, 0.0)
            for i, units in enumerate(self.UNITS)
        ]

    def serve(self, graph, cluster, rendering=None):
        """Serve the eight requests; ``rendering`` (a list) holds an
        entry while a response is rendered."""
        clear_cache()
        service = make_service(graph, cluster, 50.0)
        if rendering is not None:
            render = service._result_payload

            def flagged(request):
                rendering.append(request)
                try:
                    return render(request)
                finally:
                    rendering.pop()

            service._result_payload = flagged
        metrics = service.run(self.requests())
        return service.responses, metrics.to_dict()

    def test_cold_store_packs_each_content_key_once(
        self, graph, cluster, monkeypatch, tmp_path
    ):
        # Packs made while a response renders: the response's own and
        # the store's (the service's probe training packs its jobs too).
        rendering, packs = [], []

        def counted(pack):
            def counting(job):
                if rendering:
                    packs.append(1)
                return pack(job)

            return counting

        monkeypatch.setattr(engine_module, "pack_job", counted(pack_job))
        serializer = engine_module.JOB_SERIALIZER
        monkeypatch.setattr(
            engine_module,
            "JOB_SERIALIZER",
            ArraySerializer(
                pack=counted(serializer.pack), unpack=serializer.unpack
            ),
        )
        configure_cache(directory=str(tmp_path))
        responses, _ = self.serve(graph, cluster, rendering)
        assert len(set(responses.values())) == len(self.UNITS)
        assert len(packs) == len(self.UNITS)
        # What was answered is what was stored, in response archives of
        # its own beside the run archives of the probe runs the service
        # trains its models on.
        stored = set()
        for path in tmp_path.glob("response-*.npz"):
            with np.load(path) as archive:
                stored.add(archive["payload"].tobytes())
        assert set(responses.values()) == stored

    def test_warm_store_answers_without_rebuilding_jobs(
        self, graph, cluster, monkeypatch, tmp_path
    ):
        configure_cache(directory=str(tmp_path))
        cold, cold_metrics = self.serve(graph, cluster)

        # The service's probe training reads its own archived jobs; a
        # response being rendered must not rebuild one.
        rendering = []

        def forbidden_while_rendering(original):
            def guarded(*args):
                if rendering:
                    raise AssertionError("a warm store rebuilt a job")
                return original(*args)

            return guarded

        for module in (engine_module, metrics_module):
            for name in ("pack_job", "unpack_job", "clone_job"):
                if hasattr(module, name):
                    original = getattr(module, name)
                    monkeypatch.setattr(
                        module, name, forbidden_while_rendering(original)
                    )
        serializer = engine_module.JOB_SERIALIZER
        monkeypatch.setattr(
            engine_module,
            "JOB_SERIALIZER",
            ArraySerializer(
                pack=forbidden_while_rendering(serializer.pack),
                unpack=forbidden_while_rendering(serializer.unpack),
            ),
        )
        hits = get_cache().stats.disk_hits
        warm, warm_metrics = self.serve(graph, cluster, rendering)
        assert get_cache().stats.disk_hits - hits >= len(self.UNITS)
        assert warm == cold
        assert warm_metrics == cold_metrics

    def test_the_stored_bytes_are_the_run_job_archive(
        self, graph, cluster, tmp_path
    ):
        """``run_canonical`` keeps its bytes in a ``response`` archive of
        their own: ``pack_job`` of ``run_job``'s one-batch run, which a
        ``run`` archive holds in the store's own format. A warm store
        answers from the response archive."""
        configure_cache(directory=str(tmp_path))
        task = make_task("bppr", graph, 8.0)
        payload = create_engine("pregel+", cluster).run_canonical(
            task, seed=SEED
        )
        [response] = tmp_path.glob("response-*.npz")
        assert not list(tmp_path.glob("run-*.npz"))
        with np.load(response) as archive:
            assert archive["payload"].tobytes() == payload
        job = create_engine("pregel+", cluster).run_job(
            task, [8.0], seed=SEED
        )
        assert packed(job) == payload
        assert len(list(tmp_path.glob("run-*.npz"))) == 1
        clear_cache()
        hits = get_cache().stats.disk_hits
        again = create_engine("pregel+", cluster).run_canonical(
            task, seed=SEED
        )
        assert get_cache().stats.disk_hits == hits + 1
        assert again == payload
