"""The artifact store's run archive (DESIGN.md 10.3).

``JOB_SERIALIZER`` keeps a run as a small JSON header and one typed
block of rounds. The block is exact: the response rendered from an
archived job is the response rendered from the job itself,

    pack_job(unpack_job(JOB_SERIALIZER.pack(job))) == pack_job(job),

for every value a round field of its declared type can hold. A round
field of any other type is refused, and a payload that is not a run
archive is refused with ``ValueError`` — what the store quarantines.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import ENGINE_NAMES, create_engine
from repro.faults.plan import FaultPlan
from repro.graph.datasets import load_dataset
from repro.perf.cache import clear_cache
from repro.sim.metrics import (
    JOB_SERIALIZER,
    BatchMetrics,
    JobMetrics,
    RoundMetrics,
    pack_job,
    unpack_job,
)
from repro.tasks.base import make_task

SCALE = 400
SEED = 7


def packed(job: JobMetrics) -> bytes:
    return pack_job(job)["payload"].tobytes()


def assert_exact(job: JobMetrics) -> None:
    # NaN never equals itself, so the round trip is compared as rendered
    # bytes.
    archive = JOB_SERIALIZER.pack(job)
    assert list(archive) == ["payload"]
    assert packed(unpack_job(archive)) == packed(job)


# ----------------------------------------------------------------------
# Hypothesis-built jobs
# ----------------------------------------------------------------------
INDICES = st.one_of(
    st.sampled_from([0, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1]),
    st.integers(-(2**63), 2**63 - 1),
)
FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
         2.2250738585072014e-308 / 3, 1.7976931348623157e308, 0.1]
    ),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
ROUNDS = st.builds(
    RoundMetrics,
    INDICES,
    *[FLOATS] * (len(RoundMetrics._fields) - 2),
    st.booleans(),
)
TEXT = st.text(max_size=8)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), FLOATS, TEXT
)


@st.composite
def jobs(draw):
    batches = [
        BatchMetrics(
            batch_index=index,
            workload=draw(FLOATS),
            rounds=rounds,
            overloaded=draw(st.booleans()),
            overload_reason=draw(st.none() | TEXT),
            residual_memory_bytes=draw(FLOATS),
            checkpoints_written=draw(st.integers(0, 9)),
            crashes=draw(st.integers(0, 9)),
            replay_seconds=draw(FLOATS),
            aborted=draw(st.booleans()),
            fault_log=draw(st.lists(TEXT, max_size=2)),
        )
        for index, rounds in enumerate(
            draw(st.lists(st.lists(ROUNDS, max_size=5), max_size=4))
        )
    ]
    return JobMetrics(
        engine=draw(TEXT),
        task="bppr",
        dataset="déjà-vu 图",
        cluster="galaxy-8",
        num_machines=draw(st.integers(1, 64)),
        total_workload=draw(FLOATS),
        batch_sizes=[b.workload for b in batches],
        batches=batches,
        aggregation_seconds=draw(FLOATS),
        extras=draw(st.dictionaries(TEXT, SCALARS, max_size=3)),
        retry_history=draw(
            st.lists(st.dictionaries(TEXT, SCALARS, max_size=3), max_size=2)
        ),
    )


@settings(max_examples=200, deadline=None)
@given(jobs())
def test_an_archived_job_renders_as_the_job(job):
    assert_exact(job)


def _round(**fields) -> RoundMetrics:
    base = dict(
        round_index=3,
        network_messages=12.0,
        local_messages=3.0,
        bottleneck_bytes=96.0,
        compute_ops=40.0,
        peak_memory_bytes=1.5e6,
    )
    return RoundMetrics(**{**base, **fields})


def _job(*batches) -> JobMetrics:
    return JobMetrics(
        "e", "t", "d", "c", 8, 1.0, [1.0] * len(batches),
        [
            BatchMetrics(batch_index=i, workload=1.0, rounds=list(rounds))
            for i, rounds in enumerate(batches)
        ],
    )


def test_empty_jobs_and_batches():
    assert_exact(_job())
    assert_exact(_job([], [_round()], []))


def test_values_are_bit_exact():
    twins = [_round(seconds=-0.0), _round(seconds=0.0)]
    rebuilt = unpack_job(JOB_SERIALIZER.pack(_job(twins)))
    seconds = [r.seconds for r in rebuilt.batches[0].rounds]
    assert [math.copysign(1.0, s) for s in seconds] == [-1.0, 1.0]
    big = _round(round_index=2**53 + 1, network_saturated=True)
    [[back]] = [b.rounds for b in unpack_job(
        JOB_SERIALIZER.pack(_job([big]))
    ).batches]
    assert back == big
    assert [type(v) for v in back] == [type(v) for v in big]


class Seconds(float):
    """A float subclass: equal to a float, and not one."""


@pytest.mark.parametrize(
    "name,value",
    [
        ("seconds", 0),
        ("seconds", np.float64(1.0)),
        ("seconds", Seconds(1.0)),
        ("seconds", True),
        ("peak_memory_bytes", 7),
        ("round_index", 1.0),
        ("round_index", True),
        ("round_index", np.int64(1)),
        ("network_saturated", 0),
        ("network_saturated", np.bool_(True)),
    ],
)
def test_a_field_not_of_its_declared_type_is_refused(name, value):
    job = _job([_round(), _round(**{name: value})])
    with pytest.raises(TypeError, match=name):
        JOB_SERIALIZER.pack(job)


# ----------------------------------------------------------------------
# Payloads that are not run archives
# ----------------------------------------------------------------------
def _payload(job: JobMetrics) -> bytes:
    return JOB_SERIALIZER.pack(job)["payload"].tobytes()


def _split(data: bytes):
    """(tag, header, block) of an archive payload."""
    tag = data[: data.index(b"\n") + 1]
    at = len(tag) + 8
    end = at + int.from_bytes(data[len(tag):at], "little")
    return tag, json.loads(data[at:end]), data[end:]


def _join(tag: bytes, header, block: bytes) -> bytes:
    text = json.dumps(header).encode()
    return tag + len(text).to_bytes(8, "little") + text + block


def _refused(data: bytes) -> None:
    with pytest.raises(ValueError):
        unpack_job({"payload": np.frombuffer(data, np.uint8)})


def test_a_json_response_is_not_an_archive():
    _refused(packed(_job([_round()])))


def test_a_truncated_block_is_refused():
    data = _payload(_job([_round(), _round()]))
    for cut in (1, 8, 121):
        _refused(data[:-cut])
    _refused(data[:10])


def test_round_counts_that_disagree_with_the_block_are_refused():
    tag, header, block = _split(_payload(_job([_round()], [_round()])))
    header["batches"][1]["rounds"] = 2
    _refused(_join(tag, header, block))
    header["batches"][1]["rounds"] = 0
    _refused(_join(tag, header, block))


@pytest.mark.parametrize(
    "damage",
    [
        lambda h: h["batches"][0].update(rounds=-1),
        lambda h: h["batches"][0].update(rounds=True),
        lambda h: h["batches"][0].update(rounds=None),
        lambda h: h["batches"][0].pop("rounds"),
        lambda h: h["batches"][0].update(stray=1),
        lambda h: h.pop("batches"),
        lambda h: h.update(stray=1),
        lambda h: h.update(batches=7),
    ],
)
def test_a_malformed_header_is_refused(damage):
    tag, header, block = _split(_payload(_job([_round()])))
    damage(header)
    _refused(_join(tag, header, block))


def test_a_header_that_is_not_an_object_is_refused():
    tag, _, block = _split(_payload(_job([_round()])))
    _refused(_join(tag, [], block))
    data = _payload(_job([_round()]))
    _refused(data.replace(b'{"engine"', b'{"engine', 1))


def test_a_flag_byte_that_is_not_a_bool_is_refused():
    data = bytearray(_payload(_job([_round(network_saturated=True)])))
    assert data[-1] == 1
    data[-1] = 2
    _refused(bytes(data))


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


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize(
    "kind,workload", [("bppr", 64.0), ("mssp", 8.0), ("bkhs", 32.0)]
)
def test_engine_jobs_are_exact(graph, cluster, engine_name, kind, workload):
    assert len(ENGINE_NAMES) == 9
    engine = create_engine(engine_name, cluster)
    task = make_task(kind, graph, workload)
    job = engine.run_job(task, [workload / 2] * 2, seed=SEED)
    assert job.num_rounds > 0
    assert_exact(job)


def test_a_faulted_checkpointed_job_is_exact(graph, cluster):
    plan = FaultPlan.generate(
        SEED, cluster.num_machines, crash_rate=0.15, straggler_rate=0.1,
        message_loss_rate=0.1, disk_full_rate=0.1,
    )
    engine = create_engine("pregel+", cluster)
    job = engine.run_job(
        make_task("bppr", graph, 256.0), [128.0, 128.0], seed=SEED,
        fault_plan=plan, checkpoint_every=3,
    )
    assert job.crashes > 0 and job.checkpoints_written > 0
    assert any(b.fault_log for b in job.batches)
    assert_exact(job)


def test_an_overloaded_job_is_exact(graph, cluster):
    engine = create_engine("pregel+", cluster)
    job = engine.run_job(
        make_task("bppr", graph, 200000.0), [200000.0], seed=SEED
    )
    assert job.overloaded
    assert_exact(job)
