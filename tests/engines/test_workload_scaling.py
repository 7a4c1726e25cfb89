"""Metamorphic tests of the round–congestion tradeoff (PAPER.md §1):
doubling a BPPR batch's workload doubles its traffic, and cutting a
workload into more batches never raises its per-round peak.

The expected-mass walk is linear in the walks per vertex ``W``: every
vertex's mass at every round scales with ``W``, and ``W`` and ``2W``
differ by a power of two, so every product and quotient of the round
scales exactly and every sum of scaled terms is the scaled sum. A
point-to-point engine that neither combines nor broadcasts therefore
sends, in every round both runs reach, exactly twice the network and
the local messages (the ``2W`` run may last longer: its mass falls below
the one-walk floor later). Combining (GraphLab sync) merges walks that
share a source and a next hop, and a broadcast block (Pregel+ mirror)
carries at most one entry per distinct source, so on those engines
twice the walks is at most twice the messages.
"""

from __future__ import annotations

import pytest

from repro.batching.schemes import equal_batches
from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import create_engine
from repro.graph.datasets import load_dataset
from repro.graph.generators import chung_lu
from repro.perf.cache import clear_cache
from repro.tasks.bppr import bppr_task

SCALE = 400
SEED = 7
WORKLOADS = (24.0, 48.0, 96.0)

#: Neither combining nor broadcast: per-round traffic is linear in W.
LINEAR_ENGINES = (
    "pregel+",
    "giraph",
    "giraph(async)",
    "giraph(split)",
    "graphd",
    "graphlab(async)",
    "pregel+(wholegraph)",
)

#: Combining or broadcast: doubling W at most doubles the traffic.
SUBLINEAR_ENGINES = ("graphlab", "pregel+(mirror)")


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


def round_traffic(engine_name, graph, cluster, workload):
    """(network, local) messages of every round of a one-batch run."""
    engine = create_engine(engine_name, cluster)
    job = engine.run_job(bppr_task(graph, workload), [workload], seed=SEED)
    assert not job.overloaded
    (batch,) = job.batches
    return [(r.network_messages, r.local_messages) for r in batch.rounds]


def doubled_pairs(engine_name, graph, cluster):
    """Per round both runs reach: the W run's traffic beside the 2W
    run's, for W and 2W consecutive in :data:`WORKLOADS`."""
    runs = [round_traffic(engine_name, graph, cluster, w) for w in WORKLOADS]
    for single, double in zip(runs, runs[1:]):
        assert len(single) > 1
        yield list(zip(single, double))


@pytest.mark.parametrize("engine_name", LINEAR_ENGINES)
def test_twice_the_walks_twice_the_messages(engine_name, graph, cluster):
    for pairs in doubled_pairs(engine_name, graph, cluster):
        for (network, local), (network2, local2) in pairs:
            assert network2 == 2.0 * network
            assert local2 == 2.0 * local


@pytest.mark.parametrize("engine_name", SUBLINEAR_ENGINES)
def test_combining_and_broadcast_at_most_double(engine_name, graph, cluster):
    below = False
    for pairs in doubled_pairs(engine_name, graph, cluster):
        for (network, local), (network2, local2) in pairs:
            assert network2 <= 2.0 * network
            assert local2 <= 2.0 * local
            below = below or network2 < 2.0 * network
    # Not vacuous: the saving shows somewhere.
    assert below


#: Equal splits of one workload, coarsest first.
BATCH_COUNTS = (1, 2, 4, 8)
SPLIT_WORKLOAD = 64.0
GRAPH_SEEDS = (1, 2, 3)


def split_peaks(engine_name, graph, cluster, batches):
    """(per-round peak of network + local messages, job peak memory) of
    ``SPLIT_WORKLOAD`` run as ``batches`` equal batches."""
    engine = create_engine(engine_name, cluster)
    job = engine.run_job(
        bppr_task(graph, SPLIT_WORKLOAD),
        equal_batches(SPLIT_WORKLOAD, batches),
        seed=SEED,
    )
    assert not job.overloaded
    peak_messages = max(
        r.network_messages + r.local_messages
        for batch in job.batches
        for r in batch.rounds
    )
    return peak_messages, job.peak_memory_bytes


@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
@pytest.mark.parametrize("engine_name", LINEAR_ENGINES + SUBLINEAR_ENGINES)
def test_more_batches_never_raise_the_peak(engine_name, graph_seed, cluster):
    """The tradeoff's congestion side: a BPPR workload cut into ``b``
    equal batches peaks no higher, in messages per round or in memory,
    than the same workload in fewer batches: a batch of ``W / b`` walks
    per vertex carries a ``1 / b`` share of the walks.

    MSSP and BKHS are left out. Each of their batches draws its own
    sources from the session RNG, so two splits of one workload run
    different sources and compare different work. The property holds on
    these draws at ``W = 64``, but nothing makes it hold: at ``W = 24``,
    BKHS on pregel+ over graph seed 2 peaks ×1.14 higher in 8 batches
    than in 4."""
    graph = chung_lu(300, 6.0, seed=graph_seed)
    peaks = [
        split_peaks(engine_name, graph, cluster, batches)
        for batches in BATCH_COUNTS
    ]
    for b, (coarse, fine) in zip(BATCH_COUNTS[1:], zip(peaks, peaks[1:])):
        assert fine[0] <= coarse[0], (b, "messages", coarse, fine)
        assert fine[1] <= coarse[1], (b, "memory", coarse, fine)
