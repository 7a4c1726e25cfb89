"""Metamorphic test of the round–congestion tradeoff's linear side
(PAPER.md §1): doubling a BPPR batch's workload doubles its traffic.

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

from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import create_engine
from repro.graph.datasets import load_dataset
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
