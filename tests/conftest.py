"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import galaxy8
from repro.graph.build import from_edge_list
from repro.graph.generators import chain, chung_lu, erdos_renyi, star
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import partition_graph
from repro.messages.routing import PointToPointRouter


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_graph():
    """A 6-vertex directed graph with known structure.

    0 -> 1, 2; 1 -> 2; 2 -> 3; 3 -> 4; 4 -> 5; 5 -> 0 (a cycle with a
    chord).
    """
    return from_edge_list(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        num_vertices=6,
        name="tiny",
    )


@pytest.fixture
def chain_graph():
    return chain(10, directed=False)


@pytest.fixture
def star_graph():
    return star(12, directed=False)


@pytest.fixture
def random_graph():
    return erdos_renyi(200, avg_degree=6.0, seed=7, name="er-200")


@pytest.fixture
def social_graph():
    """Power-law graph large enough to exercise partitions/mirrors."""
    return chung_lu(500, avg_degree=8.0, seed=11, name="cl-500")


@pytest.fixture
def small_cluster():
    return galaxy8(scale=400).with_machines(4)


@pytest.fixture
def router(tiny_graph):
    partition = partition_graph(tiny_graph, 2, "hash")
    plan = build_mirror_plan(tiny_graph, partition)
    return PointToPointRouter(tiny_graph, plan, message_bytes=8.0)
