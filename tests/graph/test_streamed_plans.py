"""Streamed mirror-plan and partition construction.

Partitions and mirror plans are built over CSR row blocks
(:func:`repro.graph.csr.row_blocks`): one block covering the graph
when it does not stream, blocks of the ``--max-ram`` budget when it
does, so a graph over the budget never materialises the O(m) per-arc
owner arrays. One body, so the contract holds by construction — and
is still asserted: every tally, replication factor and owner array of
a many-block pass must equal the one-block pass exactly, at any block
size, wherever the arrays live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import csr
from repro.graph.generators import chung_lu
from repro.graph.io import save_mapped
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import edge_partition, partition_graph
from repro.perf.cache import clear_cache

STRATEGIES = ("hash", "range", "edge-cut")


@pytest.fixture(autouse=True)
def _fresh_state():
    saved_min = csr.MIN_STREAM_BLOCK_ARCS
    clear_cache()
    yield
    csr.MIN_STREAM_BLOCK_ARCS = saved_min
    csr.configure_streaming(None)
    clear_cache()


@pytest.fixture()
def graphs(tmp_path):
    """The same graph twice: in RAM, its plans built before any budget
    is set (one block), and opened from disk under a budget of tiny
    blocks, so every plan pass streams multiple row blocks."""
    in_ram = chung_lu(600, 9.0, seed=42, name="plans")
    mapped = save_mapped(in_ram, tmp_path / "plans.csr")
    assert csr.streaming_block_arcs(in_ram) is None
    return in_ram, mapped


def stream(block_arcs: int = 256) -> None:
    """From here on every graph over ``block_arcs`` arcs streams."""
    csr.MIN_STREAM_BLOCK_ARCS = block_arcs
    csr.configure_streaming(max_ram_bytes=1)  # clamp to the floor


def assert_same_partition(a, b) -> None:
    assert a.owner.tobytes() == b.owner.tobytes()
    assert (
        a.vertices_per_machine.tobytes() == b.vertices_per_machine.tobytes()
    )
    assert a.arcs_per_machine.tobytes() == b.arcs_per_machine.tobytes()
    assert a.cut_arcs == b.cut_arcs
    assert a.replication_factor == b.replication_factor
    assert a.strategy == b.strategy


class TestStreamedPartitions:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mapped_matches_in_ram(self, graphs, strategy):
        in_ram, mapped = graphs
        for machines in (1, 4, 7):
            csr.configure_streaming(None)
            expected = partition_graph(in_ram, machines, strategy)
            clear_cache()  # the fingerprints match; force a rebuild
            stream()
            assert csr.streaming_block_arcs(mapped) == 256
            streamed = partition_graph(mapped, machines, strategy)
            assert_same_partition(expected, streamed)
            clear_cache()
            # Storage is no part of it: the resident graph streams too.
            assert_same_partition(
                expected, partition_graph(in_ram, machines, strategy)
            )

    def test_block_size_does_not_change_plans(self, graphs):
        _in_ram, mapped = graphs
        stream(256)
        small = edge_partition(mapped, 5)
        stream(1024)
        large = edge_partition(mapped, 5)
        assert_same_partition(small, large)


class TestStreamedMirrorPlans:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mapped_matches_in_ram(self, graphs, strategy):
        in_ram, mapped = graphs
        expected_part = partition_graph(in_ram, 4, strategy)
        expected = build_mirror_plan(in_ram, expected_part, 12)
        clear_cache()
        stream()
        streamed_part = partition_graph(mapped, 4, strategy)
        streamed = build_mirror_plan(mapped, streamed_part, 12)
        assert (
            expected.mirrored.tobytes() == streamed.mirrored.tobytes()
        )
        assert (
            expected.remote_machines.tobytes()
            == streamed.remote_machines.tobytes()
        )
        assert (
            expected.remote_neighbors.tobytes()
            == streamed.remote_neighbors.tobytes()
        )
        assert (
            expected.local_neighbors.tobytes()
            == streamed.local_neighbors.tobytes()
        )
        assert expected.num_mirrors == streamed.num_mirrors

    def test_isolated_vertices_counted(self, tmp_path):
        """Replication factor must count isolated vertices' master
        replicas in the streamed pass too."""
        from repro.graph.build import from_edges

        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 0], dtype=np.int64)
        in_ram = from_edges(src, dst, num_vertices=6, name="isolated")
        mapped = save_mapped(in_ram, tmp_path / "isolated.csr")
        expected = edge_partition(in_ram, 3)
        stream(1)
        streamed = edge_partition(mapped, 3)
        assert expected.replication_factor == streamed.replication_factor
