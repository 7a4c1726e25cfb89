"""Out-of-core pipeline tests: chunked build, CSR directories, graphs
opened from them and the block-streaming kernels.

The contract under test is *byte-identity*: the chunked generator, the
external-merge on-disk builder, and the streaming kernel rounds must
reproduce the in-RAM, one-block path bit for bit at every block size —
the out-of-core layer changes where bytes live and how many are in
flight, never what they are. Where a graph's arrays live and whether
its rounds stream are independent facts: the first is ``directory``,
the second is ``streaming_block_arcs`` (budget and size).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph import csr
from repro.graph.build import (
    build_csr_on_disk,
    choose_block_edges,
    from_edges,
)
from repro.graph.csr import (
    Graph,
    iter_frontier_blocks,
    iter_row_blocks,
    propagate_mass,
    segment_min,
    segment_min_streaming,
    segment_sum,
    segment_sum_streaming,
    streaming_block_arcs,
)
from repro.graph.datasets import PAPER_DATASETS, DatasetProfile
from repro.graph.generators import chung_lu, chung_lu_edge_blocks
from repro.graph.io import (
    NpyStreamWriter,
    fingerprint_csr_dir,
    is_csr_dir,
    open_mapped,
    read_edge_list,
    save_mapped,
)
from repro.rng import make_rng


@pytest.fixture(autouse=True)
def _no_streaming_budget():
    """Tests configure streaming explicitly; always restore defaults."""
    saved_min = csr.MIN_STREAM_BLOCK_ARCS
    yield
    csr.MIN_STREAM_BLOCK_ARCS = saved_min
    csr.configure_streaming(None)


def assert_same_graph(a: Graph, b: Graph) -> None:
    assert np.asarray(a.indptr).tobytes() == np.asarray(b.indptr).tobytes()
    assert (
        np.asarray(a.indices).tobytes() == np.asarray(b.indices).tobytes()
    )
    if a.weights is None:
        assert b.weights is None
    else:
        assert (
            np.asarray(a.weights).tobytes()
            == np.asarray(b.weights).tobytes()
        )
    assert a.directed == b.directed
    assert a.fingerprint == b.fingerprint


class TestChunkedGeneration:
    @pytest.mark.parametrize("block_edges", [97, 1024, 1 << 20])
    def test_blocks_concatenate_to_monolithic_stream(self, block_edges):
        n, avg, exp, seed = 500, 6.0, 2.1, 42
        mono = chung_lu(n, avg, exponent=exp, seed=seed)
        blocks = list(
            chung_lu_edge_blocks(
                n, avg, exponent=exp, seed=seed, block_edges=block_edges
            )
        )
        src = np.concatenate([b[0] for b in blocks])
        dst = np.concatenate([b[1] for b in blocks])
        rebuilt = from_edges(
            src,
            dst,
            num_vertices=n,
            directed=True,
            dedup=True,
            drop_self_loops=True,
        )
        assert_same_graph(mono, rebuilt)

    def test_block_size_invariant(self):
        first = list(
            chung_lu_edge_blocks(300, 5.0, seed=7, block_edges=64)
        )
        second = list(
            chung_lu_edge_blocks(300, 5.0, seed=7, block_edges=257)
        )
        assert np.array_equal(
            np.concatenate([b[0] for b in first]),
            np.concatenate([b[0] for b in second]),
        )
        assert np.array_equal(
            np.concatenate([b[1] for b in first]),
            np.concatenate([b[1] for b in second]),
        )


class TestNpyStreamWriter:
    def test_roundtrip_plain_and_mapped(self, tmp_path):
        path = tmp_path / "stream.npy"
        chunks = [np.arange(10), np.arange(10, 13), np.empty(0, np.int64)]
        with NpyStreamWriter(path, np.int64) as writer:
            for chunk in chunks:
                writer.write(chunk)
        assert writer.count == 13
        expected = np.arange(13)
        assert np.array_equal(np.load(path), expected)
        assert np.array_equal(np.load(path, mmap_mode="r"), expected)

    def test_matches_np_save_bytes(self, tmp_path):
        data = make_rng(3).random(1000)
        streamed = tmp_path / "a.npy"
        saved = tmp_path / "b.npy"
        with NpyStreamWriter(streamed, np.float64) as writer:
            writer.write(data[:400])
            writer.write(data[400:])
        np.save(saved, data)
        assert np.array_equal(np.load(streamed), np.load(saved))


class TestOnDiskBuild:
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("num_blocks", [1, 3, 7])
    def test_byte_identical_to_in_ram(self, tmp_path, directed, num_blocks):
        rng = make_rng(17)
        n, m = 200, 3000
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        weights = rng.random(m)
        in_ram = from_edges(
            src,
            dst,
            weights,
            num_vertices=n,
            directed=directed,
            dedup=True,
            drop_self_loops=True,
        )
        bounds = np.linspace(0, m, num_blocks + 1).astype(int)
        blocks = [
            (src[lo:hi], dst[lo:hi], weights[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        mapped = build_csr_on_disk(
            blocks,
            num_vertices=n,
            directory=tmp_path / "g.csr",
            directed=directed,
            merge_chunk=997,  # adversarial: many tiny merge batches
        )
        assert_same_graph(in_ram, mapped)

    def test_unweighted_build(self, tmp_path):
        in_ram = chung_lu(250, 5.0, seed=3)
        blocks = chung_lu_edge_blocks(250, 5.0, seed=3, block_edges=128)
        mapped = build_csr_on_disk(
            blocks, num_vertices=250, directory=tmp_path / "g.csr"
        )
        assert_same_graph(in_ram, mapped)

    def test_profile_instantiate_mapped_matches(self, tmp_path):
        profile = PAPER_DATASETS["dblp"]  # undirected profile
        in_ram = profile.instantiate(scale=4000)
        mapped = profile.instantiate_mapped(
            scale=4000, directory=str(tmp_path / "dblp.csr"), block_edges=777
        )
        assert_same_graph(in_ram, mapped)

    def test_rejects_non_dedup(self, tmp_path):
        with pytest.raises(GraphFormatError):
            build_csr_on_disk(
                [],
                num_vertices=4,
                directory=tmp_path / "g.csr",
                dedup=False,
            )

    def test_choose_block_edges_honours_budget(self):
        csr.configure_streaming(max_ram_bytes=1)
        assert choose_block_edges(directed=True) == 1 << 16  # clamped floor
        csr.configure_streaming(max_ram_bytes=1 << 40)
        assert choose_block_edges(directed=True) == 1 << 23  # clamped cap
        csr.configure_streaming(max_ram_bytes=256 << 20)
        budgeted = choose_block_edges(directed=True)
        assert 1 << 16 < budgeted < 1 << 23
        assert choose_block_edges(directed=False) < budgeted
        csr.configure_streaming(None)
        assert choose_block_edges(directed=True) == 1 << 23  # no budget


class TestMappedGraph:
    @pytest.fixture()
    def pair(self, tmp_path):
        graph = chung_lu(300, 6.0, seed=11)
        mapped = save_mapped(graph, tmp_path / "g.csr")
        return graph, mapped

    def test_interface_matches(self, pair):
        graph, mapped = pair
        assert type(mapped) is Graph  # storage is no second class
        assert mapped.directory is not None and graph.directory is None
        assert not isinstance(mapped.indices, np.memmap)
        assert not mapped.indices.flags.writeable
        assert mapped == graph
        assert mapped.num_vertices == graph.num_vertices
        assert mapped.num_arcs == graph.num_arcs
        assert np.array_equal(mapped.degrees, graph.degrees)
        assert mapped.fingerprint == graph.fingerprint

    def test_csr_dir_detection_and_fingerprint(self, pair, tmp_path):
        graph, mapped = pair
        assert is_csr_dir(mapped.directory)
        assert not is_csr_dir(str(tmp_path))
        assert fingerprint_csr_dir(mapped.directory) == graph.fingerprint

    def test_warm_reopen(self, pair):
        _, mapped = pair
        reopened = open_mapped(mapped.directory)
        assert_same_graph(mapped, reopened)

    def test_pickle_ships_directory_only(self, pair):
        _, mapped = pair
        payload = pickle.dumps(mapped)
        assert len(payload) < 4096  # the path, not the arrays
        clone = pickle.loads(payload)
        assert_same_graph(mapped, clone)
        assert clone.directory == mapped.directory

    def test_pickle_of_a_resident_graph_ships_the_arrays(self, pair):
        graph, _ = pair
        graph.transposition()  # derived caches stay behind
        clone = pickle.loads(pickle.dumps(graph))
        assert_same_graph(graph, clone)
        assert clone.directory is None and clone._transpose is None

    def test_open_mapped_rejects_torn_directory(self, pair):
        _, mapped = pair
        indices = np.array(np.load(f"{mapped.directory}/indices.npy"))
        np.save(f"{mapped.directory}/indices.npy", indices[:-5])
        with pytest.raises(GraphFormatError):
            open_mapped(mapped.directory)


class TestStreamingDispatch:
    def test_in_ram_graphs_never_stream(self):
        """...for being in RAM: under one block of the budget no graph
        streams, and without a budget none does at any size."""
        graph = chung_lu(100, 4.0, seed=1)
        csr.configure_streaming(max_ram_bytes=1)
        assert graph.num_arcs <= csr.MIN_STREAM_BLOCK_ARCS
        assert streaming_block_arcs(graph) is None
        csr.configure_streaming(None)
        csr.MIN_STREAM_BLOCK_ARCS = 1
        assert streaming_block_arcs(graph) is None

    def test_mapped_graphs_stream_with_budgeted_blocks(self, tmp_path):
        """...exactly when a resident graph of their size does."""
        graph = chung_lu(100, 4.0, seed=1)
        mapped = save_mapped(graph, tmp_path / "g.csr")
        assert streaming_block_arcs(mapped) is None  # no budget
        csr.configure_streaming(max_ram_bytes=1)
        assert streaming_block_arcs(mapped) is None  # fits one block
        csr.MIN_STREAM_BLOCK_ARCS = graph.num_arcs
        assert streaming_block_arcs(mapped) is None  # exactly one block
        csr.MIN_STREAM_BLOCK_ARCS = graph.num_arcs - 1
        for twin in (mapped, graph):
            assert streaming_block_arcs(twin) == graph.num_arcs - 1
        csr.MIN_STREAM_BLOCK_ARCS = 1
        csr.configure_streaming(max_ram_bytes=150 * csr.STREAM_BYTES_PER_ARC)
        assert streaming_block_arcs(graph) == 150  # over the floor

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(GraphFormatError):
            csr.configure_streaming(max_ram_bytes=0)

    def test_iter_row_blocks_covers_rows(self):
        graph = chung_lu(200, 8.0, seed=5)
        blocks = list(iter_row_blocks(graph.indptr, 64))
        assert blocks[0][0] == 0 and blocks[-1][1] == graph.num_vertices
        for (_, hi), (lo2, _) in zip(blocks[:-1], blocks[1:]):
            assert hi == lo2
        for lo, hi in blocks:
            assert hi > lo

    def test_iter_frontier_blocks_covers_frontier(self):
        degrees = make_rng(2).integers(0, 50, size=300)
        blocks = list(iter_frontier_blocks(degrees, 100))
        assert blocks[0][0] == 0 and blocks[-1][1] == degrees.size
        for (_, hi), (lo2, _) in zip(blocks[:-1], blocks[1:]):
            assert hi == lo2

    def test_propagate_mass_streams_identically(self, tmp_path):
        graph = chung_lu(400, 7.0, seed=23)
        mapped = save_mapped(graph, tmp_path / "g.csr")
        per_vertex = make_rng(29).random(graph.num_vertices)
        one_block = propagate_mass(graph, per_vertex).tobytes()
        assert propagate_mass(mapped, per_vertex).tobytes() == one_block
        csr.MIN_STREAM_BLOCK_ARCS = 64
        csr.configure_streaming(max_ram_bytes=1)  # many tiny row blocks
        for twin in (graph, mapped):
            assert propagate_mass(twin, per_vertex).tobytes() == one_block


class TestStreamingSegmentReductions:
    def _candidates(self, size=5000, cells=64):
        rng = make_rng(31)
        rows = rng.integers(0, 8, size=size)
        cols = rng.integers(0, cells // 8, size=size)
        return rows, cols

    @pytest.mark.parametrize("block", [100, 999, 10_000])
    def test_segment_min_streaming_bit_identical(self, block):
        rows, cols = self._candidates()
        values = make_rng(37).random(rows.size)
        base = segment_min(rows, cols, values, 8)
        streamed = segment_min_streaming(
            rows, cols, values, 8, block_size=block
        )
        for a, b in zip(base, streamed):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("block", [100, 999])
    def test_segment_sum_streaming_exact_for_counts(self, block):
        rows, cols = self._candidates()
        ones = np.ones(rows.size)
        base = segment_sum(rows, cols, ones, 8)
        streamed = segment_sum_streaming(rows, cols, ones, 8, block)
        for a, b in zip(base, streamed):
            assert a.tobytes() == b.tobytes()

    def test_segment_sum_streaming_close_for_floats(self):
        rows, cols = self._candidates()
        values = make_rng(41).random(rows.size)
        base = segment_sum(rows, cols, values, 8)
        streamed = segment_sum_streaming(rows, cols, values, 8, 777)
        assert np.array_equal(base[0], streamed[0])
        assert np.array_equal(base[1], streamed[1])
        np.testing.assert_allclose(base[2], streamed[2], rtol=1e-12)


class TestStreamingKernels:
    """Kernel rounds forced multi-block on a graph opened from disk vs
    one-block rounds on the same graph in RAM."""

    @pytest.fixture()
    def pair(self, tmp_path):
        profile = PAPER_DATASETS["livejournal"]
        graph = profile.instantiate(scale=2000)
        mapped = save_mapped(graph, tmp_path / "lj.csr")
        return graph, mapped

    @staticmethod
    def _stream():
        csr.MIN_STREAM_BLOCK_ARCS = 128
        csr.configure_streaming(max_ram_bytes=1)

    @staticmethod
    def _run(kernel, workload=32):
        kernel.start_batch(workload)
        for _ in range(10_000):
            if kernel.step().done:
                break
        return kernel

    @staticmethod
    def _router(graph):
        from repro.graph.mirrors import build_mirror_plan
        from repro.graph.partition import hash_partition
        from repro.messages.routing import PointToPointRouter

        return PointToPointRouter(
            graph, build_mirror_plan(graph, hash_partition(graph, 4))
        )

    def test_mssp_streaming_byte_identical(self, pair):
        from repro.tasks.mssp import MSSPKernel

        graph, mapped = pair
        base = self._run(
            MSSPKernel(graph, self._router(graph), make_rng(7),
                       sample_limit=8)
        )
        self._stream()
        streamed = self._run(
            MSSPKernel(mapped, self._router(mapped), make_rng(7),
                       sample_limit=8)
        )
        assert base.round_index == streamed.round_index
        for source, dist in base.result.items():
            assert dist.tobytes() == streamed.result[source].tobytes()

    def test_bkhs_streaming_byte_identical(self, pair):
        from repro.tasks.bkhs import BKHSKernel

        graph, mapped = pair
        base = self._run(
            BKHSKernel(graph, self._router(graph), make_rng(9), k=3,
                       sample_limit=8)
        )
        self._stream()
        streamed = self._run(
            BKHSKernel(mapped, self._router(mapped), make_rng(9), k=3,
                       sample_limit=8)
        )
        assert base.result == streamed.result
        reachable = streamed.reachable_sets()
        for source, mask in base.reachable_sets().items():
            assert np.array_equal(mask, reachable[source])


class TestChunkedEdgeList:
    def test_chunked_read_matches_single_pass(self, tmp_path, monkeypatch):
        from repro.graph import io as graph_io

        rng = make_rng(43)
        lines = [
            f"{rng.integers(0, 50)} {rng.integers(0, 50)} "
            f"{rng.random():.6f}"
            for _ in range(200)
        ]
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n" + "\n".join(lines) + "\n")
        whole = read_edge_list(path, num_vertices=50)
        monkeypatch.setattr(graph_io, "EDGE_LIST_CHUNK_LINES", 7)
        chunked = read_edge_list(path, num_vertices=50)
        assert_same_graph(whole, chunked)

    def test_bad_line_still_reported_with_position(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 nope\n")
        with pytest.raises(GraphFormatError, match=r"edges\.txt:2"):
            read_edge_list(path, num_vertices=4)


class TestBuildBudgetEstimate:
    def test_estimate_scales_with_profile(self):
        profile = PAPER_DATASETS["twitter"]
        small = profile.estimated_build_bytes(400)
        large = profile.estimated_build_bytes(50)
        assert large > small > 0

    def test_undirected_doubles_arcs(self):
        base = DatasetProfile(
            name="x", num_nodes=10_000, num_edges=50_000,
            avg_degree=5.0, source="test",
        )
        undirected = DatasetProfile(
            name="y", num_nodes=10_000, num_edges=50_000,
            avg_degree=5.0, source="test", directed=False,
        )
        assert undirected.estimated_build_bytes(1) > (
            1.9 * base.estimated_build_bytes(1)
        )

    def test_instantiate_mapped_requires_directory(self):
        with pytest.raises(ConfigurationError):
            PAPER_DATASETS["dblp"].instantiate_mapped(scale=4000)
