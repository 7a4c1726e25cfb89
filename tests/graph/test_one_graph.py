"""One graph class, one on-disk format; streaming is decided by size.

Two facts used to travel together under the name "mapped": where a
graph's arrays live, and whether its rounds stream. They are separate
now. ``Graph.directory`` is the first (and changes nothing a kernel
computes); :func:`repro.graph.csr.streaming_block_arcs` is the second
and reads only the ``--max-ram`` budget and ``graph.num_arcs``. These
tests pin that seam: every storage x streaming combination runs the
same jobs to the same bytes, a streamed round takes the direction a
one-block round takes and lands the same frontier words, and a cold
load and a warm one hand back the same graph from the one format
graphs are stored in.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.batching import executor
from repro.cluster.cluster import cluster_by_name
from repro.graph import csr
from repro.graph.datasets import load_dataset
from repro.graph.generators import chung_lu
from repro.graph.io import save_mapped
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import partition_graph
from repro.perf import cache as artifact_cache
from repro.perf import timings
from repro.perf.cache import ArtifactCache, clear_cache
from repro.rng import make_rng
from repro.sim.metrics import pack_job
from repro.tasks import base as tasks_base
from repro.tasks.bkhs import BKHSKernel
from repro.tasks.bppr import BPPRKernel
from repro.tasks.mssp import MSSPKernel

from tests.tasks.test_bit_parallel import is_file_map
from tests.tasks.test_mssp_bkhs import router_for

#: One budget for every run: GraphD's modelled buffer cap follows
#: ``--max-ram``, so payloads are only comparable under equal budgets.
#: Whether a graph is over "one block of it" is moved by the floor.
BUDGET = 1 << 20

TASKS = (("mssp", 24.0, {}), ("bkhs", 96.0, {"k": 2}), ("bppr", 64.0, {}))
ENGINES = ("pregel+", "graphd", "graphlab")


@pytest.fixture(autouse=True)
def _streaming_state():
    floor = csr.MIN_STREAM_BLOCK_ARCS
    clear_cache()
    yield
    csr.MIN_STREAM_BLOCK_ARCS = floor
    csr.configure_streaming(None)
    clear_cache()


@pytest.fixture()
def blocks_per_round(monkeypatch):
    """Number of frontier blocks of every round that was cut."""
    seen = []
    original = tasks_base.iter_frontier_blocks

    def counting(degrees, max_arcs):
        cuts = list(original(degrees, max_arcs))
        seen.append(len(cuts))
        return cuts

    monkeypatch.setattr(tasks_base, "iter_frontier_blocks", counting)
    return seen


def payloads(graph):
    """``pack_job`` bytes of every task on every engine, from scratch."""
    clear_cache()
    cluster = cluster_by_name("galaxy-8", scale=400)
    out = {}
    for kind, workload, params in TASKS:
        for engine in ENGINES:
            task = tasks_base.make_task(kind, graph, workload, **params)
            job = executor.run_job(
                engine, cluster, task, num_batches=2, seed=5
            )
            out[kind, engine] = pack_job(job)["payload"].tobytes()
    return out


class TestStreamingIsDecidedBySize:
    def test_four_storage_by_streaming_combinations(
        self, tmp_path, blocks_per_round
    ):
        resident = chung_lu(1500, 8.0, seed=21, name="seam")
        on_disk = save_mapped(resident, tmp_path / "seam.csr")
        assert resident.directory is None and on_disk.directory is not None
        csr.configure_streaming(BUDGET)
        results = {}
        for storage, graph in (("resident", resident), ("disk", on_disk)):
            for floor in (1 << 40, 512):
                csr.MIN_STREAM_BLOCK_ARCS = floor
                streams = csr.streaming_block_arcs(graph) is not None
                assert streams == (floor == 512)  # size, not storage
                graph._transpose = graph._spread = None
                graph._pull_blocks = None
                del blocks_per_round[:]
                results[storage, streams] = payloads(graph)
                pulled = graph.transposition_blocks()
                if streams:
                    # The thin rounds pushed under the block plan, the
                    # heavy ones pulled along an A^T of file maps — in
                    # the graph's directory, or in a scratch one for the
                    # resident graph — cut into blocks.
                    assert blocks_per_round
                    assert len(pulled) >= 2
                    assert all(is_file_map(a) for a in graph._transpose[:2])
                else:
                    # One block: nothing was cut, the heavy rounds
                    # pulled along the one transposition, in RAM.
                    assert not blocks_per_round
                    assert len(pulled) == 1
                    assert not any(is_file_map(a) for a in graph._transpose[:2])
                if storage == "disk":  # only a streamed pull writes
                    marker = tmp_path / "seam.csr" / "transpose.json"
                    assert marker.is_file() == streams
        reference = results["resident", False]
        assert len(reference) == len(TASKS) * len(ENGINES)
        for combination, found in results.items():
            assert found == reference, combination
        # No budget at all is the one-block case again — comparable on
        # the engines that model no budget of their own.
        csr.configure_streaming(None)
        unbudgeted = payloads(on_disk)
        for (kind, engine), payload in unbudgeted.items():
            if engine != "graphd":
                assert payload == reference[kind, engine]


def traversal_rounds(graph):
    """Every round of a 130-source MSSP and BKHS batch on ``graph``:
    whether it pulled (the ``kernel.pull`` count), the frontier it
    left — vertices and word rows — and its ``RoundSummary``."""
    rounds = []
    for kernel_type, params in ((MSSPKernel, {}), (BKHSKernel, {"k": 3})):
        kernel = kernel_type(
            graph, router_for(graph), make_rng(4), sample_limit=None, **params
        )
        kernel.start_batch(130)
        while not kernel.finished:
            before = timings.snapshot().get("kernel.pull", {"count": 0})
            summary = kernel.step()
            after = timings.snapshot().get("kernel.pull", {"count": 0})
            bits = kernel._bits
            rounds.append((
                after["count"] - before["count"],
                bits.verts.tobytes(),
                bits.words.tobytes(),
                summary,
            ))
    return rounds


class TestStreamedPullMatchesResident:
    def test_same_direction_words_and_payloads(self, tmp_path):
        """The graph on disk streamed, the same graph resident in one
        block, under one budget: every round goes the same direction —
        the heavy ones pull, the streamed pull in several ``A^T``
        blocks — and leaves the same frontier words, and every job
        packs the same payload."""
        resident = chung_lu(1500, 8.0, seed=21, name="seam")
        on_disk = save_mapped(resident, tmp_path / "seam.csr")
        csr.configure_streaming(BUDGET)
        csr.MIN_STREAM_BLOCK_ARCS = 512
        assert csr.streaming_block_arcs(on_disk) is not None
        streamed = traversal_rounds(on_disk), payloads(on_disk)
        assert len(on_disk.transposition_blocks()) >= 2
        csr.MIN_STREAM_BLOCK_ARCS = 1 << 40
        assert csr.streaming_block_arcs(resident) is None
        one_block = traversal_rounds(resident), payloads(resident)
        directions = [pulled for pulled, *_ in one_block[0]]
        assert 0 in directions and 1 in directions
        assert streamed == one_block


def bppr_mass_rounds(graph):
    """The in-flight mass vector after every round of an untracked
    expected-mass BPPR batch on ``graph``, as bytes."""
    kernel = BPPRKernel(graph, router_for(graph), make_rng(4))
    kernel.start_batch(64)
    rounds = []
    while not kernel.finished:
        kernel.step()
        rounds.append(kernel._mass_vec.tobytes())
    return rounds


class TestStreamedMassMatchesResident:
    def test_same_mass_every_round(self, tmp_path):
        """Streamed mass propagation (``np.add.at`` over out-arc row
        blocks) sums each target's in-arcs in arc order, as the
        resident matvec does: the mass vector is bit-equal after every
        round, not only the packed payloads."""
        resident = chung_lu(1500, 8.0, seed=21, name="seam")
        on_disk = save_mapped(resident, tmp_path / "seam.csr")
        # 512-arc blocks: no budget-modelling engine runs here, so the
        # budget only sets how finely the arcs are cut.
        csr.MIN_STREAM_BLOCK_ARCS = 512
        csr.configure_streaming(512 * csr.STREAM_BYTES_PER_ARC)
        assert len(list(csr.row_blocks(on_disk))) >= 20
        streamed = bppr_mass_rounds(on_disk)
        csr.configure_streaming(None)
        one_block = bppr_mass_rounds(resident)
        assert len(one_block) > 1
        assert streamed == one_block


class TestColdAndWarmLoadsAgree:
    @pytest.mark.parametrize("name", ["web-st", "dblp"])
    def test_same_graph_partitions_and_plans(
        self, name, tmp_path, monkeypatch
    ):
        def products():
            # A fresh process-wide cache over the same directory.
            monkeypatch.setattr(
                artifact_cache,
                "_GLOBAL",
                ArtifactCache(directory=str(tmp_path)),
            )
            graph = load_dataset(name, scale=400)
            partition = partition_graph(graph, 8, "edge-cut")
            plan = build_mirror_plan(graph, partition, 20)
            return graph, partition, plan, artifact_cache.get_cache().stats

        cold, cold_part, cold_plan, cold_stats = products()
        assert (cold_stats.misses, cold_stats.disk_hits) == (3, 0)
        warm, warm_part, warm_plan, warm_stats = products()
        assert warm_stats.disk_hits == 1  # the graph; plans are memory-only
        assert warm is not cold and warm == cold
        assert warm.fingerprint == cold.fingerprint
        assert warm.name == cold.name and warm.directory == cold.directory
        for field in ("owner", "vertices_per_machine", "arcs_per_machine"):
            assert np.array_equal(
                getattr(warm_part, field), getattr(cold_part, field)
            )
        assert warm_part.cut_arcs == cold_part.cut_arcs
        assert warm_part.replication_factor == cold_part.replication_factor
        for field in (
            "mirrored", "remote_machines", "remote_neighbors",
            "local_neighbors",
        ):
            assert np.array_equal(
                getattr(warm_plan, field), getattr(cold_plan, field)
            )
        assert warm_plan.num_mirrors == cold_plan.num_mirrors
        # One on-disk graph format: a CSR directory, no archive.
        stored = sorted(os.listdir(tmp_path))
        assert len(stored) == 1 and stored[0].startswith(f"{name}-")
        assert stored[0].endswith(".csr")
        assert os.path.isfile(tmp_path / stored[0] / "graph.json")

    def test_without_a_cache_directory_nothing_is_written(self, monkeypatch):
        monkeypatch.setattr(artifact_cache, "_GLOBAL", ArtifactCache())
        graph = load_dataset("web-st", scale=400)
        assert graph.directory is None
