"""Torn CSR directories: detection, quarantine, and rebuild.

A crash mid-write leaves a CSR directory torn — truncated arrays, an
unparsable sidecar, or sizes that disagree with ``graph.json``. The
tolerant loader must never hand such a directory to an engine: it moves
the evidence aside as ``<dir>.corrupt`` (counted in the cache stats so
it surfaces in ``BENCH_perf.json``) and returns ``None`` so the caller
rebuilds under the original name.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import csr
from repro.graph.build import from_edges
from repro.graph.io import (
    is_csr_dir,
    load_csr_dir,
    mapped_transposition,
    open_mapped,
    quarantine_csr_dir,
    save_mapped,
)
from repro.perf.cache import get_cache


@pytest.fixture()
def graph():
    src = np.array([0, 0, 1, 2, 3, 3], dtype=np.int64)
    dst = np.array([1, 2, 3, 0, 1, 2], dtype=np.int64)
    weights = np.array([1.0, 2.0, 0.5, 4.0, 1.5, 3.0])
    return from_edges(src, dst, weights=weights, name="tiny")


@pytest.fixture()
def csr_dir(graph, tmp_path):
    directory = str(tmp_path / "tiny.csr")
    save_mapped(graph, directory)
    return directory


def corruptions():
    return get_cache().stats.corruptions


class TestCleanDirectory:
    def test_round_trips_byte_identical(self, graph, csr_dir):
        mapped = load_csr_dir(csr_dir)
        assert mapped is not None
        assert np.asarray(mapped.indptr).tobytes() == np.asarray(
            graph.indptr
        ).tobytes()
        assert np.asarray(mapped.indices).tobytes() == np.asarray(
            graph.indices
        ).tobytes()
        assert np.asarray(mapped.weights).tobytes() == np.asarray(
            graph.weights
        ).tobytes()
        assert mapped.fingerprint == graph.fingerprint

    def test_missing_directory_is_not_quarantined(self, tmp_path):
        before = corruptions()
        assert load_csr_dir(tmp_path / "never-built.csr") is None
        assert corruptions() == before
        assert not os.path.exists(str(tmp_path / "never-built.csr.corrupt"))


class TestTornDirectories:
    def assert_quarantined(self, directory):
        before = corruptions()
        assert load_csr_dir(directory) is None
        assert not os.path.exists(directory)
        assert os.path.isdir(directory + ".corrupt")
        assert corruptions() == before + 1

    def test_truncated_indices_quarantine(self, csr_dir):
        path = os.path.join(csr_dir, "indices.npy")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 16)
        self.assert_quarantined(csr_dir)

    def test_unparsable_sidecar_quarantines(self, csr_dir):
        with open(os.path.join(csr_dir, "graph.json"), "w") as fh:
            fh.write("{ torn mid-write")
        self.assert_quarantined(csr_dir)

    def test_weights_size_mismatch_quarantines(self, csr_dir):
        np.save(os.path.join(csr_dir, "weights.npy"), np.zeros(2))
        self.assert_quarantined(csr_dir)

    def test_indptr_pointing_outside_the_arcs_quarantines(self, graph, csr_dir):
        # Right size, wrong content: the kernels gather arcs by these
        # positions unchecked, so the loader is where they are proved.
        indptr = graph.indptr.copy()
        indptr[2] = graph.num_arcs + 3
        np.save(os.path.join(csr_dir, "indptr.npy"), indptr)
        self.assert_quarantined(csr_dir)

    def test_sidecar_disagreeing_with_arrays_quarantines(self, csr_dir):
        meta_path = os.path.join(csr_dir, "graph.json")
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["num_arcs"] += 1
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        self.assert_quarantined(csr_dir)

    def test_missing_sidecar_means_incomplete_build_not_corruption(
        self, csr_dir
    ):
        # The sidecar is written last: its absence is the normal
        # crashed-before-commit window, not damage worth preserving.
        os.unlink(os.path.join(csr_dir, "graph.json"))
        before = corruptions()
        assert not is_csr_dir(csr_dir)
        assert load_csr_dir(csr_dir) is None
        assert corruptions() == before

    def test_rebuild_replaces_quarantine_under_original_name(
        self, graph, csr_dir
    ):
        with open(os.path.join(csr_dir, "graph.json"), "w") as fh:
            fh.write("not json")
        assert load_csr_dir(csr_dir) is None
        # Rebuild into the now-free original name and load cleanly.
        save_mapped(graph, csr_dir)
        mapped = load_csr_dir(csr_dir)
        assert mapped is not None
        assert mapped.fingerprint == graph.fingerprint
        assert os.path.isdir(csr_dir + ".corrupt")

    def test_repeated_quarantine_keeps_latest_evidence(self, graph, csr_dir):
        marker = os.path.join(csr_dir, "marker-first")
        open(marker, "w").close()
        quarantine_csr_dir(csr_dir)
        save_mapped(graph, csr_dir)
        quarantine_csr_dir(csr_dir)
        quarantined = csr_dir + ".corrupt"
        assert os.path.isdir(quarantined)
        assert not os.path.exists(
            os.path.join(quarantined, "marker-first")
        )


class TestConcurrentWriters:
    """Processes sharing one cold cache directory build the same graph
    into it at once. Every file is renamed into place from a tmp file of
    the writer's own, so the writers swap identical files and a reader
    never sees half of one."""

    WRITERS = 4
    ROUNDS = 40

    @pytest.mark.parametrize("builder", ["in-ram", "out-of-core"])
    def test_writers_agree_and_nothing_is_quarantined(
        self, tmp_path, builder
    ):
        from repro.graph.datasets import PAPER_DATASETS

        profile = PAPER_DATASETS["dblp"]
        graph = profile.instantiate(scale=400)
        directory = str(tmp_path / "dblp.csr")

        def write(index):
            before = corruptions()
            seen = set()
            for _ in range(self.ROUNDS):
                if builder == "in-ram":
                    saved = save_mapped(graph, directory)
                else:
                    saved = profile.instantiate_mapped(
                        scale=400, directory=directory
                    )
                loaded = load_csr_dir(directory)
                assert loaded is not None
                mapped_transposition(saved)
                seen.update((saved.fingerprint, loaded.fingerprint))
            report = {
                "seen": sorted(seen),
                "corruptions": corruptions() - before,
            }
            with open(tmp_path / f"writer-{index}.json", "w") as handle:
                json.dump(report, handle)

        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=write, args=(index,))
            for index in range(self.WRITERS)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=300)
        assert not [writer for writer in writers if writer.is_alive()]
        # A writer that raised exits non-zero and leaves no report.
        assert [writer.exitcode for writer in writers] == [0] * self.WRITERS
        reports = [
            json.loads((tmp_path / f"writer-{index}.json").read_text())
            for index in range(self.WRITERS)
        ]
        assert [r["seen"] for r in reports] == [
            [graph.fingerprint]
        ] * self.WRITERS
        assert [r["corruptions"] for r in reports] == [0] * self.WRITERS
        assert not [name for name in os.listdir(directory) if ".tmp" in name]


class TestHostileContent:
    """Right sizes, well-formed files, values ``Graph.__init__`` rejects:
    ``open_mapped`` proves the same ranges (numpy indexing would wrap a
    ``-1`` neighbour to the last vertex without a word) unless the
    graph streams, where every page would have to be faulted in."""

    def overwrite(self, graph, csr_dir, name, index, value):
        array = np.array(getattr(graph, name))
        array[index] = value
        np.save(os.path.join(csr_dir, f"{name}.npy"), array)

    @pytest.mark.parametrize(
        "name,value",
        [("indices", -1), ("indices", 4), ("weights", -0.5)],
        ids=["negative-neighbour", "neighbour-past-n", "negative-weight"],
    )
    def test_open_rejects_and_load_quarantines(
        self, graph, csr_dir, name, value
    ):
        self.overwrite(graph, csr_dir, name, 3, value)
        with pytest.raises(GraphFormatError, match=f"{name}.npy"):
            open_mapped(csr_dir)
        before = corruptions()
        assert load_csr_dir(csr_dir) is None
        assert os.path.isdir(csr_dir + ".corrupt")
        assert corruptions() == before + 1

    def test_flipped_content_fails_the_fingerprint(self, graph, csr_dir):
        # In range, so only the content hash can tell: the arc 3 -> 1
        # now reads 3 -> 0.
        self.overwrite(graph, csr_dir, "indices", 4, 0)
        assert open_mapped(csr_dir).fingerprint == graph.fingerprint
        before = corruptions()
        assert load_csr_dir(csr_dir) is None
        assert corruptions() == before + 1

    def test_a_streaming_graph_is_trusted_as_built(
        self, graph, csr_dir, monkeypatch
    ):
        # Over the budget the O(m) proofs are skipped, as before this
        # format carried every graph: reading each page is the cost the
        # budget exists to avoid.
        self.overwrite(graph, csr_dir, "indices", 3, -1)
        monkeypatch.setattr(csr, "MIN_STREAM_BLOCK_ARCS", 1)
        csr.configure_streaming(max_ram_bytes=1)
        try:
            assert load_csr_dir(csr_dir) is not None
        finally:
            csr.configure_streaming(None)


def truncate_sources(directory):
    path = os.path.join(directory, "transpose-sources.npy")
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 8)


def end_indptr_short(directory):
    path = os.path.join(directory, "transpose-indptr.npy")
    indptr = np.array(np.load(path))
    indptr[-1] -= 1
    np.save(path, indptr)


def drop_marker(directory):
    os.unlink(os.path.join(directory, "transpose.json"))


def mark_another_graph(directory):
    path = os.path.join(directory, "transpose.json")
    with open(path, encoding="utf-8") as fh:
        marker = json.load(fh)
    marker["fingerprint"] = "0" * 32
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(marker, fh)


class TestStreamedTransposition:
    """A graph that streams pulls along ``A^T`` files beside its CSR
    files, written by one pass that reads every arc: that pass proves
    the neighbour ids open no longer does, and files it did not finish —
    or that belong to another graph — are rebuilt, never gathered from."""

    @pytest.fixture(autouse=True)
    def streaming(self, monkeypatch):
        monkeypatch.setattr(csr, "MIN_STREAM_BLOCK_ARCS", 1)
        csr.configure_streaming(max_ram_bytes=1)
        yield
        csr.configure_streaming(None)

    @pytest.mark.parametrize(
        "value", [-1, 4], ids=["negative-neighbour", "neighbour-past-n"]
    )
    def test_hostile_neighbour_fails_the_pass_loudly(
        self, graph, csr_dir, value
    ):
        TestHostileContent().overwrite(graph, csr_dir, "indices", 3, value)
        mapped = load_csr_dir(csr_dir)
        assert mapped is not None  # open stays O(n)
        message = re.escape(f"{csr_dir}: indices.npy holds a neighbour id")
        with pytest.raises(GraphFormatError, match=message):
            mapped.transposition()
        assert not os.path.exists(os.path.join(csr_dir, "transpose.json"))

    @pytest.mark.parametrize(
        "damage",
        [truncate_sources, end_indptr_short, drop_marker, mark_another_graph],
    )
    def test_torn_or_foreign_files_are_rebuilt(self, graph, csr_dir, damage):
        reference = csr.transpose_rows(graph, 0, 4, 0, graph.num_arcs)
        load_csr_dir(csr_dir).transposition()  # first use writes them
        damage(csr_dir)
        rebuilt = load_csr_dir(csr_dir).transposition()
        for ours, theirs in zip(rebuilt, reference):
            assert ours.tobytes() == theirs.tobytes()
        with open(os.path.join(csr_dir, "transpose.json")) as fh:
            assert json.load(fh)["fingerprint"] == graph.fingerprint
