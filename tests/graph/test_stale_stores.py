"""CSR directories written before graphs lost their edge weights.

Older versions wrote ``"weighted": false`` into every ``graph.json`` and
``transpose.json``, and could write a weighted store (``"weighted":
true`` beside a ``weights.npy``). A graph is now ``indptr`` +
``indices`` + direction, so:

* an unweighted store of an older version opens as it is — same
  fingerprint, nothing rebuilt, its sidecar left alone;
* a weighted store is refused by ``open_mapped``, and the tolerant
  loader quarantines it as ``.corrupt`` and rebuilds the dataset,
  whether the graph is resident or streams;
* ``A^T`` files under an older marker are rewritten once, to the same
  bytes, and reused from then on.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import csr, io
from repro.graph.datasets import DatasetProfile, load_dataset
from repro.graph.io import load_csr_dir, open_mapped
from repro.perf.cache import clear_cache, get_cache

#: ``Graph.fingerprint`` of dblp@4000, as pinned in
#: ``test_build_pipeline.PINNED_GRAPHS``.
DBLP_FINGERPRINT = "15d039e28993fd3d0ef80c5c9f0776f6"


@pytest.fixture(autouse=True)
def _clean_state():
    floor = csr.MIN_STREAM_BLOCK_ARCS
    clear_cache()
    yield
    csr.MIN_STREAM_BLOCK_ARCS = floor
    csr.configure_streaming(None)
    clear_cache()


def stream_everything(monkeypatch):
    """Every graph over one block of the budget: built out of core,
    opened without the O(m) proofs, pulled along on-disk ``A^T``."""
    monkeypatch.setattr(csr, "MIN_STREAM_BLOCK_ARCS", 1)
    csr.configure_streaming(max_ram_bytes=1)


def rewrite_json(path, **fields):
    """Set ``fields`` in a sidecar or marker the way the older writer
    laid it out (indented, keys sorted)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.update(fields)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def count_builds(monkeypatch):
    """Record each dataset build, in RAM or out of core."""
    builds = []
    for name in ("instantiate", "instantiate_mapped"):
        original = getattr(DatasetProfile, name)

        def counted(self, *args, _original=original, **kwargs):
            builds.append(self.name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(DatasetProfile, name, counted)
    return builds


def cached_dblp(tmp_path):
    graph = load_dataset("dblp", scale=4000, cache_dir=str(tmp_path))
    assert graph.fingerprint == DBLP_FINGERPRINT
    return graph.directory


@pytest.mark.parametrize("streams", [False, True], ids=["resident", "streaming"])
class TestStoresOfAnOlderVersion:
    def test_unweighted_store_opens_without_a_rebuild(
        self, tmp_path, monkeypatch, streams
    ):
        if streams:
            stream_everything(monkeypatch)
        directory = cached_dblp(tmp_path)
        meta_path = os.path.join(directory, io.GRAPH_META_NAME)
        rewrite_json(meta_path, weighted=False)
        with open(meta_path, "rb") as fh:
            sidecar = fh.read()
        clear_cache()
        builds = count_builds(monkeypatch)
        before = get_cache().stats.corruptions
        graph = load_dataset("dblp", scale=4000, cache_dir=str(tmp_path))
        assert builds == []
        assert get_cache().stats.corruptions == before
        assert graph.directory == directory
        assert graph.fingerprint == DBLP_FINGERPRINT
        assert io.fingerprint_csr_dir(directory) == DBLP_FINGERPRINT
        with open(meta_path, "rb") as fh:
            assert fh.read() == sidecar
        assert not os.path.exists(directory + ".corrupt")

    def test_weighted_store_is_quarantined_and_rebuilt(
        self, tmp_path, monkeypatch, streams
    ):
        if streams:
            stream_everything(monkeypatch)
        directory = cached_dblp(tmp_path)
        num_arcs = open_mapped(directory).num_arcs
        np.save(os.path.join(directory, "weights.npy"), np.ones(num_arcs))
        rewrite_json(
            os.path.join(directory, io.GRAPH_META_NAME), weighted=True
        )
        with pytest.raises(GraphFormatError, match="weighted"):
            open_mapped(directory)
        clear_cache()
        builds = count_builds(monkeypatch)
        before = get_cache().stats.corruptions
        graph = load_dataset("dblp", scale=4000, cache_dir=str(tmp_path))
        assert builds == ["dblp"]
        assert get_cache().stats.corruptions == before + 1
        assert os.path.isfile(
            os.path.join(directory + ".corrupt", "weights.npy")
        )
        assert graph.directory == directory
        assert graph.fingerprint == DBLP_FINGERPRINT
        assert not os.path.exists(os.path.join(directory, "weights.npy"))
        with open(os.path.join(directory, io.GRAPH_META_NAME)) as fh:
            assert "weighted" not in json.load(fh)


def test_transposition_under_an_older_marker_is_rewritten_once(
    tmp_path, monkeypatch
):
    """The older marker also named ``"weighted": false``: it no longer
    binds the files to their graph, so the first pull rewrites them —
    to the bytes they already held — and every later one maps them."""
    stream_everything(monkeypatch)
    directory = cached_dblp(tmp_path)
    marker = os.path.join(directory, io.TRANSPOSE_META_NAME)
    before = [
        np.load(os.path.join(directory, name)) for name in io.TRANSPOSE_FILES
    ]
    rewrite_json(marker, weighted=False)
    writes = []
    write = io.write_transposition

    def counted(graph, target):
        writes.append(target)
        return write(graph, target)

    monkeypatch.setattr(io, "write_transposition", counted)
    for _ in range(3):
        arrays = load_csr_dir(directory).transposition()
        for ours, theirs in zip(arrays, before):
            assert np.asarray(ours).tobytes() == theirs.tobytes()
    assert writes == [directory]
    with open(marker, encoding="utf-8") as fh:
        assert json.load(fh) == {
            "fingerprint": DBLP_FINGERPRINT,
            "num_arcs": before[1].size,
            "num_vertices": before[0].size - 1,
        }
