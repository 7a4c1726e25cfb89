"""Round-trip tests for the text edge-list format (the binary format,
the CSR directory, is covered by ``test_mmap.py`` / ``test_quarantine.py``)."""

import pytest

from repro.errors import GraphFormatError
from repro.graph.io import read_edge_list, write_edge_list


class TestEdgeListText:
    def test_round_trip_unweighted(self, tiny_graph, tmp_path):
        path = tmp_path / "tiny.txt"
        write_edge_list(tiny_graph, path)
        loaded = read_edge_list(path, num_vertices=6)
        assert loaded == tiny_graph

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n# mid comment\n1 2\n\n")
        g = read_edge_list(path)
        assert g.num_arcs == 2

    def test_inconsistent_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 2 3.5\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_garbage_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nfoo bar\n")
        with pytest.raises(GraphFormatError, match="bad.txt:2"):
            read_edge_list(path)

    def test_three_columns_rejected_with_line_number(self, tmp_path):
        """A weighted SNAP-style file (``src dst weight``) is refused at
        its first data line, not read as a graph with weights dropped."""
        path = tmp_path / "weighted.txt"
        path.write_text("# src dst weight\n\n0 1 2.5\n1 2 1.0\n")
        with pytest.raises(GraphFormatError, match=r"weighted.txt:3: .*got 3"):
            read_edge_list(path)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)
