"""Phase-timing accumulator: add/span/render/dump."""

import json

from repro.perf import timings


class TestTimings:
    def setup_method(self):
        timings.reset()

    def teardown_method(self):
        timings.reset()

    def test_add_and_snapshot(self):
        timings.add("kernel", 0.5)
        timings.add("kernel", 0.25, count=2)
        snap = timings.snapshot()
        assert snap["kernel"]["seconds"] == 0.75
        assert snap["kernel"]["count"] == 3

    def test_span_records_elapsed(self):
        with timings.span("phase-x"):
            pass
        snap = timings.snapshot()
        assert snap["phase-x"]["count"] == 1
        assert snap["phase-x"]["seconds"] >= 0.0

    def test_render_table(self):
        assert "no timing spans" in timings.render_table()
        timings.add("graph-gen", 1.5)
        table = timings.render_table()
        assert "graph-gen" in table
        assert "1.500" in table

    def test_write_json(self, tmp_path):
        timings.add("partition", 0.125)
        path = tmp_path / "BENCH_perf.json"
        timings.write_json(str(path), extra={"wall_seconds": 9.0})
        payload = json.loads(path.read_text())
        assert payload["wall_seconds"] == 9.0
        assert payload["phases"]["partition"]["seconds"] == 0.125
