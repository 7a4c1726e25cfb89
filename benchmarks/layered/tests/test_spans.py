import threading
import time

import pytest

import spans


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_the_span_minus_its_children():
    recorder = spans.Recorder()
    inner = recorder.wrap(lambda: _spin(0.02), "tasks.inner")

    def outer_body():
        _spin(0.01)
        inner()
        inner()

    outer = recorder.wrap(outer_body, "engines.outer")
    recorder.set_phase(spans.PHASE_PASS)
    with recorder.span("bench.pass"):
        outer()
    table = recorder.table()
    assert table.calls("tasks.inner") == 2 and table.calls("engines.outer") == 1
    assert table.busy("tasks.inner") == pytest.approx(0.04, abs=0.01)
    assert table.busy("engines.outer") == pytest.approx(0.05, abs=0.01)
    assert table.self_seconds("engines.outer") == pytest.approx(0.01, abs=0.005)
    shares = table.layer_self(spans.PHASE_PASS)
    assert shares["tasks"] == pytest.approx(0.04, abs=0.01)
    assert shares["bench"] < 0.005  # nothing unattributed
    assert table.layer_self(spans.PHASE_SETUP).get("tasks", 0.0) == 0.0


def test_a_family_nested_in_itself_is_counted_once():
    recorder = spans.Recorder()
    leaf = recorder.wrap(lambda: _spin(0.01), "tuning.train")
    root = recorder.wrap(leaf, "tuning.train.build")
    root()
    table = recorder.table()
    assert table.calls("tuning.train") == 2
    assert table.busy("tuning.train") == pytest.approx(0.01, abs=0.005)


def test_a_family_is_counted_once_through_a_span_of_another_family():
    # partition_graph -> cache lookup -> builder, were the builder named
    # inside the entry point's family: only the outermost span counts.
    recorder = spans.Recorder()
    builder = recorder.wrap(lambda: _spin(0.02), "graph.partition.build")
    lookup = recorder.wrap(builder, "perf.cache.artifact")

    def entry():
        _spin(0.01)
        lookup()

    recorder.wrap(entry, "graph.partition")()
    table = recorder.table()
    outer = float(table.durations("graph.partition").max())
    assert outer == pytest.approx(0.03, abs=0.01)
    assert table.busy("graph.partition") == pytest.approx(outer, abs=1e-9)


def test_only_the_main_thread_records():
    recorder = spans.Recorder()
    work = recorder.wrap(lambda: 7, "graph.csr.work")
    results = []
    thread = threading.Thread(target=lambda: results.append(work()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and results == [7]
    assert len(recorder.start) == 0
    assert work() == 7 and len(recorder.start) == 1


def test_layers():
    assert spans.layer_of("graph.csr.expand") == "graph.csr"
    assert spans.layer_of("graph.gen") == "graph"
    assert spans.layer_of("perf.cache.artifact") == "perf.cache"
    assert spans.layer_of("bench.pass") == "bench"
    assert spans.layer_of("mystery") == "other"


def test_install_rebinds_by_name_imports_and_uninstall_restores():
    import repro.engines.base as engine_base
    import repro.graph.partition as partition
    from repro.graph.generators import chung_lu
    from repro.tasks.base import TaskKernel

    original = partition.partition_graph
    original_step = TaskKernel.__dict__["step"]
    assert engine_base.partition_graph is original  # imported by name
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert partition.partition_graph is not original
        assert engine_base.partition_graph is partition.partition_graph
        assert TaskKernel.__dict__["step"] is not original_step
        graph = chung_lu(200, 4.0, seed=3)
        engine_base.partition_graph(graph, 4, "hash")
    finally:
        recorder.uninstall()
    assert partition.partition_graph is original
    assert engine_base.partition_graph is original
    assert TaskKernel.__dict__["step"] is original_step
    table = recorder.table()
    # the call, and under it the cache lookup and the builder it ran on
    # the miss, which is named outside the entry point's family
    assert table.calls("graph.build.partition") == 1
    assert table.calls("graph.partition") == 1
    assert table.calls("perf.cache.artifact") == 1
    assert table.busy("graph.partition") == pytest.approx(table.durations("graph.partition")[0])
    assert table.busy("graph.partition") > table.busy("graph.build.partition") > 0
    before = len(recorder.start)
    engine_base.partition_graph(graph, 4, "hash")
    assert len(recorder.start) == before  # nothing records once uninstalled


def test_dump_round_trips(tmp_path):
    import json

    recorder = spans.Recorder()
    recorder.wrap(lambda: None, "sim.cost")()
    target = tmp_path / "trace.json"
    recorder.dump(str(target))
    data = json.loads(target.read_text())
    assert data["names"] == ["sim.cost"] and len(data["spans"]) == 1
    name_id, start, end, parent, phase = data["spans"][0]
    assert (name_id, parent, phase) == (0, -1, spans.PHASE_OTHER) and end >= start
