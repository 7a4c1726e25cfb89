import json

import pytest

import workloads
from conftest import ROOT


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("smoke", [False, True])
def test_same_seed_same_inputs(name, smoke):
    first = workloads.generate(name, 1234, smoke)
    again = workloads.generate(name, 1234, smoke)
    assert workloads.input_digest(first) == workloads.input_digest(again)
    assert workloads.input_digest(first) != workloads.input_digest(
        workloads.generate(name, 1235, smoke)
    )
    json.dumps(first)  # plain data only


def test_default_seed_and_any_int():
    assert workloads.generate("jobs_bppr")["jobs"]
    assert workloads.generate("jobs_bppr", -5)["jobs"]
    with pytest.raises(ValueError):
        workloads.generate("nope")


def test_every_workload_documents_itself():
    for name, build in workloads.WORKLOADS.items():
        assert build.__doc__ and len(build.__doc__) > 100, name


def test_sharded_and_streaming_reuse_the_traversal_jobs():
    base = {j["id"]: j for j in workloads.generate("jobs_traversal", 9)["jobs"]}
    streamed = {j["id"]: j for j in workloads.generate("jobs_streaming", 9)["jobs"]}
    sharded = {j["id"]: j for j in workloads.generate("jobs_sharded", 9)["jobs"]}
    assert streamed == base
    assert sharded and all(j["engine"] == "pregel+" and base[i] == j for i, j in sharded.items())


def test_request_streams_offer_the_same_work_for_every_seed():
    for name in ("serve_backlog", "serve_cached"):
        a = workloads.generate(name, 1)["requests"]
        b = workloads.generate(name, 2)["requests"]
        assert sorted((r[1], r[2]) for r in a) == sorted((r[1], r[2]) for r in b)
        assert len({r[0] for r in a}) == len(a)


def test_request_streams_support_a_99th_percentile():
    import stats

    for name in ("serve_backlog", "serve_cached"):
        count = len(workloads.generate(name, 1)["requests"])
        assert count >= 4000  # forty samples beyond the percentile
        assert stats.supported_percentile(count, 99) == 99


def test_zipf_units_are_exact():
    units = workloads._zipf_units(800, 1.1, 256)
    assert len(units) == 800 and min(units) == 1.0 and max(units) <= 256.0
    assert units.count(1.0) > units.count(2.0) > units.count(8.0)


def test_smoke_is_much_smaller():
    for name in ("jobs_traversal", "jobs_bppr"):
        assert len(workloads.generate(name, 1, True)["jobs"]) * 2 <= len(workloads.generate(name, 1)["jobs"])
    for name in ("serve_backlog", "serve_cached"):
        assert len(workloads.generate(name, 1, True)["requests"]) * 10 <= len(workloads.generate(name, 1)["requests"])


def test_restated_program_constants_still_match_the_program():
    from repro.engines.registry import ENGINE_NAMES
    from repro.experiments import list_experiments
    from repro.sched.policy import TABLE4_ROUTES

    assert list(workloads.EXPERIMENT_IDS) == list_experiments()
    assert list(workloads.ALL_ENGINES) == list(ENGINE_NAMES)
    assert workloads.TABLE4_ROUTES == dict(TABLE4_ROUTES)


def test_benchmark_json_names_the_workloads():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    for eid in workloads.EXPERIMENT_IDS:
        assert f"experiments.{eid}_s" in {m["name"] for m in contract["per_layer"]}
