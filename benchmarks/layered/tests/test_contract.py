"""The driver's contract: BENCHMARK.json limits and the child protocol."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from conftest import LAYERED, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_schema_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/layered"]
    assert contract["command"] == ["python3", "benchmarks/layered/bench.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16 and 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def _child(workload, trace, cwd=ROOT, script=LAYERED / "bench.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["jobs_bppr", "serve_cached", "report_quick"])
@pytest.mark.parametrize("trace", [0, 1])
def test_child_prints_the_contracted_result_line(contract, workload, trace):
    done = _child(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    section = contract["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for spec in section:
        sample = result["metrics"][spec["name"]]
        assert set(sample) == {"value", "unit"} and sample["unit"] == spec["unit"]
        assert isinstance(sample["value"], float)
    if not trace:
        assert all(sample["value"] > 0 for sample in result["metrics"].values())
    assert not list(ROOT.glob(".bench_layered_tmp-*"))  # scratch removed on exit


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LAYERED, tmp_path / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = _child("jobs_bppr", 0, cwd=tmp_path, script=tmp_path / "benchmarks" / "layered" / "bench.py")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_selfcheck_sets_each_hold_both_workload_orders():
    sys.path.insert(0, str(LAYERED))
    import bench

    names = ["a", "b", "c"]
    orders = [bench.workload_order(names, repeat, 2) for repeat in range(8)]
    for dealt in (orders[0::2], orders[1::2]):
        assert names in dealt and names[::-1] in dealt
    # one set: plain alternation
    assert [bench.workload_order(names, r, 1)[0] for r in range(4)] == ["a", "c", "a", "c"]
