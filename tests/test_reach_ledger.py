"""The reach ledger's logic (``benchmarks/reach.py``) on a two-module
fixture package: the hook records what a child process enters, an
unreached function must carry a class, classes carry over when the
ledger is rewritten, and the ratchet holds the committed line total."""

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

REACH_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", REACH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["reach"]


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    """``fixture_pkg`` with ``a.py`` (one function the entry point
    calls, one it does not, a method with a nested helper) and ``b.py``
    (nothing called)."""
    root = tmp_path_factory.mktemp("pkg") / "fixture_pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "a.py").write_text(textwrap.dedent('''\
        import functools


        def used():
            return Box().size()


        @functools.lru_cache()
        def unused():
            return 1


        class Box:
            def size(self):
                def helper():
                    return 2

                return helper()
        '''))
    (root / "b.py").write_text(textwrap.dedent('''\
        def orphan(x):
            y = x + 1
            return y
        '''))
    return root


@pytest.fixture(scope="module")
def measured(reach, package):
    """The fixture package's functions and what one child process that
    calls ``fixture_pkg.a.used()`` entered under the hook."""
    command = ("-c", "import fixture_pkg.a as a; a.used()")
    entered = reach.run_entry_points([("call used", command)], package)
    return reach.scan_package(package), entered


def test_the_hook_records_what_a_child_entered(measured, reach):
    functions, entered = measured
    names = {f.name: f for f in functions}
    assert set(names) == {
        "fixture_pkg.a:used",
        "fixture_pkg.a:unused",
        "fixture_pkg.a:Box.size",
        "fixture_pkg.a:Box.size.<locals>.helper",
        "fixture_pkg.b:orphan",
    }
    # A decorated function's code starts at its first decorator.
    assert names["fixture_pkg.a:unused"].first_line == 8
    # Nested lines are the helper's own, never counted twice.
    assert names["fixture_pkg.a:Box.size"].lines == 3
    assert names["fixture_pkg.a:Box.size.<locals>.helper"].lines == 2
    ledger, _ = reach.update_ledger(functions, entered, None)
    assert set(ledger["unreached"]) == {
        "fixture_pkg.a:unused", "fixture_pkg.b:orphan"
    }


def test_an_unclassified_unreached_function_fails(measured, reach):
    functions, entered = measured
    ledger, problems = reach.update_ledger(functions, entered, None)
    assert ledger["unreached"]["fixture_pkg.b:orphan"] == {
        "class": None, "lines": 3
    }
    assert len(problems) == 2
    assert all("no class" in p for p in problems)


def test_classes_carry_over_and_the_ratchet_holds(measured, reach):
    functions, entered = measured
    first, _ = reach.update_ledger(functions, entered, None)
    first["unreached"]["fixture_pkg.a:unused"]["class"] = "oracle"
    first["unreached"]["fixture_pkg.b:orphan"]["class"] = "library"
    committed = json.loads(reach.render(first))  # the file as written
    assert committed == first
    rewritten, problems = reach.update_ledger(functions, entered, committed)
    assert problems == []
    assert rewritten["unreached"] == first["unreached"]
    # Oracle lines are not counted; the library function's are.
    assert rewritten["totals"]["counted_lines"] == 3
    assert rewritten["totals"]["by_class"]["oracle"]["functions"] == 1

    committed["totals"]["counted_lines"] = 2
    _, problems = reach.update_ledger(functions, entered, committed)
    assert problems == ["unreached lines outside oracle grew: 3 > 2 committed"]

    committed["totals"]["counted_lines"] = 3
    committed["unreached"]["fixture_pkg.b:orphan"]["class"] = "dead"
    _, problems = reach.update_ledger(functions, entered, committed)
    assert problems == ["fixture_pkg.b:orphan: classed dead; delete it"]
