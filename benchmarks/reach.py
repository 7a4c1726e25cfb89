"""Reach ledger: the ``src/repro`` functions no entry point enters.

Run from the repo root (the ``reach`` CI job does, then checks that the
committed ledger did not change)::

    python benchmarks/reach.py
    git diff --exit-code benchmarks/reach.json

Every command in :data:`ENTRY_POINTS` (the non-pytest commands CI runs)
runs in a child process with a ``sitecustomize`` on ``PYTHONPATH``. It
installs ``sys.setprofile`` and ``threading.setprofile`` hooks that
record every code object the process enters and, at exit (or just
before an ``os.execv``), write the ``src/repro`` ones to a file. Child
processes inherit the hook through ``PYTHONPATH``. The recorded
``(file, first line)`` pairs are mapped to ``module:qualname`` with
``ast``.

``benchmarks/reach.json`` lists every function that no entry point
entered, with its lines and exactly one class from :data:`CLASSES`,
and ends with totals. The tool recomputes the ledger, carries each
committed class forward by ``module:qualname``, rewrites the file and
exits non-zero when

* an unreached function has no class (fill it in, then re-run),
* a function is classed ``dead`` (delete it instead), or
* the unreached lines outside ``oracle`` exceed the committed total.

A function's lines run from its ``def`` to its last line; lines of the
functions nested in it are their own, so every line counts once. The
measure is function reach, not line coverage: a function that is
entered counts as reached whatever its branches did.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "repro"
LEDGER = Path(__file__).resolve().parent / "reach.json"

#: The one class each unreached function carries.
CLASSES = {
    "oracle": "an independent reference the tests check the product against",
    "benchmark-pinned": "a name the frozen benchmark resolves, or a helper "
    "only such names call",
    "library": "public API or a test fixture no command calls",
    "cli": "a subcommand, task or flag combination no CI step runs",
    "safety": "an error, quarantine or overload path only bad input or "
    "overload reaches",
    "dead": "nothing needs it: delete it",
}

#: Classes whose lines the ratchet does not count.
UNCOUNTED = ("oracle",)

_CLI = ("-m", "repro.cli")


def _script(path: str) -> str:
    return str(ROOT / "benchmarks" / path)


_BENCH = (_script("layered/bench.py"),)
_SERVE = (*_CLI, "serve", "--arrivals", "0.5", "--duration", "30",
          "--seed", "42", "--kinds", "bppr,mssp", "--sample-limit", "16")
_PREEMPT = ("--priority-classes", "3", "--deadline", "0=120", "--preempt",
            "--preempt-rule", "eager")
_TENANTS = ("--tenants", "acme,globex", "--tenant-quota", "acme=0.6",
            "--tenant-quota", "globex=0.5", "--route", "table4",
            "--result-cache")


def _traced(workload: str) -> Tuple[str, ...]:
    return (*_BENCH, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", "1")


#: ``(label, python arguments)``, each run with a fresh working
#: directory as its cwd; ``{work}`` is that directory and ``{shared}``
#: one directory every command of a run sees (the warm runs reopen what
#: the cold ones stored). Commands CI repeats unchanged, with no state
#: between the runs, appear once.
ENTRY_POINTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("fault run", (*_CLI, "run", "--workload", "1024", "--batches", "2",
                   "--seed", "42", "--faults", "0.2", "--checkpoint-every",
                   "4", "--json")),
    ("experiment faults", (*_CLI, "experiment", "faults", "--quick")),
    ("serve", _SERVE),
    ("serve preempt", (*_SERVE, *_PREEMPT, "--json")),
    *(
        (f"serve preempt kernel-workers {workers}",
         (*_SERVE, "--scale", "100", *_PREEMPT, "--kernel-workers", workers,
          "--json"))
        for workers in ("0", "2")
    ),
    ("serve multi-tenant", (*_SERVE, *_TENANTS, "--json")),
    *(
        (f"serve calibrated {leg}",
         (*_SERVE, "--calibrate", "--cache-dir", "{shared}/calibrated",
          "--json"))
        for leg in ("cold", "warm")
    ),
    *(
        (f"experiment throughput {flag}",
         (*_CLI, "experiment", "throughput", "--quick", flag))
        for flag in ("--preempt", "--multi-tenant", "--calibrate")
    ),
    *(
        (f"report --quick {leg}",
         (*_CLI, "report", "--quick", "--cache-dir", "{shared}/quick",
          "--output", "{work}/EXPERIMENTS.md"))
        for leg in ("cold", "warm")
    ),
    ("report --quick, no cache directory",
     (*_CLI, "report", "--quick", "--output", "{work}/EXPERIMENTS.md")),
    ("report", (*_CLI, "report", "--output", "{work}/EXPERIMENTS.md")),
    ("run --max-ram", (*_CLI, "run", "--dataset", "twitter", "--scale", "400",
                       "--workload", "64", "--batches", "1", "--seed", "7",
                       "--max-ram", "256m", "--json")),
    ("oocore smoke", (_script("oocore_smoke.py"),)),
    ("chaos smoke", (_script("chaos_smoke.py"),)),
    ("kernel parallel smoke", (_script("kernel_bench.py"), "--parallel-smoke")),
    ("bench --smoke", (*_BENCH, "--smoke")),
    *(
        (f"bench {workload} traced", _traced(workload))
        for workload in ("jobs_bppr", "jobs_traversal", "jobs_streaming",
                         "jobs_sharded", "serve_backlog", "serve_cached")
    ),
    *(
        (f"example {path.name}", (str(path),))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ),
    ("list", (*_CLI, "list")),
    *(
        (command, (*_CLI, command, "--dataset", "dblp", "--task", "bppr",
                   "--workload", "256"))
        for command in ("tune", "sweep")
    ),
    ("run bppr-query", (*_CLI, "run", "--task", "bppr-query",
                        "--workload", "64")),
)

#: Installed as ``sitecustomize`` in every child: records each code
#: object entered, writes the package's ``(file, first line)`` pairs.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_entered = set()


def _profile(frame, event, arg, _add=_entered.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    prefix = os.environ["REACH_PACKAGE_DIR"] + os.sep
    rows = sorted({(code.co_filename, code.co_firstlineno)
                   for code in list(_entered)
                   if code.co_filename.startswith(prefix)})
    name = "%d-%s.tsv" % (os.getpid(), os.urandom(4).hex())
    with open(os.path.join(os.environ["REACH_OUTPUT_DIR"], name), "w") as fh:
        fh.writelines("%s\\t%d\\n" % row for row in rows)


def _execv(*args, _real=os.execv):
    _dump()
    _real(*args)


os.execv = _execv
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` of the package: where its code object starts (the
    first decorator's line) and the lines that are its own."""

    name: str  # module:qualname
    path: str  # relative to the package's parent directory
    first_line: int
    lines: int


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _nested_defs(node: ast.AST) -> Iterable[ast.AST]:
    """The defs inside ``node`` with no other def between."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            yield child
        else:
            yield from _nested_defs(child)


def _span(node: ast.AST) -> int:
    return node.end_lineno - node.lineno + 1


def _abstract(node: ast.AST) -> bool:
    return any(
        getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
        for d in node.decorator_list
    )


def scan_package(package_dir: Path) -> List[Function]:
    """Every function and method ``def`` under ``package_dir`` but the
    ``abstractmethod`` declarations, with the ``module:qualname`` Python
    gives it (a repeated qualname, such as a property's setter, gets a
    ``#2`` suffix in source order)."""
    package_dir = Path(package_dir)
    functions: List[Function] = []
    for path in sorted(package_dir.rglob("*.py")):
        relative = path.relative_to(package_dir.parent)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        seen: Dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _DEFS):
                    if _abstract(child):
                        continue  # a declaration: no body to enter
                    qualname = prefix + child.name
                    seen[qualname] = seen.get(qualname, 0) + 1
                    suffix = "" if seen[qualname] == 1 else f"#{seen[qualname]}"
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    functions.append(Function(
                        f"{module}:{qualname}{suffix}", str(relative), first,
                        _span(child) - sum(map(_span, _nested_defs(child))),
                    ))
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def run_entry_points(
    commands: Iterable[Tuple[str, Sequence[str]]],
    package_dir: Path,
) -> Set[Tuple[str, int]]:
    """Run each command under the hook; the ``(path, first line)`` of
    every package code object any of its processes entered, ``path``
    relative to the package's parent directory."""
    package_dir = Path(os.path.realpath(package_dir))
    entered: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook_dir, out_dir, shared = (
            Path(scratch) / name for name in ("hook", "out", "shared")
        )
        for directory in (hook_dir, out_dir, shared):
            directory.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(package_dir.parent)]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        env["REACH_PACKAGE_DIR"] = str(package_dir)
        env["REACH_OUTPUT_DIR"] = str(out_dir)
        for index, (label, arguments) in enumerate(commands):
            work = Path(scratch) / f"work-{index}"
            work.mkdir()
            argv = [a.format(work=work, shared=shared) for a in arguments]
            tick = time.perf_counter()
            done = subprocess.run(
                [sys.executable, *argv], cwd=work, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            print(f"{label}: exit {done.returncode}, "
                  f"{time.perf_counter() - tick:.1f} s", flush=True)
            if done.returncode != 0:
                raise RuntimeError(f"{label} failed:\n{done.stderr[-4000:]}")
        for record in out_dir.iterdir():
            for line in record.read_text().splitlines():
                filename, first = line.split("\t")
                relative = os.path.relpath(filename, package_dir.parent)
                entered.add((relative, int(first)))
    return entered


def update_ledger(
    functions: Sequence[Function],
    entered: Set[Tuple[str, int]],
    previous: Optional[dict],
) -> Tuple[dict, List[str]]:
    """The new ledger and what is wrong with it. Classes are carried
    forward from ``previous`` by name; the committed total of counted
    unreached lines is ``previous``'s."""
    previous = previous or {}
    classes = {
        name: entry.get("class")
        for name, entry in previous.get("unreached", {}).items()
    }
    unreached = {
        f.name: {"class": classes.get(f.name), "lines": f.lines}
        for f in functions
        if (f.path, f.first_line) not in entered
    }
    by_class: Dict[str, Dict[str, int]] = {}
    problems = []
    for name, entry in sorted(unreached.items()):
        label = entry["class"]
        if label not in CLASSES:
            problems.append(f"{name}: no class (one of {', '.join(CLASSES)})")
            label = entry["class"] = None
        if label == "dead":
            problems.append(f"{name}: classed dead; delete it")
        tally = by_class.setdefault(str(label), {"functions": 0, "lines": 0})
        tally["functions"] += 1
        tally["lines"] += entry["lines"]
    counted = sum(
        entry["lines"] for entry in unreached.values()
        if entry["class"] not in UNCOUNTED
    )
    committed = previous.get("totals", {}).get("counted_lines")
    if committed is not None and counted > committed:
        problems.append(
            f"unreached lines outside {', '.join(UNCOUNTED)} grew: "
            f"{counted} > {committed} committed"
        )
    ledger = {
        "unreached": dict(sorted(unreached.items())),
        "totals": {
            "functions": len(functions),
            "lines": sum(f.lines for f in functions),
            "unreached_functions": len(unreached),
            "unreached_lines": sum(e["lines"] for e in unreached.values()),
            "by_class": dict(sorted(by_class.items())),
            "counted_lines": counted,
        },
    }
    return ledger, problems


def render(ledger: dict) -> str:
    """The ledger as JSON, one unreached function a line."""
    rows = [
        f"    {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
        for name, entry in ledger["unreached"].items()
    ]
    totals = json.dumps(ledger["totals"], indent=2, sort_keys=True)
    return (
        '{\n  "unreached": {\n' + ",\n".join(rows) + "\n  },\n"
        + '  "totals": ' + totals.replace("\n", "\n  ") + "\n}\n"
    )


def main() -> int:
    previous = json.loads(LEDGER.read_text()) if LEDGER.exists() else None
    functions = scan_package(PACKAGE_DIR)
    entered = run_entry_points(ENTRY_POINTS, PACKAGE_DIR)
    ledger, problems = update_ledger(functions, entered, previous)
    LEDGER.write_text(render(ledger))
    totals = ledger["totals"]
    print(f"{totals['unreached_functions']} of {totals['functions']} functions "
          f"unreached, {totals['unreached_lines']} of {totals['lines']} lines; "
          f"{totals['counted_lines']} counted by the ratchet")
    for problem in problems:
        print(f"reach: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
