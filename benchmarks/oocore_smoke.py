"""Out-of-core smoke test under a hard address-space cap.

Run from the repo root (CI does)::

    python benchmarks/oocore_smoke.py                  # both legs
    python benchmarks/oocore_smoke.py --cap-bytes 2g   # custom cap

The parent forks two children, each with ``RLIMIT_AS`` capped (default
1.25 GiB) around the twitter profile at scale ``--scale`` (default 25,
a ~24 M-arc graph drawn from ~66 M sampled arcs; at scale 50 the
in-RAM build has fit the cap since the cold pipeline was rebuilt):

* the **in-RAM leg** must *fail* — the monolithic edge-list build
  exceeds the cap and dies with ``MemoryError`` (exit code 3); if it
  survives, the cap is meaningless and the smoke test fails;
* the **mapped leg** must *succeed* — with a 256 MiB ``--max-ram``
  streaming budget the same profile is built by the chunked on-disk
  builder — which also writes its ``A^T`` beside the CSR files — and,
  its arcs exceeding one block of that budget
  (``streaming_block_arcs(graph) is not None``), runs a BKHS, an
  MSSP and a BPPR batch end-to-end under the cap, the heavy traversal
  rounds and every walk-mass round reading that ``A^T`` block by block
  (at least one traversal round must pull), and reports its peak RSS,
  pull rounds and ``A^T`` build seconds as JSON.

Exit status is non-zero unless both legs behave as required, making
this the CI gate for the claim "the out-of-core pipeline completes
workloads the in-RAM path cannot".
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

DEFAULT_CAP_BYTES = 1 << 30 | 1 << 28  # 1.25 GiB
DEFAULT_SCALE = 25
STREAM_BUDGET_BYTES = 256 << 20

#: Child exit code for "died of MemoryError", distinct from crashes.
MEMORY_ERROR_EXIT = 3


def _parse_bytes(text: str) -> int:
    suffixes = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    raw = text.strip().lower().rstrip("b")
    multiplier = 1
    if raw and raw[-1] in suffixes:
        multiplier = suffixes[raw[-1]]
        raw = raw[:-1]
    value = int(float(raw) * multiplier)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"bad byte count: {text!r}")
    return value


def _cap_address_space(cap_bytes: int) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))


def _child_in_ram(scale: int, cap_bytes: int) -> int:
    """Build the twitter graph fully in RAM; expected to die at the cap."""
    _cap_address_space(cap_bytes)
    try:
        from repro.graph.datasets import PAPER_DATASETS

        graph = PAPER_DATASETS["twitter"].instantiate(scale=scale)
    except MemoryError:
        print("in-ram: MemoryError at the cap, as expected")
        return MEMORY_ERROR_EXIT
    print(f"in-ram: built {graph.num_arcs} arcs inside the cap")
    return 0


def _child_mapped(scale: int, cap_bytes: int) -> int:
    """Out-of-core path end-to-end: build mapped, stream a BKHS, an
    MSSP and a BPPR batch."""
    _cap_address_space(cap_bytes)
    from repro.graph.csr import configure_streaming, streaming_block_arcs
    from repro.graph.datasets import load_dataset
    from repro.graph.mirrors import build_mirror_plan
    from repro.graph.partition import hash_partition
    from repro.messages.routing import PointToPointRouter
    from repro.perf import memory, timings
    from repro.rng import make_rng
    from repro.tasks.base import make_task

    configure_streaming(max_ram_bytes=STREAM_BUDGET_BYTES)
    memory.note_phase("start")
    graph = load_dataset("twitter", scale=scale)
    if graph.directory is None or streaming_block_arcs(graph) is None:
        print("mapped: load_dataset did not build on disk, or will not stream")
        return 1
    memory.note_phase("build")
    router = PointToPointRouter(
        graph, build_mirror_plan(graph, hash_partition(graph, 4))
    )
    # The two rounds of BKHS (k = 2) from 32 sources can stay under a
    # quarter of the arcs and push (they do at scale 50); a 64-source
    # MSSP batch runs its BFS out and pulls the heavy middle rounds; a
    # BPPR batch (8 walks a vertex) spreads its mass over the A^T row
    # blocks every round until the mass direction settles.
    steps = {}
    for kind, workload in (("bkhs", 32.0), ("mssp", 64.0), ("bppr", 8.0)):
        spec = make_task(kind, graph, workload)
        kernel = spec.make_kernel(
            router, workload, make_rng(123, label="smoke")
        )
        for steps[kind] in range(1, 65):
            if kernel.step().done:
                break
    memory.note_phase("kernel")
    stats = memory.memory_stats()
    phases = timings.snapshot()
    # The heavy rounds pull along the A^T build_csr_on_disk wrote beside
    # the CSR files: one graph-transpose pass, one kernel.pull a round.
    pull_rounds = int(phases.get("kernel.pull", {}).get("count", 0))
    print(
        json.dumps(
            {
                "graph_arcs": int(graph.num_arcs),
                "kernel_steps": steps,
                "pull_rounds": pull_rounds,
                "transpose_build_s": phases["graph-transpose"]["seconds"],
                "cap_bytes": cap_bytes,
                "stream_budget_bytes": STREAM_BUDGET_BYTES,
                "peak_rss_bytes": stats["peak_rss_bytes"],
                "phase_high_water_bytes": stats["phase_high_water_bytes"],
            },
            sort_keys=True,
        )
    )
    if pull_rounds < 1:
        print("mapped: no round pulled along the on-disk A^T")
        return 1
    return 0


def _spawn(child: str, scale: int, cap_bytes: int, cache_dir: str):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    # Prepended, so whatever the parent's path carries (a profiling
    # hook's sitecustomize, say) reaches the children too.
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [
            sys.executable,
            os.fspath(Path(__file__).resolve()),
            "--child",
            child,
            "--scale",
            str(scale),
            "--cap-bytes",
            str(cap_bytes),
        ],
        env=env,
        text=True,
        capture_output=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", choices=["inram", "mapped"])
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument(
        "--cap-bytes", type=_parse_bytes, default=DEFAULT_CAP_BYTES
    )
    args = parser.parse_args(argv)

    if args.child == "inram":
        return _child_in_ram(args.scale, args.cap_bytes)
    if args.child == "mapped":
        return _child_mapped(args.scale, args.cap_bytes)

    failures = 0
    with tempfile.TemporaryDirectory(prefix="oocore-smoke-") as cache_dir:
        in_ram = _spawn("inram", args.scale, args.cap_bytes, cache_dir)
        if in_ram.returncode == MEMORY_ERROR_EXIT:
            print(
                f"PASS in-ram leg: MemoryError under the "
                f"{args.cap_bytes / 2**30:.2f} GiB cap"
            )
        else:
            failures += 1
            print(
                f"FAIL in-ram leg: expected exit {MEMORY_ERROR_EXIT} "
                f"(MemoryError), got {in_ram.returncode}\n"
                f"{in_ram.stdout}{in_ram.stderr}"
            )

        mapped = _spawn("mapped", args.scale, args.cap_bytes, cache_dir)
        if mapped.returncode == 0:
            report = mapped.stdout.strip().splitlines()[-1]
            print(f"PASS mapped leg: {report}")
        else:
            failures += 1
            print(
                f"FAIL mapped leg: exit {mapped.returncode}\n"
                f"{mapped.stdout}{mapped.stderr}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
