"""Chaos smoke test: serve under injected faults, lose zero requests.

Run from the repo root (CI does)::

    python benchmarks/chaos_smoke.py

One PASS/FAIL gate: the preemptive scheduling service runs over a
seeded arrival stream with an injected fault plan, and every request
must complete (zero drops) and a repeat run under the same seed must be
byte-identical — fault recovery and preemption both live on the
simulated clock, so chaos cannot leak nondeterminism.

Exit status is non-zero unless the gate holds, making this the CI gate
for the claim "barrier preemption loses no requests under induced
failures".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

DEFAULT_SEED = 20230328


def _serve_metrics(seed: int):
    from repro.cluster.cluster import cluster_by_name
    from repro.engines.registry import create_engine
    from repro.faults.plan import mixed_fault_plan
    from repro.graph.datasets import load_dataset
    from repro.sched.arrivals import generate_arrivals
    from repro.sched.policy import ServicePolicy
    from repro.sched.service import SchedulerService

    cluster = cluster_by_name("galaxy-8")
    service = SchedulerService(
        create_engine("pregel+", cluster),
        load_dataset("dblp"),
        kinds=("bppr", "mssp"),
        seed=seed,
        task_params={"mssp": {"sample_limit": 16}},
        fault_plan=mixed_fault_plan(seed, cluster.num_machines, 0.05),
        checkpoint_every=2,
        policy=ServicePolicy(
            priority_classes=2, preempt=True, aging_seconds=None
        ),
    )
    requests = generate_arrivals(
        0.5,
        30,
        seed=seed,
        kinds=("bppr", "mssp"),
        priority_classes=2,
        deadlines={0: 240.0},
    )
    return len(requests), service.run(requests)


def _serve_leg(seed: int) -> int:
    # The first service constructed in a process trains its memory
    # models cold, perturbing downstream RNG; warm up once, then
    # compare two warm runs for byte-identity.
    _serve_metrics(seed)
    submitted, first = _serve_metrics(seed)
    _, second = _serve_metrics(seed)

    failures = 0
    if first.completed_tasks != submitted or first.dropped_requests:
        failures += 1
        print(
            f"FAIL serve leg: {submitted} submitted, "
            f"{first.completed_tasks} completed, "
            f"{first.dropped_requests} dropped"
        )
    digests = [
        hashlib.sha256(
            json.dumps(
                m.to_dict(include_latencies=True), sort_keys=True
            ).encode("utf-8")
        ).hexdigest()
        for m in (first, second)
    ]
    if digests[0] != digests[1]:
        failures += 1
        print("FAIL serve leg: repeat run under faults is nondeterministic")
    if not failures:
        summary = first.resilience_summary()
        print(
            "PASS serve leg: "
            + json.dumps(
                {
                    "requests": submitted,
                    "completed": first.completed_tasks,
                    "dropped": first.dropped_requests,
                    "preemptions": summary["preemptions"],
                    "resumes": summary["resumes"],
                    "deadline_misses": summary["deadline_misses"],
                    "digest": digests[0][:16],
                },
                sort_keys=True,
            )
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    return 1 if _serve_leg(args.seed) else 0


if __name__ == "__main__":
    sys.exit(main())
