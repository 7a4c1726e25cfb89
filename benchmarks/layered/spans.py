"""Outside-in span recorder for the traced run.

The benchmark wraps the public entry points of each ``repro`` layer from
here — nothing inside ``src/`` knows it is being traced. A wrapper
appends ``(name, start, end, parent)`` to in-memory arrays; nothing is
written until the run ends. The codebase imports by name (``from x
import f``), so :func:`install` rebinds every ``repro.*`` module global
that still points at the original function, and :func:`uninstall`
restores them, which lets one child alternate untraced and traced
passes.

Only the main thread records: kernel-pool worker threads call straight
through, so a sharded round is one span on the dispatching thread.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: module-level functions: (module, attribute, span name)
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.datasets", "load_dataset", "graph.load_dataset"),
    ("repro.graph.build", "build_csr_on_disk", "graph.build_ooc"),
    ("repro.graph.io", "open_mapped", "graph.open_mapped"),
    ("repro.graph.partition", "partition_graph", "graph.partition"),
    ("repro.graph.mirrors", "build_mirror_plan", "graph.mirror_plan"),
    ("repro.graph.csr", "segment_min", "graph.csr.segment_min"),
    ("repro.graph.csr", "segment_sum", "graph.csr.segment_sum"),
    ("repro.graph.csr", "scatter_min_dense", "graph.csr.scatter_dense"),
    ("repro.graph.csr", "dedup_pairs", "graph.csr.dedup"),
    ("repro.graph.csr", "dedup_pairs_dense", "graph.csr.dedup"),
    ("repro.graph.csr", "propagate_mass", "graph.csr.propagate_mass"),
    ("repro.graph.csr", "segment_min_streaming", "graph.csr.stream.segment_min"),
    ("repro.graph.csr", "segment_sum_streaming", "graph.csr.stream.segment_sum"),
    ("repro.graph.csr", "_propagate_mass_streaming", "graph.csr.stream.propagate_mass"),
    ("repro.graph.csr", "segment_min_sharded", "graph.csr.sharded.segment_min"),
    ("repro.graph.csr", "segment_sum_sharded", "graph.csr.sharded.segment_sum"),
    ("repro.graph.csr", "_propagate_mass_sharded", "graph.csr.sharded.propagate_mass"),
    ("repro.perf.kernel_pool", "run_sharded", "perf.kernel_pool.run"),
    ("repro.messages.combine", "combined_walk_messages", "messages.combine"),
    ("repro.sim.metrics", "pack_job", "sim.pack_job"),
    ("repro.sim.metrics", "clone_job", "sim.clone_job"),
    ("repro.tuning.trainer", "train_memory_models", "tuning.train"),
    ("repro.tuning.lma", "levenberg_marquardt", "tuning.lma"),
    ("repro.tuning.planner", "plan_batches", "tuning.plan"),
)

#: methods: (module, class, attribute, span name)
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.cost", "CostModel", "round_cost", "sim.cost"),
    ("repro.engines.base", "SimulatedEngine", "run_job", "engines.run_job"),
    ("repro.engines.base", "SimulatedEngine", "open_session", "engines.open_session"),
    ("repro.tuning.calibrate", "Calibrator", "train", "tuning.train"),
    ("repro.tuning.calibrate", "Calibrator", "ask", "tuning.plan"),
    ("repro.tuning.calibrate", "Calibrator", "tell", "tuning.tell"),
    ("repro.tuning.calibrate", "Calibrator", "refit", "tuning.refit"),
    ("repro.sched.admission", "AdmissionController", "admit", "sched.admit"),
    ("repro.sched.service", "SchedulerService", "run", "sched.run"),
    ("repro.perf.cache", "ResultCache", "lookup", "perf.cache.result_lookup"),
    ("repro.perf.cache", "ResultCache", "complete", "perf.cache.result_store"),
    ("repro.perf.cache", "ResultCache", "enlist", "perf.cache.result_enlist"),
)

#: generators whose yields are counted, not timed: (module, attr, counter)
BLOCK_ITERATORS = (
    ("repro.graph.csr", "iter_row_blocks", "stream_blocks"),
    ("repro.graph.csr", "iter_frontier_blocks", "stream_blocks"),
)

#: artifact kind (``key[0]`` of ``ArtifactCache.get_or_build``) -> span
#: name of the builder closure it runs on a miss, so generation work is
#: attributed to its layer and the cache keeps only its own overhead.
#: A builder that runs under its own wrapped entry point
#: (``partition_graph`` -> cache lookup -> builder) is named outside
#: that entry point's family, so the family counts the call once.
BUILD_SPANS = {
    "dataset": "graph.gen",
    "dataset-mapped": "graph.gen",
    "partition": "graph.build.partition",
    "mirror-plan": "graph.build.mirror_plan",
    "run": "engines.run_uncached",
    "bppr-dense-transition": "tasks.dense_transition",
    "calibration": "tuning.train.build",
}

#: longest prefix wins
LAYERS = (
    "graph.csr", "graph", "tasks", "messages", "sim", "engines", "batching",
    "tuning", "sched", "perf.cache", "perf.kernel_pool", "experiments", "bench",
)

PHASE_OTHER, PHASE_SETUP, PHASE_PASS = 0, 1, 2


def layer_of(name: str) -> str:
    for layer in sorted(LAYERS, key=len, reverse=True):
        if name == layer or name.startswith(layer + "."):
            return layer
    return "other"


class Recorder:
    """Span arrays plus the patch list that feeds them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._phase = PHASE_OTHER
        self._main = threading.get_ident()
        self.counters: Dict[str, int] = {}
        self.peaks: Dict[str, int] = {}
        #: (owner, attribute, original, replacement)
        self._patches: List[Tuple[object, str, object, object]] = []
        self.installed = False

    # -- recording ------------------------------------------------------
    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_phase(self, phase: int) -> None:
        self._phase = phase

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.phase.append(self._phase)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start[index] = perf_counter()
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for spans the benchmark records itself."""
        return _Span(self, self.intern(name))

    def wrap(self, fn: Callable, name: str, pick: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name`` (or ``pick(*args)``'s name)."""
        fixed = self.intern(name)
        main = self._main
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            index = open_(fixed if pick is None else pick(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def count_calls(self, fn: Callable, counter: str) -> Callable:
        """Count-only wrapper for functions too hot to time."""
        counters = self.counters
        counters.setdefault(counter, 0)

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def count_yields(self, fn: Callable, counter: str) -> Callable:
        counters, peaks = self.counters, self.peaks
        counters.setdefault(counter, 0)
        peaks.setdefault(counter, 0)

        def counted(*args, **kwargs):
            produced = 0
            try:
                for item in fn(*args, **kwargs):
                    produced += 1
                    yield item
            finally:
                counters[counter] += produced
                if produced > peaks[counter]:
                    peaks[counter] = produced

        return counted

    # -- patching -------------------------------------------------------
    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original, replacement))

    def _patch_function(self, module_name: str, attribute: str, make: Callable) -> None:
        original = getattr(importlib.import_module(module_name), attribute)
        self._rebind(original, make(original))

    def _rebind(self, original: object, replacement: object) -> None:
        """Point every ``repro.*`` module global that is ``original`` at
        ``replacement`` (the codebase imports by name)."""
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, key, replacement)

    def _patch_method(self, cls: type, attribute: str, make: Callable) -> None:
        raw = cls.__dict__[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patch(cls, attribute, replacement)

    def prepare(self) -> None:
        """Import every ``repro`` module and build the patch list (once)."""
        if self._patches:
            return
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for module_name, attribute, name in FUNCTIONS:
            self._patch_function(module_name, attribute, lambda fn, n=name: self.wrap(fn, n))
        for module_name, attribute, counter in BLOCK_ITERATORS:
            self._patch_function(module_name, attribute, lambda fn, c=counter: self.count_yields(fn, c))
        for module_name, class_name, attribute, name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch_method(cls, attribute, lambda fn, n=name: self.wrap(fn, n))
        self._prepare_special()

    def _prepare_special(self) -> None:
        from repro.messages.routing import MessageRouter
        from repro.perf.cache import ArtifactCache
        from repro.sched.policy import ServicePolicy
        from repro.tasks.base import TaskKernel

        # One ``step`` on the base class serves every kernel; the span
        # is named after the concrete task.
        step_ids: Dict[type, int] = {}

        def step_name(kernel, *_):
            cls = type(kernel)
            if cls not in step_ids:
                task = cls.__name__.lower().replace("kernel", "")
                step_ids[cls] = self.intern(f"tasks.step.{task}")
            return step_ids[cls]

        self._patch_method(TaskKernel, "step", lambda fn: self.wrap(fn, "tasks.step", pick=step_name))

        # The scheduler's preemption check runs as a callback inside
        # the engine's round loop; give it back to the sched layer.
        from repro.engines.base import EngineSession

        check = self.intern("sched.preempt_check")
        open_span, close_span = self.open, self.close

        def batch_entry(fn):
            def run(session, *args, should_suspend=None, **kwargs):
                callback = should_suspend
                if callback is not None:
                    def should_suspend(batch):
                        index = open_span(check)
                        try:
                            return callback(batch)
                        finally:
                            close_span(index)
                return fn(session, *args, should_suspend=should_suspend, **kwargs)

            return self.wrap(run, "engines.run_batch")

        for attribute in ("run_batch", "resume"):
            self._patch_method(EngineSession, attribute, batch_entry)

        # One span name per experiment id.
        def experiment_name(experiment_id, *_):
            return self.intern(f"experiments.{experiment_id.strip().lower()}")

        self._patch_function(
            "repro.experiments.runner", "run_experiment",
            lambda fn: self.wrap(fn, "experiments.run", pick=experiment_name),
        )

        # expand_frontier also reports how many arcs it produced.
        def counting_expand(fn):
            counters = self.counters
            counters.setdefault("expand_arcs", 0)

            def expand(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters["expand_arcs"] += int(result[0].size)
                return result

            return self.wrap(expand, "graph.csr.expand")

        self._patch_function("repro.graph.csr", "expand_frontier", counting_expand)

        # The artifact store reaches pack_job through this serializer
        # object, which captured the function when it was built.
        from repro.perf.cache import ArraySerializer
        from repro.sim.metrics import JOB_SERIALIZER

        self._rebind(JOB_SERIALIZER, ArraySerializer(
            pack=self.wrap(JOB_SERIALIZER.pack, "sim.pack_job"),
            unpack=JOB_SERIALIZER.unpack,
        ))

        def routers(base):
            for sub in base.__subclasses__():
                yield sub
                yield from routers(sub)

        for cls in routers(MessageRouter):
            if "route" in cls.__dict__:
                self._patch_method(cls, "route", lambda fn: self.wrap(fn, "messages.route"))

        # Called once per queued request per decision: counted, not timed.
        self._patch_method(
            ServicePolicy, "selection_key",
            lambda fn: self.count_calls(fn, "selection_keys"),
        )

        lookup = self.intern("perf.cache.artifact")
        build_ids = {kind: self.intern(name) for kind, name in BUILD_SPANS.items()}
        other_build = self.intern("perf.cache.build_other")
        main = self._main
        open_, close = self.open, self.close
        original = ArtifactCache.__dict__["get_or_build"]

        def get_or_build(cache, key, build, *args, **kwargs):
            if threading.get_ident() != main:
                return original(cache, key, build, *args, **kwargs)
            build_id = build_ids.get(key[0] if key else None, other_build)

            def timed_build():
                inner = open_(build_id)
                try:
                    return build()
                finally:
                    close(inner)

            index = open_(lookup)
            try:
                return original(cache, key, timed_build, *args, **kwargs)
            finally:
                close(index)

        self._patch(ArtifactCache, "get_or_build", get_or_build)

    def install(self) -> None:
        self.prepare()
        if not self.installed:
            for owner, attribute, _, replacement in self._patches:
                setattr(owner, attribute, replacement)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attribute, original, _ in self._patches:
                setattr(owner, attribute, original)
            self.installed = False

    # -- analysis -------------------------------------------------------
    def table(self) -> "SpanTable":
        return SpanTable(self)

    def dump(self, path: str) -> None:
        """Write every span as ``[name_id, start, end, parent, phase]``."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": %s, "counters": %s, "spans": [\n' % (
                json.dumps(self.names), json.dumps(self.counters)))
            last = len(self.start) - 1
            for i in range(len(self.start)):
                fh.write("[%d,%.7f,%.7f,%d,%d]%s\n" % (
                    self.name_id[i], self.start[i] - origin, self.end[i] - origin,
                    self.parent[i], self.phase[i], "" if i == last else ","))
            fh.write("]}\n")


class _Span:
    def __init__(self, recorder: Recorder, name_id: int) -> None:
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self) -> "_Span":
        self._index = self._recorder.open(self._name_id)
        return self

    def __exit__(self, *exc) -> None:
        self._recorder.close(self._index)


class SpanTable:
    """Per-name totals of a finished recording.

    ``busy`` is the summed duration of a name's spans, ``self`` is that
    minus the part its direct children cover, both restricted to one
    phase (setup or pass) when asked.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.names = list(recorder.names)
        count = len(recorder.start)
        # Copies: a buffer view would pin the arrays against appends.
        self.name_id = np.array(recorder.name_id, dtype=np.intc)
        self.parent = np.array(recorder.parent, dtype=np.intc)
        self.phase = np.array(recorder.phase, dtype=np.int8)
        self.duration = np.array(recorder.end, dtype=np.float64) - np.array(recorder.start, dtype=np.float64)
        covered = np.zeros(count)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    def _mask(self, name: str, phase: Optional[int]) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n == name or n.startswith(name + ".")]
        mask = np.isin(self.name_id, ids)
        if phase is not None:
            mask &= self.phase == phase
        return mask

    def calls(self, name: str, phase: Optional[int] = None) -> int:
        return int(self._mask(name, phase).sum())

    def busy(self, name: str, phase: Optional[int] = None) -> float:
        """Summed duration of ``name`` and its dotted sub-names; a span
        with another span of the same family anywhere above it is not
        counted twice."""
        mask = self._mask(name, phase)
        rows = np.flatnonzero(mask)
        nested = np.zeros(len(rows), dtype=bool)
        ancestor = self.parent[rows]
        while True:  # one step up the tree per turn; spans nest a few deep
            live = np.flatnonzero((ancestor >= 0) & ~nested)
            if not len(live):
                break
            nested[live] = mask[ancestor[live]]
            ancestor[live] = self.parent[ancestor[live]]
        return float(self.duration[rows[~nested]].sum())

    def self_seconds(self, name: str, phase: Optional[int] = None) -> float:
        return float(self.self_time[self._mask(name, phase)].sum())

    def durations(self, name: str, phase: Optional[int] = None) -> np.ndarray:
        return self.duration[self._mask(name, phase)]

    def layer_self(self, phase: int) -> Dict[str, float]:
        """Self seconds per layer inside one phase."""
        layers = np.array([layer_of(n) for n in self.names])
        totals: Dict[str, float] = {}
        in_phase = self.phase == phase
        for layer in set(layers.tolist()):
            ids = np.flatnonzero(layers == layer)
            mask = np.isin(self.name_id, ids) & in_phase
            totals[layer] = float(self.self_time[mask].sum())
        return totals
