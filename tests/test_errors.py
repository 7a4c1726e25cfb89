"""Exception hierarchy contract and strict-mode error context."""

import inspect

import pytest

from repro import errors
from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import galaxy8
from repro.errors import OverloadError, RecoveryError, ReproError
from repro.graph.datasets import load_dataset
from repro.tasks.bppr import bppr_task


class TestHierarchy:
    def test_every_public_exception_derives_from_repro_error(self):
        public = [
            obj
            for name, obj in vars(errors).items()
            if not name.startswith("_")
            and inspect.isclass(obj)
            and issubclass(obj, BaseException)
        ]
        assert len(public) > 10  # the hierarchy, not an accidental import
        for exc in public:
            assert issubclass(exc, ReproError), exc.__name__

    def test_base_is_an_exception(self):
        # Catchable by `except Exception`, but not swallowing
        # KeyboardInterrupt/SystemExit.
        assert issubclass(ReproError, Exception)
        assert not issubclass(KeyboardInterrupt, ReproError)


class TestErrorPayloads:
    def test_strict_mode_overload_carries_context(self):
        graph = load_dataset("dblp")
        job = MultiProcessingJob("pregel+", galaxy8())
        with pytest.raises(OverloadError) as excinfo:
            job.run(
                bppr_task(graph, 15000),
                num_batches=1,
                seed=7,
                on_overload="raise",
            )
        error = excinfo.value
        assert error.machine  # names the spec that overloaded
        assert error.peak_memory_bytes > error.limit_bytes > 0
        assert error.batch_index == 0
        assert error.reason in ("memory", "timeout")
        assert error.reason in str(error)

    def test_recovery_error_history(self):
        history = [{"attempt": 1, "reason": "memory"}]
        error = RecoveryError("gave up", history=history)
        assert error.history == history
        assert error.history is not history  # defensive copy
        assert RecoveryError("gave up").history == []
