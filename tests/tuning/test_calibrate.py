"""Property tests for the online ask-tell calibration loop.

The calibrator's contract has three load-bearing guarantees the
scheduler relies on (DESIGN.md §15): tells are order-insensitive within
a refit window (the service's scheduling digest must not depend on
which engine session told first), the overload-safe envelope invariant
``predict(w) >= max observed peak at w`` survives every tell and refit
(admission control would under-budget otherwise), and the drift
detector separates regime shifts from measurement noise (refitting on
jitter would churn the planner for nothing; missing a shift would keep
admission pricing against a stale model).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tuning.calibrate import (
    DRIFT_WINDOW,
    Calibrator,
    calibration_cache_key,
)
from repro.tuning.trainer import TrainingSample

#: Ground-truth generator the synthetic probes and tells share.
TRUE_A, TRUE_B, TRUE_C = 3.0, 1.1, 50.0
PROBE_LADDER = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def true_peak(w: float) -> float:
    return TRUE_A * w**TRUE_B + TRUE_C


def make_sample(w: float, factor: float = 1.0) -> TrainingSample:
    return TrainingSample(
        workload=w,
        peak_memory_bytes=true_peak(w) * factor,
        residual_memory_bytes=0.4 * true_peak(w),
        seconds=0.05 * w**1.05 + 0.2,
        overloaded=False,
    )


def probe_calibrator(seed: int = 5) -> Calibrator:
    return Calibrator.from_samples(
        [make_sample(w) for w in PROBE_LADDER], seed=seed
    )


#: One told observation: (workload, peak, residual, seconds).
tell_strategy = st.tuples(
    st.floats(min_value=2.0, max_value=256.0),
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e5),
    st.floats(min_value=0.01, max_value=10.0),
)


class TestOrderInsensitivity:
    def test_tell_order_does_not_change_the_refit(self):
        @settings(max_examples=40, deadline=None)
        @given(data=st.data())
        def check(data):
            tells = data.draw(
                st.lists(tell_strategy, min_size=1, max_size=10)
            )
            order = data.draw(st.permutations(range(len(tells))))

            def run(indices):
                cal = probe_calibrator()
                for i in indices:
                    w, peak, residual, seconds = tells[i]
                    cal.tell(w, peak, residual, seconds)
                cal.refit()
                return cal

            forward = run(range(len(tells)))
            shuffled = run(order)
            # Same multiset of observations -> identical refitted
            # coefficients, regardless of drift refits that may have
            # fired at different points mid-stream.
            assert forward.model.peak == shuffled.model.peak
            assert forward.model.residual == shuffled.model.residual

        check()


class TestEnvelopeInvariant:
    def test_predictions_cover_every_told_peak(self):
        @settings(max_examples=40, deadline=None)
        @given(tells=st.lists(tell_strategy, min_size=1, max_size=12))
        def check(tells):
            cal = probe_calibrator()
            told = []
            for w, peak, residual, seconds in tells:
                cal.tell(w, peak, residual, seconds)
                told.append((w, peak))
                for tw, tp in told:
                    predicted = float(cal.model.peak(tw))
                    assert predicted >= tp - max(1e-6 * tp, 1e-6)
            # The invariant also survives an explicit full refit.
            cal.refit()
            for tw, tp in told:
                predicted = float(cal.model.peak(tw))
                assert predicted >= tp - max(1e-6 * tp, 1e-6)

        check()


class TestDriftDetector:
    def test_noise_never_fires(self):
        @settings(max_examples=30, deadline=None)
        @given(
            factors=st.lists(
                st.floats(min_value=0.98, max_value=1.02),
                min_size=2 * DRIFT_WINDOW,
                max_size=3 * DRIFT_WINDOW,
            )
        )
        def check(factors):
            cal = probe_calibrator()
            for i, factor in enumerate(factors):
                w = PROBE_LADDER[2 + i % 4]
                sample = make_sample(w, factor)
                cal.tell(
                    sample.workload,
                    sample.peak_memory_bytes,
                    sample.residual_memory_bytes,
                    sample.seconds,
                )
            # +-2% jitter sits far inside the z threshold: the relative
            # scale floor alone caps |z| near 0.4 against the 1.5 gate.
            assert cal.stats.drift_events == 0

        check()

    def test_regime_shift_fires_within_one_window(self):
        cal = probe_calibrator()
        shifted = []
        for i in range(DRIFT_WINDOW):
            w = PROBE_LADDER[2 + i % 4]
            sample = make_sample(w, 1.5)
            shifted.append((w, sample.peak_memory_bytes))
            cal.tell(
                sample.workload,
                sample.peak_memory_bytes,
                sample.residual_memory_bytes,
                sample.seconds,
            )
        assert cal.stats.drift_events == 1
        assert cal.stats.refits == 1
        # The refit absorbed the new regime: the envelope now covers the
        # shifted peaks exactly where they were observed.
        for w, peak in shifted:
            assert float(cal.model.peak(w)) >= peak - 1e-6 * peak

    def test_refit_resets_the_reference(self):
        cal = probe_calibrator()
        for i in range(DRIFT_WINDOW):
            sample = make_sample(PROBE_LADDER[2 + i % 4], 1.5)
            cal.tell(
                sample.workload,
                sample.peak_memory_bytes,
                sample.residual_memory_bytes,
                sample.seconds,
            )
        events = cal.stats.drift_events
        # Post-refit tells from the *new* regime look nominal again.
        for i in range(DRIFT_WINDOW):
            sample = make_sample(PROBE_LADDER[2 + i % 4], 1.5)
            cal.tell(
                sample.workload,
                sample.peak_memory_bytes,
                sample.residual_memory_bytes,
                sample.seconds,
            )
        assert cal.stats.drift_events == events


class TestPersistence:
    def test_pack_unpack_round_trip(self):
        cal = probe_calibrator()
        cal.tell(48.0, true_peak(48.0) * 1.2, 900.0, 2.5)
        warm = Calibrator.unpack(cal.pack(), seed=5)
        assert warm.model.peak == cal.model.peak
        assert warm.model.residual == cal.model.residual
        assert warm.stats.warm_start
        assert warm.stats.training_runs == 0
        assert warm.stats.probe_seconds_saved == pytest.approx(
            sum(0.05 * w**1.05 + 0.2 for w in PROBE_LADDER) + 2.5
        )
        # Refits replay on the identical persisted sample multiset.
        assert warm.refit().peak == cal.refit().peak

    @pytest.mark.parametrize(
        "seconds_row",
        [[0.05, 1.05, 0.2, 0.0], [np.nan] * 4],
        ids=["fitted", "degenerate"],
    )
    def test_archive_with_seconds_row_still_loads_warm(
        self, tmp_path, seconds_row
    ):
        """Archives persisted while a seconds(W) fit existed carry a
        third ``"seconds"`` coefficient row (NaN when that fit was
        degenerate). They must still restore warm — same models, same
        samples, zero probe runs — under the unchanged cache key."""
        from types import SimpleNamespace

        from repro.perf.cache import ArraySerializer, ArtifactCache

        cal = probe_calibrator()
        cal.tell(48.0, true_peak(48.0) * 1.2, 900.0, 2.5)
        archive = dict(cal.pack())
        archive["seconds"] = np.array(seconds_row, dtype=np.float64)
        key = calibration_cache_key("pregel+", "bppr", "fp", 512.0, 5)
        serializer = ArraySerializer(
            pack=lambda arrays: arrays, unpack=lambda arrays: dict(arrays)
        )
        ArtifactCache(directory=str(tmp_path)).get_or_build(
            key, lambda: archive, serializer=serializer
        )

        def exploding_factory(w):
            raise AssertionError("warm restart must not run probes")

        warm = Calibrator.load_or_train(
            SimpleNamespace(name="pregel+"),
            exploding_factory,
            512.0,
            kind="bppr",
            graph_fingerprint="fp",
            seed=5,
            cache=ArtifactCache(directory=str(tmp_path)),
        )
        assert warm.stats.warm_start
        assert warm.stats.training_runs == 0
        assert warm.model.peak == cal.model.peak
        assert warm.model.residual == cal.model.residual
        restored = warm.pack()
        assert "seconds" not in restored
        assert restored["samples"].tobytes() == archive["samples"].tobytes()

    def test_cache_key_separates_settings(self):
        base = calibration_cache_key("pregel+", "bppr", "fp", 512.0, 3)
        assert base != calibration_cache_key(
            "graphlab", "bppr", "fp", 512.0, 3
        )
        assert base != calibration_cache_key(
            "pregel+", "mssp", "fp", 512.0, 3
        )
        assert base != calibration_cache_key(
            "pregel+", "bppr", "fp2", 512.0, 3
        )
        assert base != calibration_cache_key(
            "pregel+", "bppr", "fp", 1024.0, 3
        )
        assert base != calibration_cache_key(
            "pregel+", "bppr", "fp", 512.0, 4
        )


class TestColdFitIdentity:
    def test_cold_fit_matches_train_memory_models(self):
        from repro.cluster.cluster import galaxy8
        from repro.engines.registry import create_engine
        from repro.graph.datasets import load_dataset
        from repro.tasks.bppr import bppr_task
        from repro.tuning.trainer import train_memory_models

        graph = load_dataset("dblp", scale=400)
        cluster = galaxy8(scale=400).with_machines(4)
        factory = lambda w: bppr_task(graph, w)  # noqa: E731
        reference = train_memory_models(
            create_engine("pregel+", cluster), factory, 5120, seed=3
        )
        cal = Calibrator.train(
            create_engine("pregel+", cluster), factory, 5120, seed=3
        )
        assert cal.model.peak == reference.peak
        assert cal.model.residual == reference.residual
        assert cal.stats.training_runs == len(cal.pack()["samples"])

    def test_warm_restart_skips_probes(self, tmp_path):
        from repro.cluster.cluster import galaxy8
        from repro.engines.registry import create_engine
        from repro.graph.datasets import load_dataset
        from repro.perf.cache import ArtifactCache
        from repro.tasks.bppr import bppr_task

        graph = load_dataset("dblp", scale=400)
        cluster = galaxy8(scale=400).with_machines(4)
        factory = lambda w: bppr_task(graph, w)  # noqa: E731
        cache = ArtifactCache(directory=str(tmp_path))
        cold = Calibrator.load_or_train(
            create_engine("pregel+", cluster),
            factory,
            5120,
            kind="bppr",
            graph_fingerprint=graph.fingerprint,
            seed=3,
            cache=cache,
        )
        assert not cold.stats.warm_start
        assert cold.stats.training_runs > 0

        def exploding_factory(w):
            raise AssertionError("warm restart must not run probes")

        warm = Calibrator.load_or_train(
            create_engine("pregel+", cluster),
            exploding_factory,
            5120,
            kind="bppr",
            graph_fingerprint=graph.fingerprint,
            seed=3,
            cache=cache,
        )
        assert warm.stats.warm_start
        assert warm.stats.training_runs == 0
        assert warm.stats.probe_seconds_saved > 0
        assert warm.model.peak == cold.model.peak
        assert warm.model.residual == cold.model.residual
