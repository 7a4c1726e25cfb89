"""Online ask-tell calibration of the memory/cost models (DESIGN.md §15).

The Section-5 trainer fits ``M*``/``Mr`` once at startup from a synthetic
probe ladder and never touches them again, yet a long-lived service
executes thousands of real batches whose observed peaks and seconds are
strictly better training points. This module restructures that tuning
flow around an *ask-tell* loop:

- the planner **asks** for a prediction (:meth:`Calibrator.ask`);
- the engine **tells** an observed ``(workload, peak, residual,
  seconds)`` back after every executed batch
  (:meth:`Calibrator.tell`);
- the LMA fit updates incrementally with residual-trend drift
  detection — a windowed mean of standardized residuals against the
  model of the last refit — and every refit re-applies the
  overload-safe envelope so ``predict(w) >= max observed peak at w``
  stays invariant.

Startup probe training is just the calibrator's first tells
(:meth:`Calibrator.train` collects the probe ladder and seeds the
sample set the refits extend). The calibrator persists nothing of its
own: every probe is an engine run, which the artifact cache already
keeps as a ``run-*.npz`` archive, so a service restart over a warm
cache directory reads the probes back, simulates no probe round, and
refits.

Determinism contract: tells are order-insensitive within a refit window
(the refit sorts its sample set), and the initial fit is bit-identical
to :func:`repro.tuning.trainer.train_memory_models`, so a warm restart
refits on the cold run's probe samples and replays its refit trajectory
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engines.base import SimulatedEngine
from repro.errors import TuningError
from repro.rng import SeedLike
from repro.tuning.memory_model import MemoryCostModel, PowerLawModel
from repro.tuning.trainer import (
    TaskFactory,
    TrainingSample,
    collect_training_samples,
    fit_memory_models,
    probe_workloads,
)

__all__ = [
    "CalibrationStats",
    "Calibrator",
    "DRIFT_WINDOW",
    "DRIFT_Z_THRESHOLD",
]

#: Number of consecutive tells whose standardized residuals are averaged
#: before the drift detector may fire.
DRIFT_WINDOW = 8

#: Drift fires when the window-mean standardized residual leaves
#: ``[-threshold, +threshold]``. Set well above per-tell measurement
#: noise so jitter never triggers a refit.
DRIFT_Z_THRESHOLD = 1.5

#: Standardized residuals use ``max(rmse, floor * |prediction|)`` as the
#: scale, so a near-perfect fit (rmse ~ 0) does not turn benign noise
#: into huge z-scores.
RELATIVE_SCALE_FLOOR = 0.05


@dataclass
class CalibrationStats:
    """Counters for one calibrator's trajectory, surfaced under
    ``"calibration"`` in ``ServiceMetrics.to_dict``."""

    #: probe runs the ladder asked for, simulated or read back from the
    #: artifact cache.
    training_runs: int = 0
    tells: int = 0
    refits: int = 0
    drift_events: int = 0
    #: immediate envelope inflations on under-predicted tells.
    envelope_bumps: int = 0
    #: peak-model fit RMSE at the initial fit and after the last refit.
    rmse_before: float = 0.0
    rmse_after: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for ``ServiceMetrics.calibration``."""
        return {
            "training_runs": self.training_runs,
            "tells": self.tells,
            "refits": self.refits,
            "drift_events": self.drift_events,
            "envelope_bumps": self.envelope_bumps,
            "rmse_before": self.rmse_before,
            "rmse_after": self.rmse_after,
        }


def _envelope_exact(
    model: PowerLawModel, points: Sequence[Tuple[float, float]]
) -> PowerLawModel:
    """Raise ``a`` to the smallest value with ``model(w) >= y`` for every
    point — the overload-safe envelope the refits maintain.

    Unlike the trainer's ratio-form envelope this is exact for any sign
    of ``c``, and taking the max of the required ``a`` values makes it
    order-insensitive.
    """
    a = model.a
    for w, y in points:
        if w <= 0:
            continue
        needed = (y - model.c) / float(np.power(w, model.b))
        if needed > a:
            a = needed
    if a == model.a:
        return model
    return PowerLawModel(a=a, b=model.b, c=model.c, rmse=model.rmse)


class Calibrator:
    """Ask-tell calibration loop for one (engine, task kind).

    Built by :meth:`train`: run the probe ladder (the calibrator's first
    tells) and fit; bit-identical to
    :func:`~repro.tuning.trainer.train_memory_models`.
    """

    def __init__(
        self,
        model: MemoryCostModel,
        samples: Sequence[TrainingSample],
        *,
        seed: SeedLike = None,
        window: int = DRIFT_WINDOW,
        threshold: float = DRIFT_Z_THRESHOLD,
    ) -> None:
        self._model = model
        self._samples: List[TrainingSample] = list(samples)
        #: (done workload, residual bytes) pairs the residual refit uses;
        #: probes are 1-batch jobs so done == workload for them.
        self._residual_points: List[Tuple[float, float]] = [
            (s.workload, s.residual_memory_bytes)
            for s in self._samples
            if not s.overloaded
        ]
        self.seed = seed
        self.window = int(window)
        self.threshold = float(threshold)
        self.stats = CalibrationStats(
            rmse_before=model.peak.rmse, rmse_after=model.peak.rmse
        )
        #: drift is measured against the model of the last refit, not the
        #: envelope-bumped live model — a regime shift keeps producing
        #: large z-scores even after the first bump covers it.
        self._reference_peak = model.peak
        self._zscores: List[float] = []
        #: bumped on every model change so consumers can re-price cheaply.
        self.version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls, samples: Sequence[TrainingSample], *, seed: SeedLike = None
    ) -> "Calibrator":
        """Fit from already-collected probe samples (the first tells)."""
        model = fit_memory_models(samples, seed=seed)
        cal = cls(model, samples, seed=seed)
        cal.stats.training_runs = len(samples)
        return cal

    @classmethod
    def train(
        cls,
        engine: SimulatedEngine,
        task_factory: TaskFactory,
        total_workload: float,
        *,
        seed: SeedLike = None,
    ) -> "Calibrator":
        """Run the probe ladder and fit.

        The probe runs are exactly the trainer's, so the resulting
        memory model is bit-identical to
        :func:`~repro.tuning.trainer.train_memory_models`; over a warm
        artifact cache every probe is read back from its run archive.
        """
        ladder = probe_workloads(total_workload)
        samples = collect_training_samples(
            engine, task_factory, ladder, seed=seed
        )
        return cls.from_samples(samples, seed=seed)

    # ------------------------------------------------------------------
    # Ask / tell
    # ------------------------------------------------------------------
    @property
    def model(self) -> MemoryCostModel:
        """The (M*, Mr) pair the planner consumes right now."""
        return self._model

    def ask(self, workload: float, done_workload: float = 0.0) -> float:
        """Predicted peak bytes for a batch of ``workload`` on top of the
        residual of ``done_workload`` (Equation 1's left side)."""
        return float(self._model.projected_peak(workload, done_workload))

    def tell(
        self,
        workload: float,
        peak_memory_bytes: float,
        residual_memory_bytes: float,
        seconds: float,
        *,
        done_workload: Optional[float] = None,
        overloaded: bool = False,
    ) -> None:
        """Feed one executed batch's observed statistics back.

        Order-insensitive within a refit window: the sample set is a
        multiset, envelope bumps take the max required ``a``, and the
        refit sorts before fitting — telling the same observations in a
        different order yields the same refitted model.
        """
        workload = float(workload)
        self.stats.tells += 1
        self._samples.append(
            TrainingSample(
                workload=workload,
                peak_memory_bytes=float(peak_memory_bytes),
                residual_memory_bytes=float(residual_memory_bytes),
                seconds=float(seconds),
                overloaded=bool(overloaded),
            )
        )
        if overloaded:
            # An aborted batch's stats are censored (the run was cut
            # off); keep the sample out of the fits and the detector.
            return
        done = workload if done_workload is None else float(done_workload)
        self._residual_points.append((done, float(residual_memory_bytes)))
        predicted = float(self._model.peak(workload))
        if peak_memory_bytes > predicted:
            bumped = _envelope_exact(
                self._model.peak, [(workload, float(peak_memory_bytes))]
            )
            if bumped is not self._model.peak:
                self._model = MemoryCostModel(
                    peak=bumped, residual=self._model.residual
                )
                self.stats.envelope_bumps += 1
                self.version += 1
        reference = float(self._reference_peak(workload))
        scale = max(
            self._reference_peak.rmse,
            RELATIVE_SCALE_FLOOR * abs(reference),
            1e-9,
        )
        self._zscores.append((float(peak_memory_bytes) - reference) / scale)
        if len(self._zscores) >= self.window:
            recent = self._zscores[-self.window :]
            if abs(sum(recent) / len(recent)) > self.threshold:
                self.stats.drift_events += 1
                self.refit()

    def refit(self) -> MemoryCostModel:
        """Refit both memory models from every sample seen so far.

        The sample multiset is sorted first, so the fit depends only on
        *which* observations were told, not their order; the exact
        envelope is re-applied over every non-overloaded sample to keep
        the overload-safety invariant.
        """
        ordered = sorted(
            self._samples,
            key=lambda s: (
                s.workload,
                s.peak_memory_bytes,
                s.residual_memory_bytes,
                s.seconds,
                s.overloaded,
            ),
        )
        usable = [s for s in ordered if not s.overloaded]
        if len(usable) >= 3:
            peak = PowerLawModel.fit(
                [s.workload for s in usable],
                [s.peak_memory_bytes for s in usable],
                seed=self.seed,
            )
            peak = _envelope_exact(
                peak,
                [(s.workload, s.peak_memory_bytes) for s in usable],
            )
            residual_points = sorted(self._residual_points)
            try:
                residual = PowerLawModel.fit(
                    [w for w, _ in residual_points],
                    [r for _, r in residual_points],
                    seed=self.seed,
                )
            except TuningError:
                residual = self._model.residual
            self._model = MemoryCostModel(peak=peak, residual=residual)
            self._reference_peak = peak
            self.stats.refits += 1
            self.stats.rmse_after = peak.rmse
            self.version += 1
        self._zscores.clear()
        return self._model
