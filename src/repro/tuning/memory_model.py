"""Exponential memory models of Equation 2.

``M*(W) = a1·W^b1 + c1`` — maximum memory any machine uses to process a
batch of workload ``W``; ``Mr(W) = a2·W^b2 + c2`` — maximum residual
memory left behind after processing total workload ``W``. "Exponential
functions are used because of their expressiveness": ``b > 1`` means
memory grows faster than the workload, ``b < 1`` slower.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro.errors import TuningError
from repro.tuning.lma import FitResult, fit_power_law


@dataclass(frozen=True)
class PowerLawModel:
    """A fitted ``f(W) = a·W^b + c``."""

    a: float
    b: float
    c: float
    rmse: float = 0.0

    def __call__(self, workload) -> float:
        return self.a * np.power(workload, self.b) + self.c

    def invert(self, value: float) -> float:
        """Solve ``f(W) = value`` for ``W`` (Equation 6's inner step).

        Returns 0 when even a zero workload exceeds ``value``, and
        saturates at ``sys.float_info.max`` when no finite workload
        reaches it (a tiny fitted exponent makes ``1 / b`` huge), so
        callers can truncate the answer to a unit count.
        """
        if self.a <= 0:
            raise TuningError("cannot invert a model with a <= 0")
        if self.b <= 0:
            raise TuningError("cannot invert a model with b <= 0")
        remaining = value - self.c
        if remaining <= 0:
            return 0.0
        try:
            workload = float((remaining / self.a) ** (1.0 / self.b))
        except OverflowError:
            return sys.float_info.max
        # numpy scalars overflow to inf instead of raising.
        return min(workload, sys.float_info.max)

    @classmethod
    def from_fit(cls, result: FitResult) -> "PowerLawModel":
        a, b, c = (float(v) for v in result.params)
        return cls(a=a, b=b, c=c, rmse=result.rmse)

    @classmethod
    def fit(cls, workloads, values, seed=None) -> "PowerLawModel":
        """Fit the model to observed (workload, value) pairs via LMA."""
        result = fit_power_law(
            np.asarray(workloads, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
            seed=seed,
        )
        return cls.from_fit(result)


@dataclass(frozen=True)
class MemoryCostModel:
    """The pair (M*, Mr) the planner consumes (Equation 2)."""

    peak: PowerLawModel
    residual: PowerLawModel

    def projected_peak(self, batch_workload: float, done_workload: float) -> float:
        """Left side of Equation 1 for one batch: residual of everything
        processed so far plus the peak of the in-flight batch."""
        return self.residual(done_workload) + self.peak(batch_workload)
