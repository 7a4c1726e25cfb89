"""The batch-schedule planner (Equations 1, 5, 6).

Objective: find ``S = {W_1, ..., W_t}`` with ``Σ W_i = W`` such that for
every batch ``j``::

    Mr(Σ_{i≤j} W_i) + M*(W_{j+1}) ≤ p · M          (Equation 1)

Computation is iterative (Equation 5/6): batch ``i+1`` receives the
largest workload whose projected peak fits beside the residual of
everything already processed::

    W_{i+1} = ((p·M − a2·(Σ_{j≤i} W_j)^b2 − c2 − c1) / a1)^(1/b1)

Residual memory grows with processed workload, so the schedule
decreases monotonically — the paper's example for W=5120 on 4 machines
is ``[2747, 1388, 644, 266, 75]``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.machine import MachineSpec
from repro.errors import TuningError
from repro.tuning.memory_model import MemoryCostModel

#: Default overloading parameter p: fraction of physical memory a
#: machine may use before it counts as overloaded. Section 4.3 puts the
#: usable capacity at 14/16 ≈ 0.875 of physical memory; planning right
#: at that boundary leaves no slack for model error, so the default
#: keeps a small safety margin below it.
DEFAULT_OVERLOAD_FRACTION = 0.8

#: Safety floor: a planned batch smaller than this fraction of the
#: remaining workload ends the iteration by folding the tail into a
#: final batch (prevents infinitely-shrinking tails).
MIN_BATCH_FRACTION = 0.005


class IncrementalPlanner:
    """Incremental admit/release planning over a fitted memory model.

    The offline :func:`plan_batches` computes a whole schedule in one
    pass; the online scheduler instead needs Equation 5 *one step at a
    time*: "given what has already been admitted (and whose residual
    memory is still resident), how large may the next batch be?". The
    planner tracks the cumulative admitted workload ``done`` and
    answers that question with :meth:`admissible_workload`;
    :meth:`admit` charges a batch against the budget and :meth:`release`
    credits it back when residual memory is flushed (backpressure).

    :func:`plan_batches` is reimplemented on top of this class, so the
    offline schedule is exactly the fixed point of repeatedly admitting
    the largest admissible batch — the degenerate, all-pre-queued case
    of online scheduling.
    """

    def __init__(
        self,
        model: MemoryCostModel,
        machine: MachineSpec,
        overload_fraction: float = DEFAULT_OVERLOAD_FRACTION,
        integral: bool = True,
    ) -> None:
        if not 0 < overload_fraction <= 1:
            raise TuningError("overload_fraction must be in (0, 1]")
        self.model = model
        self.machine = machine
        self.overload_fraction = float(overload_fraction)
        self.integral = integral
        #: ``p·M``: the planning budget in (scaled) bytes.
        self.budget = self.overload_fraction * machine.memory_bytes
        #: Cumulative admitted workload whose residual is still resident.
        self.done = 0.0

    def residual_bytes(self) -> float:
        """Projected residual memory ``Mr(done)`` of the admitted work.

        With nothing admitted this is the model's constant term — the
        fitted floor of the residual curve, matching Equation 5's
        first-batch case.
        """
        if self.done > 0:
            return float(self.model.residual(self.done))
        return float(self.model.residual.c)

    def headroom(self) -> float:
        """Memory left for the next batch's peak (Equation 5 numerator)."""
        return self.budget - self.residual_bytes()

    def admissible_workload(self) -> float:
        """Largest workload whose projected peak fits in the headroom.

        Inverts ``M*`` at the current headroom; with ``integral=True``
        the result is truncated to a whole unit count (walks/sources).
        """
        allowed = self.model.peak.invert(max(self.headroom(), 0.0))
        if self.integral:
            allowed = float(int(allowed))
        return allowed

    def admits(self, workload: float) -> bool:
        """Whether ``workload`` fits beside the current residual."""
        return 0 < workload <= self.admissible_workload()

    def admit(self, workload: float) -> float:
        """Charge ``workload`` against the budget; returns new ``done``.

        Raises :class:`TuningError` if the batch does not fit — callers
        are expected to size batches with :meth:`admissible_workload`
        first, so an oversized admit is a logic error, never a silent
        budget overrun.
        """
        if workload <= 0:
            raise TuningError("admitted workload must be positive")
        if workload > self.admissible_workload():
            raise TuningError(
                f"batch of {workload:g} units exceeds the admissible "
                f"{self.admissible_workload():g} under the "
                f"{self.overload_fraction:g} memory budget"
            )
        self.done += float(workload)
        return self.done

    def release(self, workload: Optional[float] = None) -> float:
        """Credit flushed residual back to the budget; returns ``done``.

        ``release()`` with no argument models a full residual flush
        (results shipped to the caller): the planner forgets all
        admitted work. A partial ``workload`` subtracts just that much,
        clamped at zero.
        """
        if workload is None:
            self.done = 0.0
        else:
            if workload < 0:
                raise TuningError("released workload must be non-negative")
            self.done = max(self.done - float(workload), 0.0)
        return self.done


def plan_batches(
    model: MemoryCostModel,
    total_workload: float,
    machine: MachineSpec,
    overload_fraction: float = DEFAULT_OVERLOAD_FRACTION,
    max_batches: int = 64,
    integral: bool = True,
) -> List[float]:
    """Compute the Optimized schedule for ``total_workload``.

    Parameters
    ----------
    model:
        the fitted (M*, Mr) pair, in the same (scaled) byte units as
        ``machine.memory_bytes``.
    total_workload:
        the job's workload ``W``.
    machine:
        target machine spec; ``p·M`` is ``overload_fraction *
        machine.memory_bytes``.
    max_batches:
        hard cap on schedule length.
    integral:
        round batch workloads to integers (walk/source counts).

    Returns a list of positive batch workloads summing to ``W``. Raises
    :class:`TuningError` when even an empty cluster cannot fit the
    smallest batch (budget below the models' constant terms).
    """
    if total_workload <= 0:
        raise TuningError("total workload must be positive")
    planner = IncrementalPlanner(
        model, machine, overload_fraction, integral=integral
    )

    schedule: List[float] = []
    remaining = float(total_workload)
    for _ in range(max_batches):
        # Equation 5: the largest batch whose peak fits beside the
        # residual of everything already admitted.
        allowed = planner.admissible_workload()
        if allowed < (1.0 if integral else MIN_BATCH_FRACTION * total_workload):
            if not schedule:
                raise TuningError(
                    "memory budget below the model's constant terms; "
                    "no feasible first batch"
                )
            # From ``d`` processed units a batch reaches at most
            # ``d + A(d)``. A reach past ``done`` means Equation 5's
            # largest batch, not the workload, ran out of headroom.
            if integral:
                probe = IncrementalPlanner(model, machine, overload_fraction)
                reach = []
                for d in range(int(planner.done) + 1):
                    probe.done = float(d)
                    reach.append(d + probe.admissible_workload())
                best = max(range(len(reach)), key=reach.__getitem__)
                if reach[best] > planner.done:
                    raise TuningError(
                        "Equation 5's largest-batch rule stranded the plan "
                        f"after {planner.done:g} units with {remaining:g} "
                        f"remaining: a batch from d = {best} processed "
                        f"units reaches {reach[best]:g}; a schedule of "
                        "smaller batches may cover the workload"
                    )
            # No batch from any ``d <= done`` reaches past ``done``, so
            # the *total* workload is infeasible under Equation 1 no
            # matter how it is batched.
            raise TuningError(
                f"workload infeasible: after {planner.done:g} units the "
                f"projected residual memory leaves no headroom for the "
                f"remaining {remaining:g}; reduce the workload, raise the "
                "overload fraction, or add machines"
            )
        batch = min(remaining, allowed)
        schedule.append(batch)
        planner.admit(batch)
        remaining -= batch
        if remaining <= (0.5 if integral else 1e-9):
            if remaining > 0:
                schedule[-1] += remaining
            return schedule
    raise TuningError(
        f"schedule exceeds {max_batches} batches with {remaining:g} units "
        "left; the workload is effectively infeasible under the memory "
        "budget"
    )


def validate_schedule(
    schedule: List[float],
    model: MemoryCostModel,
    machine: MachineSpec,
    overload_fraction: float = DEFAULT_OVERLOAD_FRACTION,
    slack: float = 1.02,
) -> Optional[int]:
    """Check Equation 1 for every batch; return the index of the first
    violating batch or ``None`` when the schedule is feasible.

    ``slack`` tolerates the integral rounding of batch workloads.
    """
    budget = overload_fraction * machine.memory_bytes * slack
    done = 0.0
    for index, batch in enumerate(schedule):
        projected = (
            model.residual(done) if done > 0 else model.residual.c
        ) + model.peak(batch)
        if projected > budget:
            return index
        done += batch
    return None
