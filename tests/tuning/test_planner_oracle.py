"""The greedy planner against an exhaustive oracle (Equations 1 and 5).

:func:`~repro.tuning.planner.plan_batches` gives every batch the largest
workload Equation 1 admits beside the residual of the work before it.
On small integer ``W`` the oracle searches every feasible schedule: a
breadth-first search over the processed workload ``done ∈ {0..W}``,
whose step from ``done`` is any whole ``w`` up to the
:meth:`~repro.tuning.planner.IncrementalPlanner.admissible_workload`
at that ``done`` — one feasibility rule for both. Greedy is optimal
when the reach ``done + A(done)`` never falls as ``done`` grows; where
it falls, a smaller batch can reach further, and greedy may lose.
"""

from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.machine import MachineSpec
from repro.errors import TuningError
from repro.tuning.memory_model import MemoryCostModel, PowerLawModel
from repro.tuning.planner import (
    DEFAULT_OVERLOAD_FRACTION,
    IncrementalPlanner,
    plan_batches,
)


def _machine(budget: float) -> MachineSpec:
    """A machine whose planning budget ``p·M`` is ``budget``."""
    return MachineSpec(
        memory_bytes=budget / DEFAULT_OVERLOAD_FRACTION,
        os_reserve_bytes=0.0,
        cores=1,
        compute_ops_per_second=1.0,
    )


def _admissible(model, machine, total):
    """``A(done)`` for every ``done`` in ``0..total``, capped at
    ``total`` (the planner's own answer may be astronomically large)."""
    planner = IncrementalPlanner(model, machine)
    table = []
    for done in range(total + 1):
        planner.done = float(done)
        table.append(int(min(planner.admissible_workload(), total)))
    return table


def fewest_batches(model, machine, total):
    """The fewest Equation-1-feasible batches summing to exactly
    ``total``, or ``None`` when no schedule exists."""
    admissible = _admissible(model, machine, total)
    depth = [None] * (total + 1)
    depth[0] = 0
    frontier = deque([0])
    while frontier:
        done = frontier.popleft()
        for step in range(1, min(admissible[done], total - done) + 1):
            if depth[done + step] is None:
                depth[done + step] = depth[done] + 1
                frontier.append(done + step)
    return depth[total]


def greedy_batches(model, machine, total):
    """``len(plan_batches(...))``, or ``None`` when it finds no
    schedule."""
    try:
        return len(plan_batches(model, total, machine, max_batches=total))
    except TuningError:
        return None


def reach_is_monotone(model, machine, total) -> bool:
    """Whether ``done + A(done)`` never falls over ``0..total``."""
    admissible = _admissible(model, machine, total)
    reach = [done + a for done, a in enumerate(admissible)]
    return all(x <= y for x, y in zip(reach, reach[1:]))


power_laws = st.builds(
    PowerLawModel,
    a=st.floats(min_value=0.01, max_value=100.0),
    b=st.floats(min_value=0.25, max_value=3.0),
    c=st.floats(min_value=0.0, max_value=100.0),
)


@settings(max_examples=200, deadline=None)
@given(
    peak=power_laws,
    residual=power_laws,
    total=st.integers(min_value=1, max_value=200),
    slack=st.floats(min_value=1.0, max_value=50.0),
)
def test_greedy_matches_the_oracle_where_reach_never_falls(
    peak, residual, total, slack
):
    model = MemoryCostModel(peak=peak, residual=residual)
    machine = _machine((peak(1.0) + residual.c) * slack)
    assume(IncrementalPlanner(model, machine).admissible_workload() >= 1)
    greedy = greedy_batches(model, machine, total)
    optimum = fewest_batches(model, machine, total)
    # A greedy schedule is a feasible one, so it never beats the oracle.
    assert greedy is None or (optimum is not None and optimum <= greedy)
    if greedy != optimum:
        assert not reach_is_monotone(model, machine, total)


@pytest.mark.xfail(
    strict=True,
    reason="M*(W) = 9·W, Mr(W) = W^2 + 7, p·M = 448, W = 50: greedy's "
    "first batch of 49 leaves no headroom, while 2 + 48 fits",
)
def test_greedy_loses_where_reach_falls():
    """The shrunk counterexample: ``done + A(done)`` is 50 at
    ``done = 2`` but 49 at ``done = 49``, where greedy's first batch
    lands, so greedy finds no schedule for a workload two batches
    cover."""
    model = MemoryCostModel(
        peak=PowerLawModel(a=9.0, b=1.0, c=0.0),
        residual=PowerLawModel(a=1.0, b=2.0, c=7.0),
    )
    machine = _machine(448.0)
    assert not reach_is_monotone(model, machine, 50)
    assert fewest_batches(model, machine, 50) == 2
    assert greedy_batches(model, machine, 50) == 2


def test_stranded_greedy_names_the_largest_reach():
    """Where a smaller batch would have passed the ``done`` greedy
    strands at, the error says the largest-batch rule stranded the
    plan, not that the workload is infeasible: from ``d = 3`` a batch of
    48 reaches 51 > 49."""
    model = MemoryCostModel(
        peak=PowerLawModel(a=9.0, b=1.0, c=0.0),
        residual=PowerLawModel(a=1.0, b=2.0, c=7.0),
    )
    with pytest.raises(TuningError) as info:
        plan_batches(model, 50, _machine(448.0))
    message = str(info.value)
    assert "largest-batch rule stranded the plan after 49 units" in message
    assert "d = 3 processed units reaches 51" in message
    assert "infeasible" not in message


def test_truly_infeasible_workload_keeps_its_message():
    """With ``Mr(W) = 1000·W² + 7`` any processed unit leaves no
    headroom, so no schedule passes the first batch of 49: the reach
    ``d + A(d)`` is at most 49 for every ``d <= 49``."""
    model = MemoryCostModel(
        peak=PowerLawModel(a=9.0, b=1.0, c=0.0),
        residual=PowerLawModel(a=1000.0, b=2.0, c=7.0),
    )
    machine = _machine(448.0)
    assert fewest_batches(model, machine, 50) is None
    with pytest.raises(TuningError, match="workload infeasible: after 49 "
                       "units"):
        plan_batches(model, 50, machine)
