"""Shared-budget admission control over per-kind memory models.

The offline planner (Equation 5) sizes batches for *one* task family.
The service runs several families concurrently on one cluster, so the
budget ``p·M`` is shared: the residual memory of every family's
completed work counts against the headroom of the next batch,
whichever kind it is::

    Σ_k Mr_k(done_k) + M*_j(W_next) ≤ p · M      for the next kind j

Each kind keeps its own :class:`~repro.tuning.planner.IncrementalPlanner`
(the incremental Equation-5 state); the controller stitches them
together by charging every *other* kind's projected residual against a
planner's budget before asking it for the admissible workload. With a
single kind this collapses exactly to the offline
:func:`~repro.tuning.planner.plan_batches` iteration — the degenerate
schedule.

Multi-tenant quotas layer a second, per-tenant constraint on top of the
global Equation 1: each tenant's *charged* bytes — the residual of the
units it has admitted, ``Σ_k Mr_k(done_{t,k})``, plus its share of any
pinned (suspended-batch) state — may never exceed its byte quota.
Quotas only refine how the shared budget is split; the global invariant
is unchanged, and with no quotas configured the controller's behaviour
is byte-identical to the single-tenant release.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.cluster.machine import MachineSpec
from repro.errors import SchedulingError
from repro.tuning.memory_model import MemoryCostModel
from repro.tuning.planner import DEFAULT_OVERLOAD_FRACTION, IncrementalPlanner


class AdmissionController:
    """Admission control for the scheduling service.

    Parameters
    ----------
    models:
        fitted ``(M*, Mr)`` pair per task kind, in the same scaled byte
        units as ``machine.memory_bytes``.
    machine:
        target machine spec; the shared budget is
        ``overload_fraction * machine.memory_bytes``.
    overload_fraction:
        the paper's overloading parameter ``p``.
    tenant_quotas:
        optional per-tenant byte quotas (same scaled units as the
        budget). Tenants absent from the mapping are unconstrained;
        ``None`` disables tenant accounting entirely.
    """

    def __init__(
        self,
        models: Mapping[str, MemoryCostModel],
        machine: MachineSpec,
        overload_fraction: float = DEFAULT_OVERLOAD_FRACTION,
        tenant_quotas: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not models:
            raise SchedulingError("at least one kind's memory model required")
        if not 0 < overload_fraction <= 1:
            raise SchedulingError("overload_fraction must be in (0, 1]")
        self.machine = machine
        self.overload_fraction = float(overload_fraction)
        #: the shared planning budget ``p·M`` in scaled bytes.
        self.budget = self.overload_fraction * machine.memory_bytes
        #: per-kind incremental Equation-5 state.
        self.planners: Dict[str, IncrementalPlanner] = {
            kind: IncrementalPlanner(
                model, machine, overload_fraction, integral=True
            )
            for kind, model in models.items()
        }
        #: out-of-band reservations (tag → scaled bytes): checkpointed
        #: state of batches suspended at a barrier. Pins charge the
        #: shared budget like every kind's residual but survive
        #: :meth:`release_all` — a backpressure flush frees *emitted*
        #: results, not the frozen state a resume still needs.
        self._pins: Dict[str, float] = {}
        #: per-tenant byte quotas (``None`` = tenant accounting off).
        self.tenant_quotas: Optional[Dict[str, float]] = (
            None
            if tenant_quotas is None
            else {str(t): float(q) for t, q in dict(tenant_quotas).items()}
        )
        if self.tenant_quotas is not None:
            for tenant, quota in self.tenant_quotas.items():
                if quota <= 0:
                    raise SchedulingError(
                        f"tenant quota for {tenant!r} must be positive"
                    )
        #: tenant → kind → admitted units whose residual is resident.
        self._tenant_done: Dict[str, Dict[str, float]] = {}
        #: pin tag → tenant → bytes (tenant shares of suspended state).
        self._pin_tenants: Dict[str, Dict[str, float]] = {}

    def pin(
        self,
        tag: str,
        bytes_: float,
        tenants: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Reserve ``bytes_`` of the shared budget under ``tag``.

        ``tenants`` optionally attributes the reservation to tenants
        (tenant → bytes share) so quota checks see suspended state.
        """
        if bytes_ < 0:
            raise SchedulingError("pinned bytes must be non-negative")
        self._pins[tag] = float(bytes_)
        if tenants:
            self._pin_tenants[tag] = {
                str(t): float(b) for t, b in dict(tenants).items()
            }
        else:
            self._pin_tenants.pop(tag, None)

    def unpin(self, tag: str) -> float:
        """Drop the reservation under ``tag`` (0.0 if absent)."""
        self._pin_tenants.pop(tag, None)
        return self._pins.pop(tag, 0.0)

    def pinned_bytes(self) -> float:
        """Total out-of-band reservations (suspended batches)."""
        return sum(self._pins.values())

    def _check_kind(self, kind: str) -> IncrementalPlanner:
        """Fetch the planner for ``kind`` with its budget reduced by the
        projected residual of every *other* kind's admitted work and
        every pinned (suspended-batch) reservation.

        Kinds that have admitted nothing contribute zero (their
        constant residual term only materialises once they run), so a
        single-kind stream sees exactly the offline planner's budget.
        """
        if kind not in self.planners:
            known = ", ".join(sorted(self.planners))
            raise SchedulingError(f"unknown task kind {kind!r}; known: {known}")
        planner = self.planners[kind]
        others = sum(
            p.residual_bytes()
            for k, p in self.planners.items()
            if k != kind and p.done > 0
        )
        others += self.pinned_bytes()
        planner.budget = self.budget - others
        return planner

    def residual_bytes(self) -> float:
        """Projected residual memory of all admitted work (all kinds)."""
        return sum(
            p.residual_bytes() for p in self.planners.values() if p.done > 0
        )

    def admissible_units(self, kind: str) -> float:
        """Largest admissible next batch for ``kind`` (integral units)."""
        return self._check_kind(kind).admissible_workload()

    def admits(
        self,
        kind: str,
        units: float,
        tenant_units: Optional[Mapping[str, float]] = None,
    ) -> bool:
        """Whether a ``units``-sized batch of ``kind`` fits right now —
        under the shared budget and, for the ``tenant_units`` it would
        charge (tenant → units), under every tenant's quota."""
        return 0 < units <= self.admissible_units(kind) and all(
            take <= self.tenant_admissible_units(kind, tenant)
            for tenant, take in (tenant_units or {}).items()
        )

    def admit(
        self,
        kind: str,
        units: float,
        tenant_units: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Charge an admitted batch against the shared budget.

        ``tenant_units`` attributes the batch's units to the tenants it
        served (tenant → units), feeding the per-tenant residual
        accounting. Omitting it leaves tenant charges untouched — the
        single-tenant code path.
        """
        self._check_kind(kind).admit(units)
        if tenant_units:
            for tenant, take in tenant_units.items():
                if take <= 0:
                    continue
                done = self._tenant_done.setdefault(str(tenant), {})
                done[kind] = done.get(kind, 0.0) + float(take)

    # ------------------------------------------------------------------
    # Per-tenant quota accounting
    # ------------------------------------------------------------------
    def tenant_resident_bytes(self, tenant: str) -> float:
        """Projected residual memory of the tenant's admitted units:
        ``Σ_k Mr_k(done_{t,k})`` over kinds the tenant has run. Kinds
        with nothing admitted contribute zero — a tenant is only
        charged for work it actually ran."""
        done = self._tenant_done.get(tenant)
        if not done:
            return 0.0
        total = 0.0
        for kind, units in done.items():
            if units > 0 and kind in self.planners:
                total += float(self.planners[kind].model.residual(units))
        return total

    def tenant_pinned_bytes(self, tenant: str) -> float:
        """The tenant's share of pinned (suspended-batch) state."""
        return sum(
            shares.get(tenant, 0.0)
            for shares in self._pin_tenants.values()
        )

    def tenant_charged_bytes(self, tenant: str) -> float:
        """Resident plus pinned bytes — the value quotas bound."""
        return self.tenant_resident_bytes(tenant) + self.tenant_pinned_bytes(
            tenant
        )

    def tenant_quota(self, tenant: str) -> Optional[float]:
        """The tenant's byte quota, or ``None`` when unconstrained."""
        if self.tenant_quotas is None:
            return None
        return self.tenant_quotas.get(tenant)

    def tenant_admissible_units(self, kind: str, tenant: str) -> float:
        """Largest additional ``kind`` batch the tenant's quota admits.

        Inverts the kind's residual model at the quota headroom left
        after the tenant's other charges — the per-tenant analogue of
        Equation 5. Unconstrained tenants get ``inf`` (only the global
        budget applies); a flat residual curve (no fitted growth term)
        also returns ``inf`` since units cannot move it.
        """
        quota = self.tenant_quota(tenant)
        if quota is None:
            return float("inf")
        if kind not in self.planners:
            known = ", ".join(sorted(self.planners))
            raise SchedulingError(f"unknown task kind {kind!r}; known: {known}")
        done = self._tenant_done.get(tenant, {}).get(kind, 0.0)
        residual = self.planners[kind].model.residual
        own = float(residual(done)) if done > 0 else 0.0
        headroom = quota - (self.tenant_charged_bytes(tenant) - own)
        if headroom <= 0:
            return 0.0
        if residual.a <= 0 or residual.b <= 0:
            return float("inf")
        allowed = residual.invert(headroom) - done
        return max(0.0, float(int(allowed)))

    def release_all(self) -> float:
        """Credit every kind's residual back (a full backpressure flush).

        Tenant residual charges flush with it — the results were
        shipped to their callers — while pinned tenant shares survive,
        like the pins themselves. Returns the projected residual bytes
        that were released.
        """
        released = self.residual_bytes()
        for planner in self.planners.values():
            planner.release()
        self._tenant_done.clear()
        return released

    def projected_bytes(self, kind: str, units: float) -> float:
        """Projected ``Σ Mr + M*`` if a ``units`` batch of ``kind`` ran now.

        The admission invariant the property tests check: for every
        admitted batch this value never exceeds the shared budget.
        """
        planner = self._check_kind(kind)
        others = sum(
            p.residual_bytes()
            for k, p in self.planners.items()
            if k != kind and p.done > 0
        )
        others += self.pinned_bytes()
        return (
            others + planner.residual_bytes() + float(planner.model.peak(units))
        )
