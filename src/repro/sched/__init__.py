"""Online, admission-controlled scheduling (``repro.sched``).

The offline toolkit plans one workload, runs it, and exits. This
package turns the same machinery into a *service*: unit-task requests
(BPPR/MSSP/BKHS queries) arrive on a seeded stream, admission control
sizes each batch against the fitted memory models ``M*(W)``/``Mr(W)``
from :mod:`repro.tuning`, batches form online (largest admissible
first, per the paper's residual-memory insight), and overloads are
recovered by abort + re-split using the fault machinery.

Modules
-------
:mod:`repro.sched.arrivals`
    Seeded Poisson arrival streams of task requests.
:mod:`repro.sched.admission`
    Shared-budget admission control over per-kind memory models.
:mod:`repro.sched.policy`
    Priority lanes, aging, preemption, and shed-load policy.
:mod:`repro.sched.queue`
    The pending queue: per-class FIFO lanes merged lazily.
:mod:`repro.sched.service`
    The queue-driven scheduler loop on persistent engine sessions.
"""

from repro.sched.admission import AdmissionController
from repro.sched.arrivals import (
    DEFAULT_TENANT,
    TaskRequest,
    generate_arrivals,
)
from repro.sched.policy import TABLE4_ROUTES, ServicePolicy
from repro.sched.service import SchedulerService, run_degenerate

__all__ = [
    "AdmissionController",
    "DEFAULT_TENANT",
    "TABLE4_ROUTES",
    "ServicePolicy",
    "TaskRequest",
    "generate_arrivals",
    "SchedulerService",
    "run_degenerate",
]
