"""Fault injection and degraded-mode recovery.

The schedulers assume a healthy NoC; this package asks what happens when
it is not.  It provides:

* :mod:`repro.faults.plan` — a seeded, JSON-serializable fault model
  (permanent PE death, permanent link cuts, transient link-fault
  windows) and a Monte Carlo plan generator;
* :mod:`repro.faults.degraded` — a fault-masked view of the platform:
  :class:`DegradedTopology` hides dead routers and cut links, and
  :class:`DegradedACG` keeps every base route no fault touches and
  detours only the pairs a fault cuts, along a deterministic shortest
  path around the damage;
* :mod:`repro.faults.recovery` — degraded-mode rescheduling: salvage the
  completed prefix of a committed schedule, re-run EAS plus
  search-and-repair on the surviving tasks over the degraded platform,
  and report exact miss/tardiness/energy deltas;
* :mod:`repro.faults.sweep` — seeded Monte Carlo campaigns over fault
  plans, pooled via the shared-nothing process pool with byte-identical
  output at any job count.
"""

from repro.faults.degraded import DegradedACG, DegradedTopology
from repro.faults.plan import (
    FAULT_PLAN_SCHEMA_VERSION,
    FaultPlan,
    LinkFault,
    PEFault,
    TransientFault,
    generate_fault_plans,
)
from repro.faults.recovery import (
    RecoveryResult,
    UnsurvivableFaultError,
    inject_and_recover,
    validate_recovery,
)
from repro.faults.sweep import FaultSweepReport, run_fault_sweep

__all__ = [
    "FAULT_PLAN_SCHEMA_VERSION",
    "FaultPlan",
    "PEFault",
    "LinkFault",
    "TransientFault",
    "generate_fault_plans",
    "DegradedTopology",
    "DegradedACG",
    "UnsurvivableFaultError",
    "RecoveryResult",
    "inject_and_recover",
    "validate_recovery",
    "FaultSweepReport",
    "run_fault_sweep",
]
