"""The paper's contribution: the Energy-Aware Scheduling (EAS) algorithm.

* :mod:`repro.core.slack` — Step 1, budgeted-deadline computation;
* :mod:`repro.core.comm` — the Fig. 3 communication scheduler;
* :mod:`repro.core.eas` — Step 2, level-based scheduling, and the EAS
  driver;
* :mod:`repro.core.rebuild` — deterministic schedule reconstruction from
  a (mapping, per-PE order) pair;
* :mod:`repro.core.repair` — Step 3, search-and-repair (LTS + GTM);
* :mod:`repro.core.reference` — the paper-literal oracle the optimised
  paths are tested against (not imported here: tests and benches only).
"""

from repro.core.slack import (
    TaskBudget,
    WEIGHT_POLICIES,
    compute_budgets,
    weight_uniform,
    weight_var_energy,
    weight_var_product,
)
from repro.core.comm import schedule_incoming_transactions
from repro.core.dvs import DVSConfig, DVSReport, apply_dvs
from repro.core.eas import EASConfig, eas_base_schedule, eas_schedule, LevelBasedScheduler
from repro.core.periodic import (
    ThroughputReport,
    is_periodic_feasible,
    resource_bound_period,
    scan_min_period,
    throughput_report,
)
from repro.core.rebuild import rebuild_schedule
from repro.core.repair import RepairConfig, RepairReport, search_and_repair

__all__ = [
    "DVSConfig",
    "DVSReport",
    "EASConfig",
    "apply_dvs",
    "LevelBasedScheduler",
    "RepairConfig",
    "RepairReport",
    "TaskBudget",
    "ThroughputReport",
    "WEIGHT_POLICIES",
    "is_periodic_feasible",
    "resource_bound_period",
    "scan_min_period",
    "throughput_report",
    "compute_budgets",
    "eas_base_schedule",
    "eas_schedule",
    "rebuild_schedule",
    "schedule_incoming_transactions",
    "search_and_repair",
    "weight_uniform",
    "weight_var_energy",
    "weight_var_product",
]
