"""Paper-literal reference oracle for the optimised scheduling paths.

Hu & Marculescu's Step 2 restores the link and PE tables "every time a
F(i,k) is calculated", and Step 3 rebuilds the schedule for every LTS/GTM
candidate.  Three optimisations skip work the literal algorithm does —
the F(i,k) evaluation cache (:mod:`repro.core.eas`), the version-keyed
path-table cache with its horizon fast path
(:mod:`repro.schedule.overlay`) and the incremental dirty-cone repair
(:mod:`repro.core.increbuild`) — and each must be observationally
invisible.  This module keeps the literal algorithm, built only from
subclasses of and calls into the production code, so tests and A/B
benches can compare against it byte for byte:

* :class:`LiteralTables` re-merges every route per probe;
* :class:`NaiveLevelScheduler` recomputes every F(i,k) each iteration;
* :func:`full_rebuild_repair` rebuilds every repair candidate from scratch;
* :func:`reference_eas_base_schedule` / :func:`reference_eas_schedule`
  compose the three.

Nothing outside ``tests/`` and ``benchmarks/`` imports it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.core.eas import EASConfig, LevelBasedScheduler
from repro.core.placement import Evaluation
from repro.core.rebuild import rebuild_schedule
from repro.core.repair import RepairConfig, RepairReport, search_and_repair
from repro.core.slack import compute_budgets
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError
from repro.schedule.overlay import ResourceTables, TentativeOverlay
from repro.schedule.schedule import Schedule
from repro.schedule.table import find_gap, merge_busy


class LiteralOverlay(TentativeOverlay):
    """Fig. 3 probes that merge every involved busy list from scratch."""

    def find_earliest(self, resource: Hashable, ready: float, duration: float) -> float:
        self._probed.add(resource)
        return find_gap(self._combined(resource), ready, duration)

    def find_earliest_on_path(
        self, resources: Sequence[Hashable], ready: float, duration: float
    ) -> float:
        if not resources:
            return ready
        self._probed.update(resources)
        views = [self._combined(r) for r in resources]
        self.base._merge_work.inc(sum(len(view) for view in views))
        return find_gap(merge_busy(views), ready, duration)


class LiteralTables(ResourceTables):
    """Resource tables without the path cache or the horizon fast path."""

    def overlay(self) -> TentativeOverlay:
        return LiteralOverlay(self)


class NaiveLevelScheduler(LevelBasedScheduler):
    """Step 2 recomputing every F(i,k) on every RTL iteration."""

    def _invalidate(self, committed: Evaluation) -> int:
        self._cache.clear()
        return 0


def full_rebuild_repair(
    schedule: Schedule, config: Optional[RepairConfig] = None
) -> Tuple[Schedule, RepairReport]:
    """Step 3 with a from-scratch :func:`rebuild_schedule` per candidate.

    An :class:`InfeasibleOrderError` counts as a rejected move.
    """
    ctg, acg, algorithm = schedule.ctg, schedule.acg, schedule.algorithm

    def rebuilder(mapping: Dict[str, int], orders: Dict[int, List[str]]) -> Optional[Schedule]:
        try:
            return rebuild_schedule(ctg, acg, mapping, orders, algorithm=algorithm)
        except InfeasibleOrderError:
            return None

    return search_and_repair(schedule, replace(config or RepairConfig(), rebuilder=rebuilder))


def reference_eas_base_schedule(
    ctg: CTG, acg: ACG, config: Optional[EASConfig] = None
) -> Schedule:
    """:func:`repro.core.eas.eas_base_schedule` on the literal pieces."""
    cfg = config or EASConfig()
    with obs.timed_phase("eas_base", ctg=ctg.name) as timing:
        budgets = compute_budgets(
            ctg, acg, weight_policy=cfg.weight_policy, include_comm=cfg.include_comm_in_slack
        )
        schedule = NaiveLevelScheduler(
            ctg,
            acg,
            budgets,
            algorithm_name="eas-base" if cfg.contention_aware else "eas-base-nocontention",
            contention_aware=cfg.contention_aware,
            tables=LiteralTables(),
        ).run()
    schedule.runtime_seconds = timing.seconds
    return schedule


def reference_eas_schedule(ctg: CTG, acg: ACG, config: Optional[EASConfig] = None) -> Schedule:
    """:func:`repro.core.eas.eas_schedule` on the literal pieces."""
    cfg = config or EASConfig()
    with obs.timed_phase("eas", ctg=ctg.name) as timing:
        schedule = reference_eas_base_schedule(ctg, acg, cfg)
        if cfg.repair and schedule.deadline_misses():
            repaired, _report = full_rebuild_repair(
                schedule, RepairConfig(max_rounds=cfg.max_repair_rounds)
            )
            repaired.provenance = schedule.provenance
            schedule = repaired
    schedule.algorithm = "eas"
    schedule.runtime_seconds = timing.seconds
    return schedule
