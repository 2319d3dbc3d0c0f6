"""Paper-literal reference oracle for the optimised scheduling paths.

Hu & Marculescu's Step 2 restores the link and PE tables "every time a
F(i,k) is calculated", and Step 3 rebuilds the schedule for every LTS/GTM
candidate.  Four optimisations skip work the literal algorithm does —
the probe cache of Step 2 and the rebuild loop
(:class:`repro.core.placement.ProbeCache`), Step 2's energy-ordered
F(i,k) walk, which stops probing a ready task's PEs once the selection
rules are decided (:class:`repro.core.eas.LevelBasedScheduler`), the
version-keyed path-table cache with its horizon fast path
(:mod:`repro.schedule.overlay`) and the incremental dirty-cone repair
(:mod:`repro.core.increbuild`) — and each must be observationally
invisible.  This module keeps the literal algorithm, built only from
subclasses of and calls into the production code, so tests and A/B
benches can compare against it byte for byte:

* :class:`LiteralTables` re-merges every route per probe;
* :class:`ClearingProbeCache` forgets every probe on commit;
* :class:`NaiveLevelScheduler` recomputes every F(i,k) each iteration
  and applies the selection rules to the whole table;
* :class:`FullRebuilder` rebuilds every repair candidate from scratch,
  re-probing every eligible task at every step, and
  :func:`full_rebuild_repair` runs Step 3 on it;
* :func:`literal_pieces` hands the literal tables, Step 2 and Step 3
  to :func:`repro.core.eas.run_eas`, the one composition of Steps 1-3,
  and :func:`reference_eas_base_schedule` /
  :func:`reference_eas_schedule` are the production wrappers on them;
* :func:`random_schedule` is a uniform random feasible mapping — a
  statistical null and a schedule witness for the property tests.

Nothing outside ``tests/`` and ``benchmarks/`` imports it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.core.eas import EASConfig, LevelBasedScheduler, _SelectionOutcome, eas_base_schedule, eas_schedule
from repro.core.increbuild import IncrementalRebuilder
from repro.core.placement import Evaluation, ProbeCache
from repro.core.rebuild import NO_PREFIX, FrozenPrefix, MissMetric, rebuild_schedule
from repro.core.repair import RepairConfig, RepairReport, _repair
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError, NoFeasiblePEError, SchedulingError, UnroutableError
from repro.rng import RandomLike, make_rng
from repro.schedule.overlay import ResourceId, ResourceTables, TentativeOverlay
from repro.schedule.schedule import Schedule
from repro.schedule.table import EPS, find_gap, merge_busy


class LiteralOverlay(TentativeOverlay):
    """Fig. 3 probes that merge every involved busy list from scratch."""

    def find_earliest(self, resource: ResourceId, ready: float, duration: float) -> float:
        self._probed.add(resource)
        return find_gap(self._combined(resource), ready, duration)

    def find_earliest_on_path(
        self, resources: Sequence[ResourceId], ready: float, duration: float
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


class ClearingProbeCache(ProbeCache):
    """A probe cache that forgets every entry on commit."""

    __slots__ = ()

    def invalidate(self, committed: Evaluation) -> int:
        self.clear()
        return 0


class NaiveLevelScheduler(LevelBasedScheduler):
    """Step 2 as the paper states it, on the production probe and commit.

    Every RTL iteration probes every ready task on every available PE
    afresh — no probe cache, no energy-ordered walk — and applies the
    selection rules to the whole F(i,k) table.
    """

    def _enter_rtl(self, task_name: str) -> None:
        pass  # no walk keys

    def _choose(
        self, ready: List[str], rtl_span, record: bool
    ) -> Tuple[Evaluation, _SelectionOutcome, Dict[int, Evaluation]]:
        evaluations: Dict[str, Dict[int, Evaluation]] = {}
        for task_name in ready:
            per_pe: Dict[int, Evaluation] = {}
            for pe in self.acg.pes:
                if self.acg.pe_available(pe.index):
                    evaluation = self._probe(task_name, pe.index)
                    if evaluation is not None:
                        per_pe[pe.index] = evaluation
            evaluations[task_name] = per_pe
        fresh = sum(len(per_pe) for per_pe in evaluations.values())
        self._eval_counter.inc(fresh)
        rtl_span.set_attribute("evaluations", fresh)
        chosen, outcome = self._select_literal(evaluations)
        return chosen, outcome, evaluations[chosen.task]

    def _select_literal(
        self, evaluations: Dict[str, Dict[int, Evaluation]]
    ) -> Tuple[Evaluation, _SelectionOutcome]:
        """The paper's Step-2 selection rules over the full F(i,k) table."""
        min_f: Dict[str, Evaluation] = {}
        for task_name, per_pe in evaluations.items():
            if not per_pe:
                raise NoFeasiblePEError(f"task {task_name!r} has no feasible PE")
            min_f[task_name] = min(
                per_pe.values(), key=lambda ev: (ev.finish, ev.energy, ev.pe)
            )

        # Rule 3: violating tasks go first, fastest PE wins.
        violations = [
            (min_f[t].finish - self.budgets[t].budgeted_deadline, t)
            for t in evaluations
            if min_f[t].finish > self.budgets[t].budgeted_deadline + EPS
        ]
        if violations:
            violations.sort(key=lambda item: (-item[0], item[1]))
            return min_f[violations[0][1]], _SelectionOutcome(rescue=True)

        # Rule 4: all tasks can meet their BD somewhere; maximise regret.
        # Ties: tighter (smaller) BD first, then task name, for determinism.
        best: Optional[Evaluation] = None
        best_key: Tuple[float, float] = (-math.inf, -math.inf)
        for task_name in sorted(evaluations):
            bd = self.budgets[task_name].budgeted_deadline
            feasible = [ev for ev in evaluations[task_name].values() if ev.finish <= bd + EPS]
            feasible.sort(key=lambda ev: (ev.energy, ev.finish, ev.pe))
            e1 = feasible[0]
            delta = math.inf if len(feasible) == 1 else feasible[1].energy - e1.energy
            key = (delta, -bd)
            if best is None or key > best_key:
                best = e1
                best_key = key
        assert best is not None
        return best, _SelectionOutcome(regret=best_key[0])


class FullRebuilder(IncrementalRebuilder):
    """Candidate evaluation by a from-scratch :func:`rebuild_schedule`.

    Every step of the rebuild probes every eligible task again.  A
    deadlocking or unroutable candidate counts as a rejected move.
    """

    def evaluate(
        self,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        incumbent_metric: MissMetric,
    ) -> Optional[Schedule]:
        try:
            return rebuild_schedule(
                self.ctg,
                self.acg,
                mapping,
                orders,
                algorithm=self.algorithm,
                prefix=self.prefix,
                cache_type=ClearingProbeCache,
            )
        except (InfeasibleOrderError, UnroutableError):
            return None

    def promote(self) -> None:
        pass


def full_rebuild_repair(
    schedule: Schedule,
    config: Optional[RepairConfig] = None,
    prefix: FrozenPrefix = NO_PREFIX,
) -> Tuple[Schedule, RepairReport]:
    """Step 3 with a from-scratch rebuild per candidate (:class:`FullRebuilder`)."""
    return _repair(schedule, config, prefix, FullRebuilder)


def literal_pieces() -> Dict[str, object]:
    """The :func:`repro.core.eas.run_eas` arguments that swap in the literal pieces."""
    return {
        "prefix": FrozenPrefix(tables=LiteralTables()),
        "level_class": NaiveLevelScheduler,
        "repair": full_rebuild_repair,
    }


def reference_eas_base_schedule(ctg: CTG, acg: ACG, config: Optional[EASConfig] = None) -> Schedule:
    """:func:`repro.core.eas.eas_base_schedule` on the literal pieces."""
    return eas_base_schedule(ctg, acg, config, **literal_pieces())


def reference_eas_schedule(ctg: CTG, acg: ACG, config: Optional[EASConfig] = None) -> Schedule:
    """:func:`repro.core.eas.eas_schedule` on the literal pieces."""
    return eas_schedule(ctg, acg, config, **literal_pieces())


def random_schedule(ctg: CTG, acg: ACG, seed: RandomLike = None) -> Schedule:
    """Uniform random feasible mapping, rebuilt with topological orders."""
    rng = make_rng(seed)
    mapping: Dict[str, int] = {}
    for task in ctg.tasks():
        candidates = [
            pe.index for pe in acg.pes if task.cost_on(pe.type_name).feasible
        ]
        if not candidates:
            raise SchedulingError(f"task {task.name!r} has no feasible PE")
        mapping[task.name] = rng.choice(candidates)

    orders: Dict[int, list] = {pe.index: [] for pe in acg.pes}
    for name in ctg.topological_order():
        orders[mapping[name]].append(name)

    with obs.timed_phase("random", ctg=ctg.name) as timing:
        schedule = rebuild_schedule(ctg, acg, mapping, orders, algorithm="random")
    schedule.runtime_seconds = timing.seconds
    return schedule
