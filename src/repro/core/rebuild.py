"""Deterministic schedule reconstruction from (mapping, per-PE orders).

Search-and-repair (Step 3) explores moves in the space of task-to-PE
mappings and per-PE execution orders; after every candidate move the
timed schedule must be rebuilt from scratch with the same communication
semantics as the constructive scheduler.  :func:`rebuild_schedule` does
that: it list-schedules the tasks respecting (a) CTG precedence and
(b) the prescribed order of tasks sharing a PE, placing each task with
the shared probe/commit primitive of :mod:`repro.core.placement`.

The list-scheduling loop itself is :func:`commit_steps`, one generator
shared by the full rebuild and the incremental repair engine's
dirty-cone replay (``repro.core.increbuild``).  It commits the winning
probe directly, so no Fig. 3 pass runs twice for one placement, and it
keeps the losing probes in the same
:class:`~repro.core.placement.ProbeCache` EAS Step 2 uses: a commit
evicts only the probes whose resources and time windows it touched, so
a task waiting for its turn is not probed again after every commit.

A :class:`FrozenPrefix` is a committed past the rebuild starts from:
degraded-mode recovery (``repro.faults.recovery``) salvages the tasks
that finished before a fault, and every scheduler of Steps 2 and 3
places only the remaining tasks on top of it.

A candidate (mapping, orders) pair can be *infeasible*: a swap may order
``a`` before ``b`` on one PE while ``b``'s descendants feed ``a``
(a cross-PE cycle).  Rebuilds detect this and raise
:class:`InfeasibleOrderError`, which the repair loop treats as a rejected
move.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Type

from repro import obs
from repro.arch.acg import ACG
from repro.core.placement import Evaluation, ProbeCache, commit, probe
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError, SchedulingError, UnroutableError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule

#: Step 3's objective, compared lexicographically: lower is better.
MissMetric = Tuple[int, float]


def miss_metric(schedule: Schedule) -> MissMetric:
    """(number of deadline misses, total tardiness) — lower is better."""
    return (len(schedule.deadline_misses()), schedule.total_tardiness())


@dataclass(frozen=True)
class FrozenPrefix:
    """Placements and transactions that later scheduling must build on, unchanged.

    ``placements`` must be in task-name order and ``comms`` in
    ``(src, dst)`` order, so a schedule seeded from the prefix sums its
    floats in the same order whatever the string hash seed.  ``tables`` hold exactly
    their reservations plus any pseudo-reservations (a transient link
    outage); ``None`` stands for empty tables.  No new work starts
    before ``floor``.  The empty :data:`NO_PREFIX` is the healthy case.
    """

    placements: Tuple[TaskPlacement, ...] = ()
    comms: Tuple[CommPlacement, ...] = ()
    tables: Optional[ResourceTables] = None
    floor: float = 0.0

    @cached_property
    def tasks(self) -> FrozenSet[str]:
        """The frozen task set: no repair move touches these tasks."""
        return frozenset(placement.task for placement in self.placements)

    def start_tables(self) -> ResourceTables:
        """Private tables to schedule the open tasks on."""
        return ResourceTables() if self.tables is None else self.tables.copy()

    def seed(self, schedule: Schedule) -> Dict[str, TaskPlacement]:
        """Place the prefix into ``schedule``; returns its placements by task."""
        for placement in self.placements:
            schedule.place_task(placement)
        for comm in self.comms:
            schedule.place_comm(comm)
        return {placement.task: placement for placement in self.placements}

    def open_preds(self, ctg: CTG) -> Dict[str, int]:
        """Each open task's number of open predecessors."""
        tasks = self.tasks
        return {
            name: sum(1 for pred in ctg.predecessors(name) if pred not in tasks)
            for name in ctg.task_names()
            if name not in tasks
        }

    def open_orders(self, orders: Mapping[int, Sequence[str]]) -> Mapping[int, Sequence[str]]:
        """``orders`` without the prefix tasks."""
        tasks = self.tasks
        if not tasks:
            return orders
        return {pe: [name for name in names if name not in tasks] for pe, names in orders.items()}


NO_PREFIX = FrozenPrefix()


@dataclass(frozen=True)
class CommitStep:
    """One committed task of a rebuild, in commit order.

    The *commit trace* — the sequence of these — is what the incremental
    repair engine replays: a rebuild is fully determined by its commit
    sequence, so a recorded trace plus the deterministic selection rule
    lets a later rebuild prove how long a prefix it shares with this one
    without re-probing anything (see ``repro.core.increbuild``).
    """

    task: str
    pe: int
    placement: TaskPlacement
    comms: Tuple[CommPlacement, ...]


def rebuild_schedule(
    ctg: CTG,
    acg: ACG,
    mapping: Mapping[str, int],
    pe_orders: Mapping[int, Sequence[str]],
    algorithm: str = "rebuild",
    prefix: FrozenPrefix = NO_PREFIX,
    cache_type: Type[ProbeCache] = ProbeCache,
) -> Schedule:
    """Rebuild a timed schedule from a mapping and per-PE task orders.

    Among the tasks eligible at each step (all predecessors placed *and*
    first unplaced task in their PE's order), the one whose execution can
    start earliest is committed first; this keeps the reconstruction
    deterministic and packs resources greedily.  The tasks of ``prefix``
    keep their placements; the orders may list them or not.  The probes
    are kept in a fresh ``cache_type`` (see :func:`commit_steps`).

    Raises:
        InfeasibleOrderError: the orders deadlock against the precedence
            constraints.
        SchedulingError: the mapping assigns a task to an infeasible PE.
        UnroutableError: a placed sender has no route to a task's PE
            (only on a fault-degraded platform).
    """
    schedule, _trace = rebuild_schedule_traced(
        ctg, acg, mapping, pe_orders, algorithm=algorithm, prefix=prefix, cache_type=cache_type
    )
    return schedule


def rebuild_schedule_traced(
    ctg: CTG,
    acg: ACG,
    mapping: Mapping[str, int],
    pe_orders: Mapping[int, Sequence[str]],
    algorithm: str = "rebuild",
    prefix: FrozenPrefix = NO_PREFIX,
    cache_type: Type[ProbeCache] = ProbeCache,
) -> Tuple[Schedule, List[CommitStep]]:
    """:func:`rebuild_schedule` plus the commit trace of the open tasks."""
    for name in ctg.task_names():
        if name not in mapping:
            raise SchedulingError(f"mapping misses task {name!r}")

    # Validate the order tables: each PE's order must list exactly the
    # open tasks mapped to it.
    pe_orders = prefix.open_orders(pe_orders)
    expected: Dict[int, List[str]] = {pe.index: [] for pe in acg.pes}
    for name, pe_index in mapping.items():
        if name not in prefix.tasks:
            expected.setdefault(pe_index, []).append(name)
    for pe_index, order in pe_orders.items():
        for name in order:
            if mapping.get(name) != pe_index:
                raise SchedulingError(
                    f"order of PE {pe_index} lists {name!r}, mapped to PE {mapping.get(name)}"
                )
    for pe_index, names in expected.items():
        order = list(pe_orders.get(pe_index, ()))
        if sorted(order) != sorted(names):
            raise SchedulingError(
                f"PE {pe_index} order {order} does not match its mapped tasks {sorted(names)}"
            )

    schedule = Schedule(ctg, acg, algorithm=algorithm)
    scheduled_counter = obs.get().metrics.counter("rebuild.tasks_scheduled")
    trace: List[CommitStep] = []
    remaining_preds = prefix.open_preds(ctg)
    for step in commit_steps(
        ctg,
        acg,
        mapping,
        pe_orders,
        next_slot={pe_index: 0 for pe_index in expected},
        remaining_preds=remaining_preds,
        unplaced=set(remaining_preds),
        placements=prefix.seed(schedule),
        tables=prefix.start_tables(),
        cache=cache_type(),
        schedule=schedule,
        floor=prefix.floor,
    ):
        scheduled_counter.inc()
        trace.append(step)
    return schedule, trace


def commit_steps(
    ctg: CTG,
    acg: ACG,
    mapping: Mapping[str, int],
    pe_orders: Mapping[int, Sequence[str]],
    next_slot: Dict[int, int],
    remaining_preds: Dict[str, int],
    unplaced: Set[str],
    placements: Dict[str, TaskPlacement],
    tables: ResourceTables,
    cache: ProbeCache,
    schedule: Optional[Schedule] = None,
    floor: float = 0.0,
) -> Iterator[CommitStep]:
    """List-schedule ``unplaced`` and yield each commit as it happens.

    Each step commits the eligible task whose probe on its mapped PE
    has the least ``(start, finish, name)``.  Probes are kept in
    ``cache``, which every commit invalidates
    (:meth:`~repro.core.placement.ProbeCache.invalidate`); a task stays
    eligible until it is committed, so most steps probe only the tasks
    the last commit made eligible.  ``cache`` must hold no probe made on
    other tables.  The state arguments are advanced in place; a caller
    may stop iterating at any step and keep the state reached so far.
    Each commit is placed into ``schedule`` unless it is ``None``.
    ``floor`` bounds all new work from below (a :class:`FrozenPrefix`
    floor).

    Raises:
        InfeasibleOrderError: no unplaced task is eligible.
        SchedulingError: a task is mapped to a PE of infeasible type.
        UnroutableError: a placed sender has no route to a task's PE
            (only on a fault-degraded platform).
    """
    metrics = obs.get().metrics
    probe_counter = metrics.counter("rebuild.probes")
    hit_counter = metrics.counter("rebuild.probe_hits")
    lookup = cache.get
    while unplaced:
        eligible = _eligible_tasks(
            ctg, mapping, pe_orders, next_slot, remaining_preds, unplaced
        )
        if not eligible:
            raise InfeasibleOrderError(
                "per-PE orders deadlock against CTG precedence; "
                f"{len(unplaced)} tasks stuck"
            )
        evaluations = []
        fresh = 0
        for name in eligible:
            key = (name, mapping[name])
            evaluation = lookup(key)
            if evaluation is None:
                evaluation = probe_mapped(ctg, acg, name, key[1], tables, placements, floor)
                cache[key] = evaluation
                fresh += 1
            evaluations.append(evaluation)
        probe_counter.inc(fresh)
        hit_counter.inc(len(eligible) - fresh)
        best = min(evaluations, key=lambda ev: (ev.start, ev.finish, ev.task))
        placement = commit(best, tables, placements, schedule)
        cache.invalidate(best)
        chosen = best.task
        unplaced.discard(chosen)
        next_slot[best.pe] += 1
        for succ in ctg.successors(chosen):
            if succ in remaining_preds:
                remaining_preds[succ] -= 1
        yield CommitStep(task=chosen, pe=best.pe, placement=placement, comms=tuple(best.comms))


def _eligible_tasks(
    ctg: CTG,
    mapping: Mapping[str, int],
    pe_orders: Mapping[int, Sequence[str]],
    next_slot: Mapping[int, int],
    remaining_preds: Mapping[str, int],
    unplaced: set,
) -> List[str]:
    """Tasks that are next on their PE and whose predecessors are placed."""
    eligible = []
    for pe_index, order in pe_orders.items():
        slot = next_slot[pe_index]
        if slot < len(order):
            name = order[slot]
            if name in unplaced and remaining_preds[name] == 0:
                eligible.append(name)
    return eligible


def probe_mapped(
    ctg: CTG,
    acg: ACG,
    task_name: str,
    pe_index: int,
    tables: ResourceTables,
    placements: Dict[str, TaskPlacement],
    floor: float = 0.0,
) -> Evaluation:
    """:func:`~repro.core.placement.probe` for a task the mapping fixes to a PE.

    A mapped task has no alternative PE, so an unusable PE is an error
    rather than a dropped candidate.
    """
    evaluation = probe(ctg, acg, task_name, pe_index, tables, placements, floor=floor)
    if evaluation is not None:
        return evaluation
    pe_type = acg.pe(pe_index).type_name
    if not ctg.task(task_name).cost_on(pe_type).feasible:
        raise SchedulingError(
            f"task {task_name!r} mapped to PE {pe_index} of infeasible type {pe_type!r}"
        )
    raise UnroutableError(f"no route from a sender of {task_name!r} to PE {pe_index}")
