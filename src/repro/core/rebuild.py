"""Deterministic schedule reconstruction from (mapping, per-PE orders).

Search-and-repair (Step 3) explores moves in the space of task-to-PE
mappings and per-PE execution orders; after every candidate move the
timed schedule must be rebuilt from scratch with the same communication
semantics as the constructive scheduler.  :func:`rebuild_schedule` does
that: it list-schedules the tasks respecting (a) CTG precedence and
(b) the prescribed order of tasks sharing a PE, placing each task with
the shared probe/commit primitive of :mod:`repro.core.placement`.

The list-scheduling loop itself is :func:`commit_steps`, one generator
shared by the full rebuild, the incremental repair engine's dirty-cone
replay (``repro.core.increbuild``) and degraded-mode recovery
(``repro.faults.recovery``).  It commits the winning probe directly, so
no Fig. 3 pass runs twice for one placement.

A candidate (mapping, orders) pair can be *infeasible*: a swap may order
``a`` before ``b`` on one PE while ``b``'s descendants feed ``a``
(a cross-PE cycle).  Rebuilds detect this and raise
:class:`InfeasibleOrderError`, which the repair loop treats as a rejected
move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Set, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.core.placement import Evaluation, commit, probe
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError, SchedulingError, UnroutableError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule


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
    use_path_cache: bool = True,
) -> Schedule:
    """Rebuild a timed schedule from a mapping and per-PE task orders.

    Among the tasks eligible at each step (all predecessors placed *and*
    first unplaced task in their PE's order), the one whose execution can
    start earliest is committed first; this keeps the reconstruction
    deterministic and packs resources greedily.

    ``use_path_cache=False`` re-merges every route per probe (the
    literal reference path); the result is bit-identical either way.

    Raises:
        InfeasibleOrderError: the orders deadlock against the precedence
            constraints.
        SchedulingError: the mapping assigns a task to an infeasible PE.
    """
    schedule, _trace = rebuild_schedule_traced(
        ctg,
        acg,
        mapping,
        pe_orders,
        algorithm=algorithm,
        use_path_cache=use_path_cache,
    )
    return schedule


def rebuild_schedule_traced(
    ctg: CTG,
    acg: ACG,
    mapping: Mapping[str, int],
    pe_orders: Mapping[int, Sequence[str]],
    algorithm: str = "rebuild",
    use_path_cache: bool = True,
) -> Tuple[Schedule, List[CommitStep]]:
    """:func:`rebuild_schedule` plus the commit trace it followed."""
    for name in ctg.task_names():
        if name not in mapping:
            raise SchedulingError(f"mapping misses task {name!r}")

    # Validate the order tables: each PE's order must list exactly the
    # tasks mapped to it.
    expected: Dict[int, List[str]] = {pe.index: [] for pe in acg.pes}
    for name, pe_index in mapping.items():
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
    for step in commit_steps(
        ctg,
        acg,
        mapping,
        pe_orders,
        next_slot={pe_index: 0 for pe_index in expected},
        remaining_preds={name: ctg.in_degree(name) for name in ctg.task_names()},
        unplaced=set(ctg.task_names()),
        placements={},
        tables=ResourceTables(use_path_cache=use_path_cache),
        schedule=schedule,
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
    schedule: Schedule,
    floor: float = 0.0,
) -> Iterator[CommitStep]:
    """List-schedule ``unplaced`` and yield each commit as it happens.

    Each step probes every eligible task on its mapped PE and commits
    the one with the least ``(start, finish, name)``.  The state
    arguments are advanced in place; a caller may stop iterating at any
    step and keep the state reached so far.  ``floor`` bounds all new
    work from below (degraded-mode recovery passes the fault time).

    Raises:
        InfeasibleOrderError: no unplaced task is eligible.
        SchedulingError: a task is mapped to a PE of infeasible type.
        UnroutableError: a placed sender has no route to a task's PE
            (only on a fault-degraded platform).
    """
    while unplaced:
        eligible = _eligible_tasks(
            ctg, mapping, pe_orders, next_slot, remaining_preds, unplaced
        )
        if not eligible:
            raise InfeasibleOrderError(
                "per-PE orders deadlock against CTG precedence; "
                f"{len(unplaced)} tasks stuck"
            )
        best = min(
            (
                probe_mapped(ctg, acg, name, mapping[name], tables, placements, floor)
                for name in eligible
            ),
            key=lambda ev: (ev.start, ev.finish, ev.task),
        )
        placement = commit(best, tables, placements, schedule)
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
