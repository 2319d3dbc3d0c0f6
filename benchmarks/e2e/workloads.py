"""The four workloads of the end-to-end benchmark and their output checks.

A workload turns a seed into a list of inputs (:class:`Item`), each with
one operation the runner calls in a closed loop: a single caller issues
the next op only after the previous one returns.  Every op's output goes
through :meth:`Item.check`, which raises :class:`CheckError` on anything
wrong and otherwise returns the output's :class:`Outcome` (digest and
schedule quality).

Why these inputs (README.md has the measurements behind each choice).
Only ``faults-5x5`` draws its inputs from the seed.  The other three run
fixed corpora, because the cost of one input varies far more between
inputs than any bound allows: 27% (coefficient of variation) between
category-I graphs, 10x between repair instances, and a shuffled PE
layout even makes some category-I graphs miss deadlines.

* ``eas-cat1-6x6`` — the category-I suite (all ten graphs, 160 tasks) on
  the 6x6 mesh, the north-star preset.  Loose deadlines, so Step 3
  never runs: Step-2 RTL evaluation and the Fig. 3 path probe.
* ``repair-cat2-5x5`` — five tight category-II instances on the 5x5
  mesh, repaired from their EAS-base schedules (8 misses down to 3).
* ``faults-5x5`` — one committed category-I schedule hit by 48 seeded
  single faults whose times are stratified over the makespan, so every
  seed asks for the same amount of re-planning.  Recovery re-plans
  without Step 3: a plan that leaves a miss would trigger a full-rebuild
  repair, and with it one seed's plans cost 40% more than another's.
* ``msb-paper`` — the paper's nine multimedia CTGs (Tables 1-3), each
  scheduled, serialized, parsed back and validated: small ops where
  fixed per-call costs dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro import eas_base_schedule, eas_schedule, generate_category
from repro.arch.presets import mesh_2x2, mesh_3x3, mesh_5x5, mesh_6x6
from repro.core.eas import EASConfig
from repro.core.repair import miss_metric, search_and_repair
from repro.ctg.multimedia import CLIP_NAMES, av_decoder_ctg, av_encoder_ctg, av_integrated_ctg
from repro.faults import FaultPlan, LinkFault, PEFault, TransientFault, inject_and_recover
from repro.schedule.schedule import Schedule
from repro.schedule.serialization import schedule_from_json, schedule_to_dict, schedule_to_json
from repro.schedule.table import EPS


class CheckError(Exception):
    """An op's output failed one of the benchmark's correctness checks."""


@dataclass(frozen=True)
class Outcome:
    """What one op produced: a digest of its schedule plus its quality."""

    digest: str
    energy: float
    #: tasks carrying a finite deadline, and how many of them met it.
    deadlines: int
    met: int


@dataclass
class Item:
    """One input of a workload: the timed op and the check of its output."""

    name: str
    tasks: int
    op: Callable[[], Any]
    #: ``check(result, counters)`` -> Outcome; ``counters`` are the values
    #: of the program's metrics registry for this op alone.
    check: Callable[[Any, Dict[str, float]], Outcome]


def digest(schedule: Schedule) -> str:
    """sha256 of the schedule's JSON document with the wall time zeroed."""
    document = schedule_to_dict(schedule)
    document["runtime_seconds"] = 0.0
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_schedule(schedule: Schedule) -> Outcome:
    """Checks every output passes, independent of the scheduler's own tables.

    Each task's energy must be its cost-table entry; each transaction's
    links must form a contiguous path between its PEs' tiles, and its
    energy must be the paper's Eq. 2 for that many routers.  Returns the
    schedule's digest and quality.
    """
    ctg, acg = schedule.ctg, schedule.acg
    if len(schedule.task_placements) != ctg.n_tasks:
        raise CheckError(f"{ctg.name}: {len(schedule.task_placements)} of {ctg.n_tasks} tasks placed")
    deadlines = met = 0
    for placement in schedule.task_placements.values():
        task = ctg.task(placement.task)
        if not _close(placement.energy, task.cost_on(acg.pe(placement.pe).type_name).energy):
            raise CheckError(f"{ctg.name}: task {placement.task} energy is not its cost-table entry")
        if math.isfinite(task.deadline):
            deadlines += 1
            met += placement.finish <= task.deadline + EPS
    model = acg.energy_model
    for comm in schedule.comm_placements.values():
        hops = len(comm.links) + 1
        expected = comm.volume * (hops * model.e_sbit + (hops - 1) * model.e_lbit) if comm.links else 0.0
        if not _close(comm.energy, expected):
            raise CheckError(f"{ctg.name}: transaction {comm.src_task}->{comm.dst_task} energy is not Eq. 2")
        if comm.links:
            tiles = [acg.pe(comm.src_pe).position] + [link.dst for link in comm.links]
            if [link.src for link in comm.links] != tiles[:-1] or tiles[-1] != acg.pe(comm.dst_pe).position:
                raise CheckError(f"{ctg.name}: transaction {comm.src_task}->{comm.dst_task} path is broken")
    return Outcome(digest(schedule), schedule.total_energy(), deadlines, met)


# -- eas-cat1-6x6 ----------------------------------------------------------------


def _eas_items(seed: int) -> List[Item]:
    acg = mesh_6x6()

    def check(schedule: Schedule, counters: Dict[str, float]) -> Outcome:
        if counters.get("repair.rounds", 0.0):
            raise CheckError(f"{schedule.ctg.name}: Step 3 ran; this workload must not repair")
        schedule.validate()
        return check_schedule(schedule)

    items = []
    for index in range(10):
        ctg = generate_category(1, index, n_tasks=160)
        items.append(Item(ctg.name, ctg.n_tasks, lambda ctg=ctg: eas_schedule(ctg, acg), check))
    return items


# -- repair-cat2-5x5 ---------------------------------------------------------------

#: (category-II suite index, tasks, deadline scale) of the fixed repair
#: corpus: each repair takes 2-4 rounds and well under a second, so the
#: kernel samples that bracket an op see the host speed it ran at.
REPAIR_INSTANCES = ((5, 30, 0.65), (1, 30, 0.55), (2, 40, 0.5), (0, 50, 0.65), (3, 50, 0.65))


def _repair_items(seed: int) -> List[Item]:
    acg = mesh_5x5()
    items = []
    for index, n_tasks, scale in REPAIR_INSTANCES:
        ctg = generate_category(2, index, n_tasks=n_tasks).with_scaled_deadlines(scale)
        base = eas_base_schedule(ctg, acg)
        initial = miss_metric(base)
        if not initial[0]:
            raise CheckError(f"{ctg.name}: EAS-base meets every deadline; nothing to repair")

        def check(result, counters: Dict[str, float], initial=initial) -> Outcome:
            schedule, _report = result
            schedule.validate_structure()
            if miss_metric(schedule) > initial:
                raise CheckError(f"{schedule.ctg.name}: repair made the miss metric worse")
            return check_schedule(schedule)

        items.append(Item(ctg.name, ctg.n_tasks, lambda base=base: search_and_repair(base), check))
    return items


# -- faults-5x5 ------------------------------------------------------------------

FAULT_PLANS = 48
#: Recovery re-plans with Step 2 only (see the module docstring).
RECOVERY_CONFIG = EASConfig(repair=False)


def stratified_fault_plans(acg, n_plans: int, seed: int, horizon: float) -> List[FaultPlan]:
    """Single-fault plans, kinds round-robin, times stratified over the horizon.

    Plan ``k`` strikes inside the ``k``-th of ``n_plans`` equal slices of
    the middle 90% of ``[0, horizon]``; the tile, channel and transient
    width are seeded draws.  A uniform draw of the times would leave the
    re-planned share of the schedule, and with it the workload's cost, to
    chance.
    """
    rng = random.Random(seed)
    channels = sorted({tuple(sorted((link.src, link.dst))) for link in acg.all_links()})
    plans = []
    for k in range(n_plans):
        time = horizon * (0.05 + 0.9 * (k + rng.random()) / n_plans)
        kind = ("pe", "link", "transient")[k % 3]
        name = f"plan-{k:03d}-{kind}"
        if kind == "pe":
            plan = FaultPlan(name, seed, pe_faults=(PEFault(rng.randrange(acg.n_pes), time),))
        else:
            src, dst = channels[rng.randrange(len(channels))]
            if kind == "link":
                plan = FaultPlan(name, seed, link_faults=(LinkFault(src, dst, time),))
            else:
                end = time + rng.uniform(0.05, 0.20) * horizon
                plan = FaultPlan(name, seed, transient_faults=(TransientFault(src, dst, time, end),))
        plans.append(plan)
    return plans


def _faults_items(seed: int) -> List[Item]:
    acg = mesh_5x5()
    ctg = generate_category(1, 0, n_tasks=80)
    committed = eas_schedule(ctg, acg)

    def check(result, counters: Dict[str, float]) -> Outcome:
        # inject_and_recover already ran validate_recovery on the output.
        return check_schedule(result.recovery)

    return [
        Item(
            plan.name,
            ctg.n_tasks,
            lambda plan=plan: inject_and_recover(committed, plan, config=RECOVERY_CONFIG),
            check,
        )
        for plan in stratified_fault_plans(acg, FAULT_PLANS, seed, committed.makespan())
    ]


# -- msb-paper ---------------------------------------------------------------------


def _msb_op(ctg, acg):
    schedule = eas_schedule(ctg, acg)
    loaded = schedule_from_json(schedule_to_json(schedule), ctg, acg)
    loaded.validate()
    return schedule, loaded


def _msb_items(seed: int) -> List[Item]:
    def check(result, counters: Dict[str, float]) -> Outcome:
        schedule, loaded = result
        outcome = check_schedule(loaded)
        if outcome.digest != digest(schedule):
            raise CheckError(f"{schedule.ctg.name}: the JSON round trip changed the schedule")
        return outcome

    encoder_decoder = mesh_2x2()
    integrated = mesh_3x3()
    items = []
    for clip in CLIP_NAMES:
        for ctg, acg in (
            (av_encoder_ctg(clip), encoder_decoder),
            (av_decoder_ctg(clip), encoder_decoder),
            (av_integrated_ctg(clip), integrated),
        ):
            items.append(Item(ctg.name, ctg.n_tasks, lambda ctg=ctg, acg=acg: _msb_op(ctg, acg), check))
    return items


#: workload name -> ``setup(seed)`` building its inputs.
WORKLOADS: Dict[str, Callable[[int], List[Item]]] = {
    "eas-cat1-6x6": _eas_items,
    "repair-cat2-5x5": _repair_items,
    "faults-5x5": _faults_items,
    "msb-paper": _msb_items,
}
