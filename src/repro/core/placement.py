"""The placement primitive every scheduler shares: probe, then commit.

Each scheduler in this package places one task at a time the same way
the paper's level-based scheduler does.  A Fig. 3 pass tentatively
schedules the task's incoming transactions on the link tables, the PE's
gap search finds the earliest start at or after the data ready time, and
the tables are then either restored (a what-if evaluation) or made
permanent ("the schedule tables ... will be restored every time a
F(i,k) is calculated").

:func:`probe` is the what-if half.  It runs on a
:class:`~repro.schedule.overlay.TentativeOverlay` and then discards it
(the restore); its :class:`Evaluation` keeps the transaction placements
and the probe footprint.  :func:`commit` is the other half: it reserves the
evaluation's :attr:`~Evaluation.windows`, exactly the slots the probe
found, so committing an evaluation equals recomputing it on the same
tables (DESIGN.md, "Placement primitive").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Dict, Hashable, List, Optional, Tuple

from repro.arch.acg import ACG
from repro.core.comm import schedule_incoming_transactions
from repro.ctg.graph import CTG
from repro.ctg.task import TaskCosts
from repro.errors import UnroutableError
from repro.obs.decisions import Candidate
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule
from repro.schedule.table import Interval


@dataclass(eq=False)
class Evaluation:
    """One ``F(i,k)`` evaluation: task ``task`` tentatively placed on ``pe``.

    ``energy`` is the paper's ``E = E_comp + E_comm``: the task's
    computation energy plus the network energy of its incoming
    transactions.  ``footprint`` is every resource the probe read;
    ``contention_aware`` is False only in the fixed-delay ablation, whose
    transfers hold no links.

    The evaluation keeps no open overlay: it can sit in the EAS cache for
    many iterations, and a live overlay per cached entry kept several
    times more objects alive for the garbage collector to scan.
    """

    task: str
    pe: int
    start: float
    finish: float
    drt: float
    energy: float
    cost: TaskCosts
    comms: List[CommPlacement]
    footprint: AbstractSet[Hashable]
    contention_aware: bool

    @cached_property
    def windows(self) -> Dict[Hashable, Tuple[Interval, ...]]:
        """The busy windows committing this evaluation reserves, by resource.

        The task's slot on ``pe`` plus each transfer's links over its
        ``[start, finish)``; empty transfers and fixed-delay transfers
        hold no links.  These are exactly the tentative reservations the
        probe's overlay held.  Built on first use: besides commit, only
        EAS cache invalidation reads it, and only for entries a commit
        may have touched.
        """
        windows = {self.pe: ((self.start, self.finish),)}
        if self.contention_aware:
            for comm in self.comms:
                if comm.finish > comm.start:
                    for link in comm.links:
                        windows[link] = windows.get(link, ()) + ((comm.start, comm.finish),)
        return windows

    def candidate(self, bd: Optional[float] = None) -> Candidate:
        """The schema-v2 component breakdown of this evaluation.

        ``slack`` is the margin left against the budgeted deadline
        ``bd``; schedulers without budgets pass none.
        """
        comm_energy = sum(c.energy for c in self.comms)
        return Candidate(
            pe=self.pe,
            finish=self.finish,
            energy=self.energy,
            start=self.start,
            drt=self.drt,
            compute_energy=self.energy - comm_energy,
            comm_energy=comm_energy,
            hops=sum(len(c.links) for c in self.comms),
            slack=None if bd is None else bd - self.finish,
        )


def probe(
    ctg: CTG,
    acg: ACG,
    task: str,
    pe: int,
    tables: ResourceTables,
    placements: Dict[str, TaskPlacement],
    floor: float = 0.0,
    contention_aware: bool = True,
) -> Optional[Evaluation]:
    """Evaluate placing ``task`` on PE ``pe`` now, leaving ``tables`` untouched.

    ``floor`` bounds the transactions and the execution start from
    below (degraded-mode recovery passes the fault time).  Returns
    ``None`` when the PE's type cannot run the task or, on a
    fault-degraded platform, when some placed sender has no route to
    the PE.
    """
    cost = ctg.task(task).cost_on(acg.pe(pe).type_name)
    if not cost.feasible:
        return None
    overlay = tables.overlay()
    try:
        drt, comms = schedule_incoming_transactions(
            ctg,
            acg,
            task,
            pe,
            placements,
            overlay,
            contention_aware=contention_aware,
            floor=floor,
        )
    except UnroutableError:
        return None
    start = overlay.find_earliest(pe, max(drt, floor), cost.time)
    comm_energy = sum(c.energy for c in comms)
    return Evaluation(
        task=task,
        pe=pe,
        start=start,
        finish=start + cost.time,
        drt=drt,
        energy=cost.energy + comm_energy,
        cost=cost,
        comms=comms,
        footprint=overlay.probed_resources(),
        contention_aware=contention_aware,
    )


def commit(
    evaluation: Evaluation,
    tables: ResourceTables,
    placements: Dict[str, TaskPlacement],
    schedule: Optional[Schedule],
) -> TaskPlacement:
    """Make ``evaluation`` permanent on ``tables``, the tables it probed.

    The evaluation must be *clean*: no reservation may have been made on
    its footprint since it was probed.  Records the placement in
    ``placements`` and, unless ``schedule`` is None, places the task
    and its transactions there.
    """
    for resource, intervals in evaluation.windows.items():
        for start, end in intervals:
            tables.reserve(resource, start, end)
    placement = TaskPlacement(
        task=evaluation.task,
        pe=evaluation.pe,
        start=evaluation.start,
        finish=evaluation.finish,
        energy=evaluation.cost.energy,
    )
    placements[evaluation.task] = placement
    if schedule is not None:
        schedule.place_task(placement)
        for comm in evaluation.comms:
            schedule.place_comm(comm)
    return placement
