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
(the restore); its :class:`Evaluation` keeps the pass's transfer records
and the probe footprint, and builds the transaction placements only when
read.  :func:`commit` is the other half: it reserves the
evaluation's :attr:`~Evaluation.windows`, exactly the slots the probe
found, so committing an evaluation equals recomputing it on the same
tables (DESIGN.md, "Placement primitive").

:class:`ProbeCache` keeps clean evaluations across commits for the two
list-scheduling loops, EAS Step 2 and ``rebuild.commit_steps``: a commit
drops only the entries whose probe it may have changed (DESIGN.md,
"Probe cache").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

from repro.arch.acg import ACG
from repro.core.comm import Transfer, schedule_incoming_transactions, task_energy
from repro.ctg.graph import CTG
from repro.ctg.task import TaskCosts
from repro.errors import UnroutableError
from repro.obs.decisions import Candidate
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import ResourceId, ResourceTables
from repro.schedule.schedule import Schedule
from repro.schedule.table import Interval


class _lazy:
    """``functools.cached_property`` without its lock.

    Python 3.11's ``cached_property`` takes a lock on every first read,
    about 1 µs; a pass reads an evaluation's windows or entries first
    thousands of times.  The value lands in the instance dict, which
    later reads find before this (non-data) descriptor.
    """

    def __init__(self, compute) -> None:
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(eq=False)
class Evaluation:
    """One ``F(i,k)`` evaluation: task ``task`` tentatively placed on ``pe``.

    ``energy`` is the paper's ``E = E_comp + E_comm``: the task's
    computation energy plus the network energy of its incoming
    transactions.  ``transfers`` are those transactions as the Fig. 3
    pass recorded them; :attr:`comms` turns them into schedule entries.
    ``footprint`` is every resource the probe read, by
    :data:`~repro.schedule.overlay.ResourceId` (PE index or ``Link.key``);
    ``contention_aware`` is False only in the fixed-delay ablation, whose
    transfers hold no links.

    The evaluation keeps no open overlay: it can sit in a
    :class:`ProbeCache` for many iterations, and a live overlay per cached entry kept several
    times more objects alive for the garbage collector to scan.
    """

    task: str
    pe: int
    start: float
    finish: float
    drt: float
    energy: float
    cost: TaskCosts
    transfers: List[Transfer]
    footprint: AbstractSet[ResourceId]
    contention_aware: bool

    @_lazy
    def comms(self) -> List[CommPlacement]:
        """The incoming transactions as schedule entries, in pass order.

        Built on first read: a pass evaluates many more candidates than
        it commits, and only :func:`commit` and the repair rebuild's
        ``CommitStep`` need the entries.
        """
        return [transfer.placement() for transfer in self.transfers]

    @_lazy
    def windows(self) -> Dict[ResourceId, Tuple[Interval, ...]]:
        """The busy windows committing this evaluation reserves, by resource id.

        The task's slot on ``pe`` plus each transfer's links, by
        ``Link.key``, over its ``[start, finish)``; empty transfers and
        fixed-delay transfers hold no links.  These are exactly the tentative reservations the
        probe's overlay held.  Built on first use: besides commit, only
        :meth:`ProbeCache.invalidate` reads it, and only for entries a
        commit may have touched.
        """
        windows = {self.pe: ((self.start, self.finish),)}
        if self.contention_aware:
            for transfer in self.transfers:
                if transfer.finish > transfer.start:
                    window = (transfer.start, transfer.finish)
                    for key in transfer.route.link_keys:
                        windows[key] = windows.get(key, ()) + (window,)
        return windows

    def candidate(self, bd: Optional[float] = None) -> Candidate:
        """The schema-v2 component breakdown of this evaluation.

        ``slack`` is the margin left against the budgeted deadline
        ``bd``; schedulers without budgets pass none.
        """
        comm_energy = sum((t.energy for t in self.transfers), 0.0)
        return Candidate(
            pe=self.pe,
            finish=self.finish,
            energy=self.energy,
            start=self.start,
            drt=self.drt,
            compute_energy=self.energy - comm_energy,
            comm_energy=comm_energy,
            hops=sum(len(t.route.links) for t in self.transfers),
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
        drt, transfers = schedule_incoming_transactions(
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
    # Positional, in field order: keyword arguments cost the generated
    # __init__ about 0.8 µs more, on every probe.
    return Evaluation(
        task,
        pe,
        start,
        start + cost.time,  # finish
        drt,
        task_energy(cost.energy, sum([t.energy for t in transfers])),
        cost,
        transfers,
        overlay.probed_resources(),  # footprint
        contention_aware,
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


Windows = Mapping[ResourceId, Tuple[Interval, ...]]


def _windows_conflict(a: Windows, b: Windows) -> bool:
    """Whether two granted-window maps overlap on any shared resource.

    Plain interval overlap (``s < end and start < e``): windows that
    merely touch endpoints cannot move a ``find_gap`` result, while
    anything closer — including sub-EPS contact — conservatively
    counts as a conflict.  Window lists are tiny (one slot per
    transaction on a link), so the pairwise scan is cheap.
    """
    if len(b) < len(a):
        a, b = b, a
    for resource, intervals in a.items():
        others = b.get(resource)
        if not others:
            continue
        for start, end in intervals:
            for other_start, other_end in others:
                if other_start < end and start < other_end:
                    return True
    return False


class ProbeCache(Dict[Tuple[str, int], Evaluation]):
    """Clean probes by ``(task, pe)``, carried across commits.

    A plain dict to its readers, so a lookup on a scheduler's hot path
    costs no Python call (the loops bind ``cache.get`` once: CPython
    specialises method calls only on an exact ``dict``).  It is sound wherever a probed task's senders
    are all placed and never move, and the floor is constant: a probe
    then depends only on the busy lists of its footprint, and only
    commits change those.  After each :func:`commit` the scheduler
    calls :meth:`invalidate` with the committed evaluation.
    """

    __slots__ = ()

    def invalidate(self, committed: Evaluation) -> int:
        """Drop the entries ``committed`` may have changed.

        A commit mutates exactly the committed PE's table and the link
        tables its transactions reserved.  An entry whose footprint
        misses all of them would recompute to the identical result.
        Within a shared resource the check is refined to *time
        windows*: ``find_gap`` is monotone under added busy intervals
        and its result only moves when a new interval overlaps the
        granted slot, so a commit reserving a shared link at a disjoint
        time leaves the entry exact.  The committed task's own entries
        are consumed, not counted.  Returns the number of entries the
        commit dirtied.
        """
        dirty = committed.windows
        task = committed.task
        evicted = 0
        stale: List[Tuple[str, int]] = []
        for key, evaluation in self.items():
            if key[0] == task:
                stale.append(key)
            elif not evaluation.footprint.isdisjoint(dirty) and _windows_conflict(
                dirty, evaluation.windows
            ):
                stale.append(key)
                evicted += 1
        for key in stale:
            del self[key]
        return evicted
