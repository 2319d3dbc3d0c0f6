"""The Fig. 3 communication scheduler.

Given a candidate destination PE for a task, schedule all of the task's
*receiving* communication transactions (its LCT) onto the link schedule
tables, and return the data ready time ``DRT`` — the latest arrival among
them.  Transactions are processed in increasing sender-finish order; each
one is placed at the earliest slot where its *entire* XY path is free for
the whole transfer duration (wormhole: the path is held end to end), and
its reservation is visible to the transactions scheduled after it.

The path probe (``overlay.find_earliest_on_path``) is the single hottest
operation in the whole system — every F(i,k) evaluation and every repair
rebuild funnels through it.  It is served by the version-keyed path-table
cache in :mod:`repro.schedule.overlay`: the merged committed busy list of
each route is reused until one of its link tables changes version, probes
whose ready time clears every horizon skip merging entirely, and all
reads are zero-copy.  :class:`repro.core.reference.LiteralTables` keeps
the literal re-merge-per-probe path as the oracle; cached and literal
probes return bit-identical answers (DESIGN.md, "Path-table cache
soundness").  Telemetry: ``comm.path_cache_hits`` /
``comm.path_cache_misses``, ``comm.horizon_fast_path`` and
``comm.merge_intervals``.

All reservations go through a :class:`TentativeOverlay` and never touch
the committed tables.  The only caller,
:func:`repro.core.placement.probe`, drops the overlay and keeps the
pass's :class:`Transfer` records in its evaluation; the scheduler then
either forgets the evaluation (a what-if) or commits it, reserving the
same links at the same times (the real placement) — the paper's
"schedule tables ... will be restored every time a F(i,k) is
calculated".  Most evaluations are forgotten, so a pass records plain
tuples and only a committed one becomes
:class:`~repro.schedule.entries.CommPlacement` objects.
``comm.link_probes`` and ``comm.local_transfers`` go to counters the
overlay's :class:`~repro.schedule.overlay.ResourceTables` fetched once,
not looked up per call.

Link tables are addressed by resource id: a transaction probes and
reserves its route's ``link_keys`` (each link's
:attr:`~repro.arch.topology.Link.key`), never the ``Link`` objects,
which stay in the route for display and serialization.
The overlay additionally records every link table this pass probed
(``overlay.probed_resources()``), the evaluation's *resource
footprint*: the F(i,k) result is a pure function of the busy
states of the probed resources, which is what lets the level-based
scheduler cache evaluations across RTL iterations and invalidate only
the ones a commit actually dirtied.  Local and zero-volume transfers
probe nothing (they hold no links), and the fixed-delay ablation skips
link tables entirely, so its footprint is the destination PE alone.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, NamedTuple, Tuple

from repro.arch.acg import ACG, Route
from repro.ctg.graph import CTG
from repro.ctg.task import CommEdge
from repro.errors import SchedulingError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import TentativeOverlay


class Transfer(NamedTuple):
    """One incoming transaction as a Fig. 3 pass placed it.

    A plain tuple, so recording one costs a fraction of a frozen
    :class:`CommPlacement`; :meth:`placement` builds that for a
    committed evaluation.
    """

    edge: CommEdge
    src_pe: int
    dst_pe: int
    start: float
    finish: float
    route: Route
    #: ``volume * e(r)``, the float ``ACG.comm_energy`` returns.
    energy: float

    @property
    def src_task(self) -> str:
        return self.edge.src

    @property
    def volume(self) -> float:
        return self.edge.volume

    @property
    def is_local(self) -> bool:
        return not self.route.links

    def placement(self) -> CommPlacement:
        """The schedule entry of this transfer."""
        edge = self.edge
        return CommPlacement(
            src_task=edge.src,
            dst_task=edge.dst,
            volume=edge.volume,
            src_pe=self.src_pe,
            dst_pe=self.dst_pe,
            start=self.start,
            finish=self.finish,
            links=self.route.links,
            energy=self.energy,
        )


def in_sender_order(
    lct: Iterable[CommEdge], placements: Mapping[str, TaskPlacement]
) -> List[CommEdge]:
    """Fig. 3: "sort LCT by the finish time of its sender" (ties by sender name)."""
    return sorted(lct, key=lambda e: (placements[e.src].finish, e.src))


def task_energy(compute_energy: float, comm_energy: float) -> float:
    """The Step-2 metric ``E(i,k) = E_comp + E_comm``.

    ``comm_energy`` is the task's incoming transaction energies added
    left to right from 0 in :func:`in_sender_order`, as ``sum`` adds
    them.  The probe's ``Evaluation.energy`` and the level-based
    scheduler's walk key both come from here, so the two are the same
    float, not two sums that happen to agree.
    """
    return compute_energy + comm_energy


def schedule_incoming_transactions(
    ctg: CTG,
    acg: ACG,
    task: str,
    dst_pe: int,
    placements: Mapping[str, TaskPlacement],
    overlay: TentativeOverlay,
    contention_aware: bool = True,
    floor: float = 0.0,
) -> Tuple[float, List[Transfer]]:
    """Schedule the LCT of ``task`` assuming it runs on ``dst_pe``.

    Args:
        ctg: application graph.
        acg: platform.
        task: the receiving task.
        dst_pe: candidate destination PE index.
        placements: already-committed task placements; every predecessor
            of ``task`` must appear here (level-based scheduling only
            considers ready tasks).
        overlay: tentative layer over the committed link tables; this
            function records its reservations there and never commits.
        contention_aware: when False, link occupancy is ignored — every
            transaction pretends to start the moment its sender finishes
            (the fixed-delay model the paper's introduction criticises).
            Used only by the contention ablation; the resulting
            placements may overlap on links.
        floor: earliest time any transaction may start.  Degraded-mode
            recovery passes the fault time so nothing new is scheduled in
            the already-elapsed past; 0.0 (the default) is a no-op
            because all times are non-negative.

    Returns:
        ``(drt, transfers)`` — the data ready time (0.0 for source
        tasks) and one :class:`Transfer` per incoming edge, in the order
        they were scheduled.  Each transfer's energy and duration come
        from the route fetched for it: ``volume * e(r)`` and
        ``volume / b(r)``, the floats ``acg.comm_energy`` and
        ``acg.comm_duration`` return.
    """
    lct = ctg.in_edges(task)
    if not lct:
        return 0.0, []

    try:
        lct = in_sender_order(lct, placements)
    except KeyError as missing:
        raise SchedulingError(
            f"cannot schedule transactions of {task!r}: sender {missing.args[0]!r} unplaced"
        ) from None

    link_probes = overlay.base.link_probes
    local_transfers = overlay.base.local_transfers

    drt = 0.0
    transfers: List[Transfer] = []
    for edge in lct:
        sender = placements[edge.src]
        route = acg.route(sender.pe, dst_pe)
        volume = edge.volume
        duration = volume / route.bandwidth if route.links else 0.0
        ready = max(sender.finish, floor)
        if duration == 0.0:
            # Same tile or zero volume: no links held, data available at
            # the moment the sender finishes (or the floor, if later).
            start = finish = ready
            local_transfers.inc()
        elif not contention_aware:
            # Fixed-delay model: transfer time only, no link arbitration.
            start = ready
            finish = start + duration
        else:
            start = overlay.find_earliest_on_path(route.link_keys, ready, duration)
            finish = start + duration
            overlay.reserve_on_path(route.link_keys, start, finish)
            link_probes.inc()
        transfers.append(
            Transfer(edge, sender.pe, dst_pe, start, finish, route, volume * route.energy_per_bit)
        )
        if finish > drt:
            drt = finish

    return drt, transfers


def incoming_comm_energy(
    ctg: CTG,
    acg: ACG,
    task: str,
    dst_pe: int,
    mapping: Mapping[str, int],
) -> float:
    """Network energy of delivering all of ``task``'s inputs to ``dst_pe``.

    Depends only on the mapping (Eq. 3's communication term), not on
    timing; used by the level-based scheduler's ``E1``/``E2`` metrics and
    by GTM's destination ordering.
    """
    total = 0.0
    for edge in ctg.in_edges(task):
        src_pe = mapping.get(edge.src)
        if src_pe is not None:
            total += acg.comm_energy(edge.volume, src_pe, dst_pe)
    return total


def outgoing_comm_energy(
    ctg: CTG,
    acg: ACG,
    task: str,
    src_pe: int,
    mapping: Mapping[str, int],
) -> float:
    """Network energy of ``task``'s outputs toward already-mapped consumers."""
    total = 0.0
    for edge in ctg.out_edges(task):
        dst_pe = mapping.get(edge.dst)
        if dst_pe is not None:
            total += acg.comm_energy(edge.volume, src_pe, dst_pe)
    return total
