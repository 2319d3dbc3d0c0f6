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
reads are zero-copy.  ``EASConfig.use_path_cache=False`` (CLI
``--no-path-cache``) keeps the literal re-merge-per-probe reference path;
cached and literal probes return bit-identical answers (DESIGN.md,
"Path-table cache soundness").  Telemetry: ``comm.path_cache_hits`` /
``comm.path_cache_misses``, ``comm.horizon_fast_path`` and
``comm.merge_intervals``.

All reservations go through a :class:`TentativeOverlay` and never touch
the committed tables.  The only caller,
:func:`repro.core.placement.probe`, drops the overlay and keeps the
transaction placements in its evaluation; the scheduler then either
forgets the evaluation (a what-if) or commits it, reserving the same
links at the same times (the real placement) — the paper's "schedule
tables ... will be restored every time a F(i,k) is calculated".
``comm.link_probes`` and ``comm.local_transfers`` go to counters the
overlay's :class:`~repro.schedule.overlay.ResourceTables` fetched once,
not looked up per call.

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

from typing import List, Mapping, Tuple

from repro.arch.acg import ACG
from repro.ctg.graph import CTG
from repro.errors import SchedulingError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import TentativeOverlay


def schedule_incoming_transactions(
    ctg: CTG,
    acg: ACG,
    task: str,
    dst_pe: int,
    placements: Mapping[str, TaskPlacement],
    overlay: TentativeOverlay,
    contention_aware: bool = True,
    floor: float = 0.0,
) -> Tuple[float, List[CommPlacement]]:
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
        ``(drt, comm_placements)`` — the data ready time (0.0 for source
        tasks) and one :class:`CommPlacement` per incoming edge, in the
        order they were scheduled.
    """
    lct = ctg.in_edges(task)
    if not lct:
        return 0.0, []

    for edge in lct:
        if edge.src not in placements:
            raise SchedulingError(
                f"cannot schedule transactions of {task!r}: sender {edge.src!r} unplaced"
            )

    # Fig. 3: "sort LCT by the finish time of its sender".
    lct = sorted(lct, key=lambda e: (placements[e.src].finish, e.src))

    link_probes = overlay.base.link_probes
    local_transfers = overlay.base.local_transfers

    drt = 0.0
    comm_placements: List[CommPlacement] = []
    for edge in lct:
        sender = placements[edge.src]
        route = acg.route(sender.pe, dst_pe)
        duration = acg.comm_duration(edge.volume, sender.pe, dst_pe)
        ready = max(sender.finish, floor)
        if route.is_local or duration == 0.0:
            # Same tile or zero volume: no links held, data available at
            # the moment the sender finishes (or the floor, if later).
            start = finish = ready
            local_transfers.inc()
        elif not contention_aware:
            # Fixed-delay model: transfer time only, no link arbitration.
            start = ready
            finish = start + duration
        else:
            start = overlay.find_earliest_on_path(route.links, ready, duration)
            finish = start + duration
            overlay.reserve_on_path(route.links, start, finish)
            link_probes.inc()
        comm_placements.append(
            CommPlacement(
                src_task=edge.src,
                dst_task=task,
                volume=edge.volume,
                src_pe=sender.pe,
                dst_pe=dst_pe,
                start=start,
                finish=finish,
                links=route.links,
                energy=acg.comm_energy(edge.volume, sender.pe, dst_pe),
            )
        )
        if finish > drt:
            drt = finish

    return drt, comm_placements


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
