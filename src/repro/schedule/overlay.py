"""Resource tables with cheap tentative (what-if) reservations.

The level-based scheduler evaluates ``F(i,k)`` for every (ready task, PE)
combination by *tentatively* scheduling the task's receiving transactions
and then restoring the tables ("the schedule tables of both links and the
PEs will be restored every time a F(i,k) is calculated").  Copying every
table per evaluation would dominate runtime, so :class:`ResourceTables`
keeps the committed tables immutable during an evaluation and layers the
tentative reservations in a small per-evaluation overlay.

Path-table cache
----------------
Fig. 3 prices a transaction by merging the busy lists of every link on
its XY route ("``path.build_schedule_table()``").  The same routes are
probed over and over — across the transactions of one evaluation, across
the PE candidates of one RTL iteration, and across the replays of the
incremental repair engine — while the underlying link tables change only
on commit.  :meth:`ResourceTables.path_busy` therefore caches the merged
*committed* busy list per route, keyed by the route's resource tuple and
validated by the tuple of per-table version counters (see
:class:`~repro.schedule.table.ScheduleTable`): a probe whose links are
all unchanged reuses the merge verbatim, and the overlay only merges
``[cached_path_table, *tentative_extras]`` on top.  Version mismatch is
the *only* invalidation rule — results are float-exact by construction,
never heuristic (soundness argument in DESIGN.md).

Two further hot-read-path economies: all scheduler-internal reads go
through zero-copy views (:meth:`ResourceTables.busy_view`; the public
:meth:`busy` / ``intervals()`` accessors keep copying for external use),
and a probe whose ready time lies at or beyond every involved horizon —
the common case at the schedule frontier — returns ``ready`` without
merging anything (the *horizon fast path*).  The paper-literal
re-merge-per-probe path lives in :mod:`repro.core.reference` as the
oracle these economies are tested against.

Counters: ``comm.path_cache_hits`` / ``comm.path_cache_misses``,
``comm.horizon_fast_path``, and ``comm.merge_intervals`` (total intervals
fed through merges — the work metric ``bench_commsched`` gates on).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, AbstractSet, Dict, Iterable, List, Sequence, Set, Tuple

from repro.schedule.table import EPS, Interval, ScheduleTable, find_gap, merge_busy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedule.entries import CommPlacement, TaskPlacement

#: A schedule-table resource: a PE index or a :attr:`repro.arch.topology.Link.key`
#: (link keys never equal a PE index).  The tables accept any hashable key
#: at runtime; the schedulers only ever pass these ints.
ResourceId = int

#: shared read view of a resource that has no table yet.
_EMPTY_BUSY: Tuple[Interval, ...] = ()


class ResourceTables:
    """Committed schedule tables for a set of resources, keyed by :data:`ResourceId`.

    Resources are created lazily: querying an unknown resource sees an
    empty table.  PE resources are keyed by PE index, link resources by
    :attr:`Link.key <repro.arch.topology.Link.key>`, a plain int, so the
    hot path never hashes a ``Link`` dataclass.

    Probes go through the version-keyed path-table cache plus horizon
    fast path; :class:`repro.core.reference.LiteralTables` is the
    recompute-every-merge oracle they must agree with bit for bit.
    """

    def __init__(self) -> None:
        self._tables: Dict[ResourceId, ScheduleTable] = {}
        #: route tuple -> (per-link version tuple, merged committed busy
        #: list).  Entries' lists are never mutated after insertion.
        self._path_cache: Dict[
            Tuple[ResourceId, ...], Tuple[Tuple[int, ...], List[Interval]]
        ] = {}
        # Counter fetch is deferred so merely importing this module never
        # drags in the obs package (which itself imports schedule code).
        from repro import obs

        metrics = obs.get().metrics
        self._path_hits = metrics.counter("comm.path_cache_hits")
        self._path_misses = metrics.counter("comm.path_cache_misses")
        self._horizon_hits = metrics.counter("comm.horizon_fast_path")
        self._merge_work = metrics.counter("comm.merge_intervals")
        #: Fig. 3 counters, bumped by ``schedule_incoming_transactions``.
        self.link_probes = metrics.counter("comm.link_probes")
        self.local_transfers = metrics.counter("comm.local_transfers")

    def table(self, resource: ResourceId) -> ScheduleTable:
        """One resource's table, created empty on first use."""
        tbl = self._tables.get(resource)
        if tbl is None:
            tbl = ScheduleTable()
            self._tables[resource] = tbl
        return tbl

    def busy(self, resource: ResourceId) -> List[Interval]:
        """Defensive copy of a resource's busy list (external/API use)."""
        tbl = self._tables.get(resource)
        return tbl.intervals() if tbl is not None else []

    def busy_view(self, resource: ResourceId) -> Sequence[Interval]:
        """Zero-copy read view of a resource's busy list.

        Callers must treat the result as immutable and must not hold it
        across a mutation of this resource (the hot probe path reads it
        and lets go; see :meth:`ScheduleTable.busy_view`).
        """
        tbl = self._tables.get(resource)
        return tbl.busy_view() if tbl is not None else _EMPTY_BUSY

    def version(self, resource: ResourceId) -> int:
        """The resource's content-version (0 for never-touched tables).

        A lazily created empty table also reports 0: both states have
        the same (empty) busy list, so the shared version is sound.
        """
        tbl = self._tables.get(resource)
        return tbl.version if tbl is not None else 0

    def path_busy(self, resources: Sequence[ResourceId]) -> Sequence[Interval]:
        """The merged committed busy list of a route, cached by version.

        The cache key is the route's resource tuple; the entry is valid
        iff every member table still has the version it was merged at —
        version equality implies byte-identical merge inputs, hence a
        byte-identical merge (DESIGN.md, "Path-table cache soundness").
        """
        key = tuple(resources)
        tables = self._tables
        versions = tuple([tables[r].version if r in tables else 0 for r in key])
        entry = self._path_cache.get(key)
        if entry is not None and entry[0] == versions:
            self._path_hits.inc()
            return entry[1]
        views = [self.busy_view(r) for r in key]
        self._merge_work.inc(sum(len(view) for view in views))
        merged = merge_busy(views)
        self._path_cache[key] = (versions, merged)
        self._path_misses.inc()
        return merged

    def reserve(self, resource: ResourceId, start: float, end: float) -> None:
        self.table(resource).reserve(start, end)

    def release(self, resource: ResourceId, start: float, end: float) -> None:
        self.table(resource).release(start, end)

    def truncate_from(self, resource: ResourceId, start: float) -> int:
        """Bulk-drop the resource's reservations beginning at/after ``start``."""
        return self.table(resource).truncate_from(start)

    def fill(
        self, placements: Iterable["TaskPlacement"], comms: Iterable["CommPlacement"]
    ) -> None:
        """Reserve each task placement on its PE and each transaction on its links."""
        for resource, intervals in _intervals_of(placements, comms).items():
            for start, end in intervals:
                self.reserve(resource, start, end)

    def undo(
        self, placements: Iterable["TaskPlacement"], comms: Iterable["CommPlacement"]
    ) -> None:
        """Remove the reservations :meth:`fill` made for these placements.

        Work is proportional to what is undone: where the intervals are
        exactly a resource's busy tail, one :meth:`truncate_from` drops
        them; elsewhere each is released by exact match.
        """
        for resource, intervals in _intervals_of(placements, comms).items():
            intervals.sort()
            # Zero-copy read: compared, never mutated (the slice copies).
            busy = self.busy_view(resource)
            tail_at = bisect_left(busy, (intervals[0][0], -math.inf))
            if list(busy[tail_at:]) == intervals:
                self.truncate_from(resource, intervals[0][0])
            else:
                for start, end in intervals:
                    self.release(resource, start, end)

    def find_earliest(self, resource: ResourceId, ready: float, duration: float) -> float:
        return self.table(resource).find_earliest(ready, duration)

    def resources(self) -> List[ResourceId]:
        return list(self._tables)

    def copy(self) -> "ResourceTables":
        """An independent clone of the same class, with the counters and path cache.

        Sharing the counter objects skips a registry round-trip per
        clone; copying the path cache keeps its routes warm.  Entries
        stay sound in both lineages because a table copy preserves its
        version and every mutation bumps it — per lineage, versions are
        strictly monotone (see DESIGN.md).
        """
        clone = type(self).__new__(type(self))
        clone._tables = {k: v.copy() for k, v in self._tables.items()}
        clone._path_cache = dict(self._path_cache)
        clone._path_hits = self._path_hits
        clone._path_misses = self._path_misses
        clone._horizon_hits = self._horizon_hits
        clone._merge_work = self._merge_work
        clone.link_probes = self.link_probes
        clone.local_transfers = self.local_transfers
        return clone

    def fork(self) -> "ResourceTables":
        # Kept under this name because benchmarks/e2e/trace.py traces it
        # for its ``overlay.fork`` layer.
        return self.copy()

    def overlay(self) -> "TentativeOverlay":
        """A fresh what-if layer over the committed state."""
        return TentativeOverlay(self)


def _intervals_of(
    placements: Iterable["TaskPlacement"], comms: Iterable["CommPlacement"]
) -> Dict[ResourceId, List[Interval]]:
    """The busy intervals the placements hold, by resource (empty ones skipped)."""
    intervals: Dict[ResourceId, List[Interval]] = {}
    for placement in placements:
        if placement.finish - placement.start > EPS:
            intervals.setdefault(placement.pe, []).append((placement.start, placement.finish))
    for comm in comms:
        if comm.finish - comm.start > EPS:
            for link in comm.links:
                intervals.setdefault(link.key, []).append((comm.start, comm.finish))
    return intervals


class TentativeOverlay:
    """Uncommitted reservations layered over :class:`ResourceTables`.

    Reservations recorded here are visible to subsequent queries through
    the overlay (transaction n+1 must see transaction n's tentative link
    occupancy) but never touch the committed tables; dropping the overlay
    is the paper's "restore".  Per-resource tentative lists are kept
    sorted with ``bisect.insort`` so reads never re-sort them.

    The overlay also records every resource whose committed busy state a
    query consulted (its *probe footprint*).  An F(i,k) evaluation's
    result is a pure function of the busy states it probed, so a later
    commit can only change the result if it reserves one of the probed
    resources — the invariant :class:`repro.core.placement.ProbeCache`
    invalidates on.
    """

    def __init__(self, base: ResourceTables) -> None:
        #: the committed tables this overlay layers over.
        self.base = base
        self._extra: Dict[ResourceId, List[Interval]] = {}
        #: per-resource max end of the tentative reservations, for the
        #: horizon fast path.
        self._extra_horizon: Dict[ResourceId, float] = {}
        self._probed: Set[ResourceId] = set()

    def _combined(self, resource: ResourceId) -> Sequence[Interval]:
        extra = self._extra.get(resource)
        base = self.base.busy_view(resource)
        if not extra:
            return base
        self.base._merge_work.inc(len(base) + len(extra))
        return merge_busy([base, extra])

    def _horizon(self, resources: Iterable[ResourceId]) -> float:
        """Latest busy end visible through the overlay on any of ``resources``.

        Each table's and tentative list's last end is read inline, with
        no method call per resource: this runs for every transaction of
        every probe.
        """
        tables = self.base._tables
        extra_horizon = self._extra_horizon
        horizon = 0.0
        for resource in resources:
            table = tables.get(resource)
            if table is not None:
                busy = table._busy
                if busy and busy[-1][1] > horizon:
                    horizon = busy[-1][1]
            extra = extra_horizon.get(resource, 0.0)
            if extra > horizon:
                horizon = extra
        return horizon

    def find_earliest(self, resource: ResourceId, ready: float, duration: float) -> float:
        self._probed.add(resource)
        if ready >= self._horizon((resource,)):
            # Nothing visible ends after `ready`: find_gap would scan
            # past every interval and return `ready` unchanged.
            self.base._horizon_hits.inc()
            return ready
        return find_gap(self._combined(resource), ready, duration)

    def find_earliest_on_path(
        self, resources: Sequence[ResourceId], ready: float, duration: float
    ) -> float:
        """Earliest slot free on *all* path resources simultaneously.

        Implements Fig. 3: the path schedule table is the merge of the
        occupied slots of the comprising links.  The committed part of
        that merge comes from :meth:`ResourceTables.path_busy` and only
        the overlay's own tentative intervals are merged per probe; a
        ready time at or beyond every horizon skips the merge entirely.
        """
        if not resources:
            return ready
        self._probed.update(resources)
        base = self.base
        if ready >= self._horizon(resources):
            base._horizon_hits.inc()
            return ready
        merged = base.path_busy(resources)
        extras = [self._extra[r] for r in resources if r in self._extra]
        if extras:
            base._merge_work.inc(len(merged) + sum(len(e) for e in extras))
            merged = merge_busy([merged] + extras)
        return find_gap(merged, ready, duration)

    def reserve(self, resource: ResourceId, start: float, end: float) -> None:
        self.reserve_on_path((resource,), start, end)

    def reserve_on_path(self, resources: Iterable[ResourceId], start: float, end: float) -> None:
        """Tentatively hold every resource of a route over ``[start, end)``."""
        if end - start <= 0:
            return
        window = (start, end)
        extra = self._extra
        extra_horizon = self._extra_horizon
        for resource in resources:
            insort(extra.setdefault(resource, []), window)
            if end > extra_horizon.get(resource, 0.0):
                extra_horizon[resource] = end

    def probed_resources(self) -> AbstractSet[ResourceId]:
        """Every resource whose busy state a query on this overlay read.

        This is the evaluation's *resource footprint*: its result can
        only change when one of these resources gains a reservation.
        The set is live (queries after this call extend it), not a copy;
        callers must not mutate it.
        """
        return self._probed

    def reservations(self) -> Dict[ResourceId, Tuple[Interval, ...]]:
        """Snapshot of the tentative reservations, keyed by resource.

        The snapshot survives :meth:`drop`, so a caller can replay
        exactly the reservations :meth:`commit` would have made.
        Per-resource intervals come back time-sorted (the storage
        order); they are mutually non-overlapping, so replay order is
        immaterial to the resulting tables.
        """
        return {resource: tuple(intervals) for resource, intervals in self._extra.items()}

    def commit(self) -> None:
        """Apply all tentative reservations to the committed tables."""
        for resource, intervals in self._extra.items():
            for start, end in intervals:
                self.base.reserve(resource, start, end)
        self._extra.clear()
        self._extra_horizon.clear()

    def drop(self) -> None:
        """Discard all tentative reservations (the paper's table restore)."""
        self._extra.clear()
        self._extra_horizon.clear()
