"""Interval schedule tables.

The paper keeps a *schedule table* per shared resource (each PE and each
directed link, Fig. 1 right).  A table is a sorted list of half-open busy
intervals ``[start, end)``; the central query is *find the earliest start
at or after a ready time where a duration fits* (Fig. 3's
``find_earliest``), and the central update is a non-overlapping
reservation.

Intervals with zero duration are never stored (local/zero-volume
transfers occupy nothing).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Iterable, List, Sequence, Tuple

from repro.errors import SchedulingError

Interval = Tuple[float, float]

#: Tolerance for floating-point interval comparisons.
EPS = 1e-9


class ScheduleTable:
    """Sorted non-overlapping busy intervals on one resource.

    ``version`` counts content changes: every :meth:`reserve`,
    :meth:`release` or :meth:`truncate_from` that actually alters the
    busy list bumps it (no-ops — zero-duration reserves, empty
    truncations — do not).  :meth:`copy` preserves the version, so
    within any single :class:`~repro.schedule.overlay.ResourceTables`
    lineage equal versions imply byte-identical busy lists — the
    invariant the path-table cache invalidates on (see DESIGN.md,
    "Path-table cache soundness").
    """

    __slots__ = ("_busy", "version")

    def __init__(self, busy: Iterable[Interval] = ()) -> None:
        self._busy: List[Interval] = sorted((float(s), float(e)) for s, e in busy)
        self.version: int = 0
        self._check_sorted()

    def _check_sorted(self) -> None:
        prev_end = -math.inf
        for start, end in self._busy:
            if end < start:
                raise SchedulingError(f"inverted interval [{start}, {end})")
            if start < prev_end - EPS:
                raise SchedulingError("overlapping intervals in schedule table")
            prev_end = end

    # -- queries -----------------------------------------------------------

    def intervals(self) -> List[Interval]:
        """A defensive copy of the busy list (safe to mutate/keep).

        External/API callers get this; scheduler-internal read paths use
        :meth:`busy_view` to avoid the per-query copy.
        """
        return list(self._busy)

    def busy_view(self) -> List[Interval]:
        """Zero-copy read view of the busy list.

        The returned list is the table's own storage: callers MUST treat
        it as immutable and must not hold it across a mutation of this
        table (``reserve``/``release``/``truncate_from`` invalidate it).
        This is the hot read path — ``find_gap``/``merge_busy`` over
        every link of a route per F(i,k) probe; copying here measurably
        dominates the communication scheduler (see ``bench_commsched``).
        """
        return self._busy

    def __len__(self) -> int:
        return len(self._busy)

    def busy_time(self) -> float:
        """Total occupied time on this resource."""
        return sum(e - s for s, e in self._busy)

    def horizon(self) -> float:
        """End of the last reservation (0.0 when empty)."""
        return self._busy[-1][1] if self._busy else 0.0

    def is_free(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` overlaps no reservation."""
        if end - start <= EPS:
            return True
        idx = bisect_right(self._busy, (start, math.inf))
        if idx > 0 and self._busy[idx - 1][1] > start + EPS:
            return False
        if idx < len(self._busy) and self._busy[idx][0] < end - EPS:
            return False
        return True

    def find_earliest(self, ready: float, duration: float) -> float:
        """Earliest ``t >= ready`` with ``[t, t + duration)`` free."""
        return find_gap(self._busy, ready, duration)

    # -- updates -------------------------------------------------------------

    def reserve(self, start: float, end: float) -> None:
        """Add a busy interval; raises on conflict with existing ones."""
        if end - start <= EPS:
            return
        if not self.is_free(start, end):
            raise SchedulingError(f"reservation [{start}, {end}) conflicts with schedule table")
        insort(self._busy, (start, end))
        self.version += 1

    def release(self, start: float, end: float) -> None:
        """Remove a previously made reservation (exact match required).

        The busy list is sorted, so the lookup is a binary search
        (repair's LTS/GTM passes release in a loop; a linear scan here
        compounds to quadratic time on large tables).
        """
        if end - start <= EPS:
            return
        target = (float(start), float(end))
        idx = bisect_left(self._busy, target)
        if idx == len(self._busy) or self._busy[idx] != target:
            raise SchedulingError(f"no reservation [{start}, {end}) to release")
        del self._busy[idx]
        self.version += 1

    def truncate_from(self, start: float) -> int:
        """Drop every interval beginning at or after ``start``.

        The bulk form of :meth:`release` the incremental rebuild engine
        uses when the reservations to undo are exactly the tail of the
        busy list (one slice instead of N binary-searched deletes).
        Raises when an interval *straddles* ``start`` — a straddling
        reservation belongs partly to the kept prefix, so dropping it
        would be unsound.  Returns the number of intervals removed.
        """
        idx = bisect_left(self._busy, (float(start), -math.inf))
        if idx > 0 and self._busy[idx - 1][1] > start + EPS:
            raise SchedulingError(
                f"interval {self._busy[idx - 1]} straddles truncation point {start}"
            )
        dropped = len(self._busy) - idx
        del self._busy[idx:]
        if dropped:
            self.version += 1
        return dropped

    def copy(self) -> "ScheduleTable":
        clone = ScheduleTable.__new__(ScheduleTable)
        clone._busy = list(self._busy)
        clone.version = self.version
        return clone

    def __repr__(self) -> str:
        return f"ScheduleTable({self._busy!r})"


def find_gap(busy: Sequence[Interval], ready: float, duration: float) -> float:
    """Earliest start >= ``ready`` fitting ``duration`` in sorted ``busy``.

    ``busy`` must be sorted and non-overlapping.  Zero durations return
    ``ready`` immediately.
    """
    if duration <= EPS:
        return ready
    candidate = ready
    # Start scanning at the last interval beginning before the candidate.
    idx = bisect_right(busy, (candidate, math.inf))
    if idx > 0 and busy[idx - 1][1] > candidate:
        candidate = busy[idx - 1][1]
    while idx < len(busy):
        start, end = busy[idx]
        if start - candidate >= duration - EPS:
            return candidate
        candidate = max(candidate, end)
        idx += 1
    return candidate


def merge_busy(interval_lists: Sequence[Sequence[Interval]]) -> List[Interval]:
    """Union several sorted busy lists into one sorted non-overlapping list.

    This is the paper's ``path.build_schedule_table()``: the busy set of a
    route is the union of the busy sets of its comprising links.  Every
    input list is already sorted (they come from schedule tables or
    overlay layers that keep them so).  A k-way ``heapq.merge`` would do
    O(n log k) comparisons instead of O(n log n), but measures ~2x
    *slower* here: CPython's Timsort detects the presorted runs and
    merges them in C, while ``heapq.merge`` pays Python-level generator
    overhead per interval (see the microbenchmark in DESIGN.md).  The
    single-list case — local transactions and one-hop routes — skips
    sorting entirely.
    """
    populated = [intervals for intervals in interval_lists if intervals]
    if len(populated) == 1:
        merged: Sequence[Interval] = populated[0]
    else:
        merged = sorted(interval for intervals in populated for interval in intervals)
    if not merged:
        return []
    result = [merged[0]]
    for start, end in merged[1:]:
        last_start, last_end = result[-1]
        if start <= last_end + EPS:
            if end > last_end:
                result[-1] = (last_start, end)
        else:
            result.append((start, end))
    return result
