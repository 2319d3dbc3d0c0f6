"""Property-based tests (hypothesis) for the schedule-table substrate.

The schedule tables are the load-bearing data structure of every
scheduler; these tests pin their algebra: reservations never overlap,
``find_earliest`` always returns the *earliest* feasible start, and
merging busy lists is a sound union.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.table import ScheduleTable, find_gap, merge_busy

# Non-degenerate intervals over a small domain to force collisions.
interval = st.tuples(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=40),
).map(lambda t: (float(t[0]), float(t[0] + t[1])))

interval_lists = st.lists(st.lists(interval, max_size=8), max_size=5)


def fill_table(intervals):
    """Insert greedily, skipping conflicts; returns the table."""
    table = ScheduleTable()
    for start, end in intervals:
        if table.is_free(start, end):
            table.reserve(start, end)
    return table


class TestReservationInvariants:
    @given(st.lists(interval, max_size=30))
    def test_intervals_sorted_and_disjoint(self, intervals):
        table = fill_table(intervals)
        busy = table.intervals()
        for (s1, e1), (s2, e2) in zip(busy, busy[1:]):
            assert e1 <= s2 + 1e-9
            assert s1 <= e1 and s2 <= e2

    @given(st.lists(interval, max_size=30))
    def test_busy_time_is_sum_of_intervals(self, intervals):
        table = fill_table(intervals)
        assert table.busy_time() == sum(e - s for s, e in table.intervals())

    @given(st.lists(interval, max_size=20), interval)
    def test_release_inverts_reserve(self, intervals, extra):
        table = fill_table(intervals)
        start, end = extra
        if table.is_free(start, end):
            before = table.intervals()
            table.reserve(start, end)
            table.release(start, end)
            assert table.intervals() == before


class TestFindEarliestProperties:
    @given(
        st.lists(interval, max_size=20),
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0.5, max_value=60),
    )
    def test_result_fits_and_is_after_ready(self, intervals, ready, duration):
        table = fill_table(intervals)
        start = table.find_earliest(ready, duration)
        assert start >= ready
        assert table.is_free(start, start + duration)

    @given(
        st.lists(interval, max_size=12),
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0.5, max_value=60),
    )
    @settings(max_examples=60)
    def test_result_is_earliest_on_grid(self, intervals, ready, duration):
        """No grid point strictly before the result also fits."""
        table = fill_table(intervals)
        start = table.find_earliest(ready, duration)
        # Candidate earlier starts: the ready time and every busy end.
        candidates = [ready] + [e for _s, e in table.intervals() if ready <= e < start]
        for candidate in candidates:
            if candidate < start - 1e-9:
                assert not table.is_free(candidate, candidate + duration)

    @given(st.lists(interval, max_size=20), st.floats(min_value=0, max_value=500))
    def test_zero_duration_always_ready(self, intervals, ready):
        table = fill_table(intervals)
        assert table.find_earliest(ready, 0.0) == ready


class TestMergeProperties:
    @given(interval_lists)
    def test_merge_is_sorted_and_disjoint(self, lists):
        tables = [fill_table(lst).intervals() for lst in lists]
        merged = merge_busy(tables)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2  # strictly disjoint after coalescing
        for s, e in merged:
            assert s <= e

    @given(interval_lists)
    def test_merge_covers_every_input_point(self, lists):
        tables = [fill_table(lst).intervals() for lst in lists]
        merged = merge_busy(tables)

        def covered(x):
            return any(s <= x <= e for s, e in merged)

        for intervals in tables:
            for s, e in intervals:
                assert covered(s) and covered(e) and covered((s + e) / 2)

    @given(interval_lists, st.floats(min_value=0, max_value=500), st.floats(min_value=0.5, max_value=50))
    def test_gap_in_merge_free_in_all_inputs(self, lists, ready, duration):
        tables = [fill_table(lst) for lst in lists]
        merged = merge_busy([t.intervals() for t in tables])
        start = find_gap(merged, ready, duration)
        for table in tables:
            assert table.is_free(start, start + duration)


# -- path cache vs the literal oracle ---------------------------------------------

from repro.arch.topology import Link
from repro.core.reference import LiteralTables
from repro.errors import SchedulingError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.overlay import ResourceTables

PES = (0, 1)
LINKS = tuple(Link((0, i), (0, i + 1)) for i in range(4))
RESOURCES = PES + LINKS
#: every contiguous route over the link chain, plus a reversed one.
PATHS = tuple(LINKS[i:j] for i in range(4) for j in range(i + 1, 5)) + (LINKS[::-1],)

time_point = st.integers(min_value=0, max_value=60).map(float)
span = st.integers(min_value=1, max_value=12).map(float)
lineage = st.integers(min_value=0, max_value=3)
route = st.sampled_from(PATHS)

table_ops = st.one_of(
    st.tuples(st.just("reserve"), lineage, st.sampled_from(RESOURCES), time_point, span),
    st.tuples(st.just("release"), lineage, st.sampled_from(RESOURCES), st.integers(0, 5)),
    st.tuples(st.just("truncate"), lineage, st.sampled_from(RESOURCES), time_point),
    st.tuples(
        st.just("fill"),
        lineage,
        st.lists(st.tuples(st.sampled_from(PES), time_point, span), max_size=2),
        st.lists(st.tuples(route, time_point, span), max_size=2),
    ),
    st.tuples(st.just("undo"), lineage),
    st.tuples(st.just("fork"), lineage),
    st.tuples(st.just("copy"), lineage),
    st.tuples(
        st.just("overlay"),
        lineage,
        st.lists(st.tuples(route, time_point, span), max_size=3),
        st.booleans(),
    ),
)


def _placements(tasks, comms):
    placements = [
        TaskPlacement(f"t{n}", pe, start, start + length, 0.0)
        for n, (pe, start, length) in enumerate(tasks)
    ]
    transfers = [
        CommPlacement(f"s{n}", f"d{n}", 1.0, 0, 1, start, start + length, links, 0.0)
        for n, (links, start, length) in enumerate(comms)
    ]
    return placements, transfers


def _apply(tables, op, args):
    """Apply one op to a tables object; ``False`` when it does not apply."""
    try:
        if op == "reserve":
            resource, start, length = args
            tables.reserve(resource, start, start + length)
        elif op == "release":
            resource, index = args
            busy = tables.busy(resource)
            if index >= len(busy):
                return False
            tables.release(resource, *busy[index])
        elif op == "truncate":
            resource, start = args
            tables.truncate_from(resource, start)
        elif op == "fill":
            tables.fill(*args)
        elif op == "undo":
            tables.undo(*args)
        elif op == "overlay":
            extras, commit = args
            overlay = tables.overlay()
            for links, start, length in extras:
                overlay.reserve_on_path(links, start, start + length)
            if commit:
                overlay.commit()
    except SchedulingError:
        return False
    return True


def _assert_probes_agree(cached, literal, readies, extras):
    for resource in RESOURCES:
        assert cached.busy(resource) == literal.busy(resource)
    for tentative in ((), extras):
        oc, ol = cached.overlay(), literal.overlay()
        for links, start, length in tentative:
            oc.reserve_on_path(links, start, start + length)
            ol.reserve_on_path(links, start, start + length)
        for ready in readies:
            for duration in (0.0, 1.0, 7.5):
                for links in PATHS:
                    assert oc.find_earliest_on_path(links, ready, duration) == (
                        ol.find_earliest_on_path(links, ready, duration)
                    )
                for pe in PES:
                    assert oc.find_earliest(pe, ready, duration) == (
                        ol.find_earliest(pe, ready, duration)
                    )


class TestPathCacheMatchesLiteral:
    """The version-keyed path cache and horizon fast path are invisible.

    Random op sequences run in lockstep on :class:`ResourceTables` and the
    paper-literal :class:`LiteralTables`, across forked and copied
    lineages; after every step each lineage answers every probe the same.
    """

    @given(
        st.lists(table_ops, min_size=1, max_size=14),
        st.lists(time_point, min_size=1, max_size=3),
        st.lists(st.tuples(route, time_point, span), max_size=2),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_every_probe_matches_literal(self, ops, readies, extras):
        lineages = [(ResourceTables(), LiteralTables())]
        filled = [[]]
        for op, index, *args in ops:
            index %= len(lineages)
            cached, literal = lineages[index]
            if op in ("fork", "copy"):
                if len(lineages) < 4:
                    lineages.append((getattr(cached, op)(), getattr(literal, op)()))
                    filled.append(list(filled[index]))
            else:
                if op == "fill":
                    args = list(_placements(*args))
                elif op == "undo":
                    if not filled[index]:
                        continue
                    args = filled[index][-1]
                # Probe the cached side first so its path cache is warm
                # (and possibly stale) when the mutation lands.
                cached.overlay().find_earliest_on_path(LINKS, 0.0, 1.0)
                applied = _apply(cached, op, args)
                assert _apply(literal, op, args) == applied
                if applied and op == "fill":
                    filled[index].append(args)
                elif applied and op == "undo":
                    filled[index].pop()
            for cached, literal in lineages:
                _assert_probes_agree(cached, literal, readies, extras)
