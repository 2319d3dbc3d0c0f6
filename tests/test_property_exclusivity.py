"""The one-sweep PE and link exclusivity check against the table loop it replaced.

``Schedule._validate_pe_exclusivity`` and ``_validate_link_exclusivity``
used to reserve every placement, in start order, in one
``ScheduleTable`` per resource.  :func:`table_loop` keeps that loop as
the oracle: the sweep must raise on exactly the schedules the oracle
raises on, naming the same placement in the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import mesh_2x2
from repro.arch.topology import Link
from repro.ctg.graph import CTG
from repro.errors import ScheduleValidationError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.schedule import Schedule
from repro.schedule.table import EPS, ScheduleTable

LINKS = [Link((0, 0), (0, 1)), Link((0, 1), (0, 0)), Link((0, 1), (1, 1))]


def table_loop(schedule: Schedule) -> None:
    """The exclusivity checks as they were: a ScheduleTable per resource."""
    per_pe = {}
    for placement in sorted(schedule.task_placements.values(), key=lambda p: p.start):
        table = per_pe.setdefault(placement.pe, ScheduleTable())
        if not table.is_free(placement.start, placement.finish):
            raise ScheduleValidationError(
                f"task {placement.task!r} overlaps another task on PE {placement.pe}"
            )
        table.reserve(placement.start, placement.finish)
    per_link = {}
    for placement in sorted(schedule.comm_placements.values(), key=lambda p: p.start):
        for link in placement.links:
            table = per_link.setdefault(link, ScheduleTable())
            if not table.is_free(placement.start, placement.finish):
                raise ScheduleValidationError(
                    f"transaction {placement.src_task}->{placement.dst_task} "
                    f"overlaps traffic on link {link}"
                )
            table.reserve(placement.start, placement.finish)


def sweep(schedule: Schedule) -> None:
    schedule._validate_pe_exclusivity()
    schedule._validate_link_exclusivity()


def outcome(check, schedule: Schedule):
    try:
        check(schedule)
    except ScheduleValidationError as exc:
        return str(exc)
    return None


def build(tasks, comms) -> Schedule:
    """``tasks``: (pe, start, length); ``comms``: (links, start, length)."""
    schedule = Schedule(CTG(name="exclusivity"), mesh_2x2())
    for i, (pe, start, length) in enumerate(tasks):
        name = f"t{i}"
        schedule.task_placements[name] = TaskPlacement(name, pe, start, start + length, 1.0)
    for i, (links, start, length) in enumerate(comms):
        src, dst = f"s{i}", f"d{i}"
        schedule.comm_placements[(src, dst)] = CommPlacement(
            src, dst, 8.0, 0, 1, start, start + length, tuple(links), 1.0
        )
    return schedule


def nudged(grid):
    """Grid points moved by a multiple of EPS/2: touching, equal and near-EPS overlaps."""
    return st.tuples(grid, st.integers(-3, 3)).map(lambda t: t[0] + t[1] * EPS / 2)


times = st.one_of(
    nudged(st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e3])),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
lengths = st.one_of(
    st.just(0.0),
    nudged(st.sampled_from([0.0, 1.0, 2.0])),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
task_lists = st.lists(st.tuples(st.integers(0, 3), times, lengths), max_size=8)
comm_lists = st.lists(
    st.tuples(st.lists(st.sampled_from(LINKS), max_size=3), times, lengths), max_size=8
)


class TestSweepMatchesTableLoop:
    @settings(max_examples=500, deadline=None)
    @given(task_lists, comm_lists)
    def test_same_verdict_and_message(self, tasks, comms):
        schedule = build(tasks, comms)
        assert outcome(sweep, schedule) == outcome(table_loop, schedule)

    @pytest.mark.parametrize(
        "intervals, clash",
        [
            ([(0.0, 1.0), (1.0, 1.0)], False),  # touching
            ([(0.0, 1.0), (1.0 - EPS, 1.0)], False),  # overlap of exactly EPS
            ([(0.0, 1.0), (1.0 - 2 * EPS, 1.0)], True),  # just past EPS
            ([(0.0, 2.0), (0.5, 0.0), (1.0, EPS / 2)], False),  # zero- and sub-EPS-length inside
            ([(0.0, 1.0), (0.0, 1.0)], True),  # equal starts
            ([(0.0, 3.0), (1.0, 1.0), (4.0, 1.0)], True),  # nested
        ],
    )
    def test_boundaries(self, intervals, clash):
        tasks = [(0, start, length) for start, length in intervals]
        comms = [([LINKS[0]], start, length) for start, length in intervals]
        for schedule in (build(tasks, []), build([], comms)):
            expected = outcome(table_loop, schedule)
            assert (expected is not None) is clash
            assert outcome(sweep, schedule) == expected
