"""Step 2 keeps a ready task's walk summary while its cached entries survive.

``LevelBasedScheduler`` re-walks a ready task only when it is newly
ready or a commit dropped a cache entry its last walk read
(``_summary``).  These tests check that each reused summary equals a
fresh walk, that the decision comes from what the cache actually
dropped (a cache that forgets everything reuses nothing), and that the
walk keys ``_enter_rtl`` builds in one column pass per input edge are
the per-PE ``task_energy`` of every routable candidate, bit for bit.
The cases are the walk property suite's, degraded platforms included.
"""

from __future__ import annotations

from hypothesis import given

from repro.core.comm import in_sender_order, task_energy
from repro.core.eas import LevelBasedScheduler
from repro.core.rebuild import NO_PREFIX
from repro.core.reference import ClearingProbeCache
from repro.errors import UnroutableError
from tests.test_property_walk import (
    EXAMPLES,
    FAULT_EXAMPLES,
    PROPERTY,
    _example_all,
    _example_faults,
    build,
    cases,
    fault_cases,
    level,
    recoveries,
)


class RewalkingScheduler(LevelBasedScheduler):
    """Re-walks every reused summary and requires the same result."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rechecked = 0
        self.placed_all = False

    def run(self):
        schedule = super().run()
        self.placed_all = True
        return schedule

    def _summary(self, task_name: str):
        reused = self._reused
        summary = super()._summary(task_name)
        if self._reused > reused:
            counts = (self._hits, self._fresh, self._skips)
            fresh = self._walk(task_name)
            assert self._fresh == counts[1], "a valid summary's walk probed afresh"
            self._hits, self._fresh, self._skips = counts
            assert fresh == summary, task_name
            self.rechecked += 1
        return summary


class ClearingScheduler(LevelBasedScheduler):
    """Step 2 on a cache that forgets every entry on commit."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cache = ClearingProbeCache()


class KeyOracleScheduler(LevelBasedScheduler):
    """Checks each task's walk keys against per-PE ``task_energy``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.unroutable = 0

    def _enter_rtl(self, task_name: str) -> None:
        super()._enter_rtl(task_name)
        task = self.ctg.task(task_name)
        edges = in_sender_order(self.ctg.in_edges(task_name), self._placements)
        expected = []
        for pe in self.acg.pes:
            cost = task.cost_on(pe.type_name)
            if not (self.acg.pe_available(pe.index) and cost.feasible):
                continue
            try:
                comm = [
                    edge.volume
                    * self.acg.route(self._placements[edge.src].pe, pe.index).energy_per_bit
                    for edge in edges
                ]
            except UnroutableError:
                self.unroutable += 1
                continue
            expected.append((task_energy(cost.energy, sum(comm)), pe.index))
        expected.sort()
        keys = self._walk_keys[task_name]
        assert [(e.hex(), pe) for e, pe in keys] == [(e.hex(), pe) for e, pe in expected]


def _check_reuse(ctg, acg, contention_aware=True, prefix=NO_PREFIX):
    """The rewalking, plain and clearing schedulers agree; returns the first's state."""
    rewalked, rewalker, metrics = level(RewalkingScheduler, ctg, acg, contention_aware, prefix)
    plain, _, _ = level(LevelBasedScheduler, ctg, acg, contention_aware, prefix)
    cleared, _, cleared_metrics = level(ClearingScheduler, ctg, acg, contention_aware, prefix)
    assert rewalked == plain == cleared
    if rewalker.placed_all:  # a failed iteration counts nothing
        assert rewalker.rechecked == metrics.counter("eas.reused_summaries").value
    assert cleared_metrics.counter("eas.reused_summaries").value == 0
    return rewalker, metrics


@_example_all
@PROPERTY
@given(cases)
def test_reused_summaries_equal_fresh_walks(case):
    ctg, acg, contention = build(case)
    _check_reuse(ctg, acg, contention)


@_example_faults
@PROPERTY
@given(fault_cases)
def test_reused_summaries_equal_fresh_walks_on_degraded_platforms(case):
    for ctg, degraded, prefix in recoveries(case):
        _check_reuse(ctg, degraded, prefix=prefix)


def test_pinned_examples_reuse_summaries():
    """Each pinned walk example keeps some summary across a commit."""
    for case in EXAMPLES:
        ctg, acg, contention = build(case)
        rewalker, metrics = _check_reuse(ctg, acg, contention)
        assert metrics.counter("eas.reused_summaries").value > 0, case
        assert rewalker.rechecked > 0


@_example_all
@PROPERTY
@given(cases)
def test_walk_keys_equal_per_pe_task_energy(case):
    ctg, acg, contention = build(case)
    level(KeyOracleScheduler, ctg, acg, contention)


@_example_faults
@PROPERTY
@given(fault_cases)
def test_walk_keys_equal_per_pe_task_energy_on_degraded_platforms(case):
    for ctg, degraded, prefix in recoveries(case):
        level(KeyOracleScheduler, ctg, degraded, prefix=prefix)


def test_walk_keys_skip_unreachable_pes():
    """On the pinned partitions some candidate PE is unreachable, and the
    column pass leaves it out exactly as the per-PE oracle does."""
    unroutable = 0
    for case in FAULT_EXAMPLES:
        for ctg, degraded, prefix in recoveries(case):
            _, scheduler, _ = level(KeyOracleScheduler, ctg, degraded, prefix=prefix)
            unroutable += scheduler.unroutable
    assert unroutable > 0
