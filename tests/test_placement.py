"""The probe/commit primitive and the table fill/undo helpers.

The central claim of ``core/placement.py`` is that committing a clean
probe writes exactly what a second Fig. 3 pass at commit time would
have written.  ``_literal_place`` is that second pass, kept here as the
reference.
"""

import pytest

from repro.arch.acg import Route
from repro.arch.presets import mesh_3x3
from repro.core.comm import Transfer, schedule_incoming_transactions
from repro.core.eas import eas_schedule
from repro.arch.topology import Link
from repro.core.placement import Evaluation, ProbeCache, commit, probe
from repro.ctg.generator import generate_category
from repro.faults.degraded import DegradedACG
from repro.faults.plan import FaultPlan, PEFault
from repro.ctg.task import CommEdge, TaskCosts
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.table import EPS


def _literal_place(ctg, acg, task, pe, tables, placements, floor, contention_aware):
    """Recompute the placement on the tables and apply the overlay."""
    cost = ctg.task(task).cost_on(acg.pe(pe).type_name)
    overlay = tables.overlay()
    drt, transfers = schedule_incoming_transactions(
        ctg, acg, task, pe, placements, overlay, contention_aware=contention_aware, floor=floor
    )
    start = overlay.find_earliest(pe, max(drt, floor), cost.time)
    overlay.commit()
    tables.reserve(pe, start, start + cost.time)
    placements[task] = TaskPlacement(
        task=task, pe=pe, start=start, finish=start + cost.time, energy=cost.energy
    )
    return transfers


def _state(tables):
    return {r: (tables.busy(r), tables.version(r)) for r in tables.resources()}


@pytest.mark.parametrize("contention_aware", [True, False])
@pytest.mark.parametrize("floor", [0.0, 40.0])
def test_commit_equals_recompute(contention_aware, floor):
    ctg, acg = generate_category(1, 3, n_tasks=30), mesh_3x3()
    tables, placements = ResourceTables(), {}
    ref_tables, ref_placements = ResourceTables(), {}
    for task in ctg.topological_order():
        evaluations = [
            probe(ctg, acg, task, pe.index, tables, placements, floor, contention_aware)
            for pe in acg.pes
        ]
        best = min(evaluations, key=lambda ev: (ev.finish, ev.pe))
        commit(best, tables, placements, None)
        transfers = _literal_place(
            ctg, acg, task, best.pe, ref_tables, ref_placements, floor, contention_aware
        )
        assert best.transfers == transfers
        assert best.comms == [transfer.placement() for transfer in transfers]
        assert placements[task] == ref_placements[task]
    assert _state(tables) == _state(ref_tables)


def test_probe_leaves_tables_untouched():
    ctg, acg = generate_category(1, 0, n_tasks=20), mesh_3x3()
    tables, placements = ResourceTables(), {}
    for task in ctg.topological_order():
        before = _state(tables)
        evaluations = [probe(ctg, acg, task, pe.index, tables, placements) for pe in acg.pes]
        assert _state(tables) == before
        commit(min(evaluations, key=lambda ev: (ev.finish, ev.pe)), tables, placements, None)


def test_probe_drops_unroutable_pe():
    ctg = generate_category(1, 0, n_tasks=20)
    acg = DegradedACG(mesh_3x3(), FaultPlan(name="p", pe_faults=(PEFault(pe=4, time=0.0),)))
    task = next(name for name in ctg.topological_order() if ctg.in_edges(name))
    placements = {
        edge.src: TaskPlacement(task=edge.src, pe=0, start=0.0, finish=1.0, energy=0.0)
        for edge in ctg.in_edges(task)
    }
    assert probe(ctg, acg, task, 4, ResourceTables(), placements) is None
    assert probe(ctg, acg, task, 1, ResourceTables(), placements) is not None


class TestFillUndo:
    @pytest.fixture(scope="class")
    def committed(self):
        schedule = eas_schedule(generate_category(1, 2, n_tasks=30), mesh_3x3())
        order = sorted(schedule.task_placements.values(), key=lambda p: (p.start, p.task))
        comms_of = {p.task: [] for p in order}
        for comm in schedule.comm_placements.values():
            comms_of[comm.dst_task].append(comm)
        return order, comms_of

    def _filled(self, placements, comms_of):
        tables = ResourceTables()
        tables.fill(placements, [c for p in placements for c in comms_of[p.task]])
        return tables

    @pytest.mark.parametrize("pick", ["tail", "scattered"])
    def test_undo_equals_fill_of_the_rest(self, committed, pick):
        order, comms_of = committed
        if pick == "tail":
            undone, kept = order[len(order) // 2 :], order[: len(order) // 2]
        else:
            undone, kept = order[::3], [p for i, p in enumerate(order) if i % 3]
        tables = self._filled(order, comms_of).fork()
        tables.undo(undone, [c for p in undone for c in comms_of[p.task]])
        expected = self._filled(kept, comms_of)
        for resource in set(tables.resources()) | set(expected.resources()):
            assert tables.busy(resource) == expected.busy(resource)


class TestProbeCacheInvalidate:
    """The window-conflict rule a commit applies to the cached probes."""

    LINK = Link((0, 0), (0, 1))

    def _evaluation(self, task, pe, start, finish, link_window=None):
        transfers = []
        if link_window is not None:
            route = Route(9, pe, (self.LINK,), n_hops=1, energy_per_bit=0.0, bandwidth=1.0)
            transfers.append(
                Transfer(CommEdge("src", task, 1.0), 9, pe, link_window[0], link_window[1], route, 0.0)
            )
        return Evaluation(
            task=task, pe=pe, start=start, finish=finish, drt=start, energy=0.0,
            cost=TaskCosts(time=finish - start, energy=0.0), transfers=transfers,
            footprint=frozenset({pe, *((self.LINK.key,) if transfers else ())}),
            contention_aware=True,
        )

    def _sweep(self, committed, *entries):
        cache = ProbeCache()
        for entry in (committed, *entries):
            cache[(entry.task, entry.pe)] = entry
        evicted = cache.invalidate(committed)
        return evicted, cache

    def test_endpoint_contact_keeps_the_entry(self):
        committed = self._evaluation("a", 0, 0.0, 5.0, link_window=(10.0, 12.0))
        before = self._evaluation("b", 0, 5.0, 8.0)
        after = self._evaluation("c", 1, 20.0, 21.0, link_window=(12.0, 14.0))
        evicted, cache = self._sweep(committed, before, after)
        assert evicted == 0
        assert set(cache) == {("b", 0), ("c", 1)}

    @pytest.mark.parametrize("on_link", [False, True])
    def test_sub_eps_overlap_evicts_the_entry(self, on_link):
        committed = self._evaluation("a", 0, 0.0, 5.0, link_window=(10.0, 12.0))
        if on_link:
            entry = self._evaluation("b", 1, 20.0, 21.0, link_window=(12.0 - EPS / 2, 14.0))
        else:
            entry = self._evaluation("b", 0, 5.0 - EPS / 2, 8.0)
        evicted, cache = self._sweep(committed, entry)
        assert evicted == 1
        assert not cache

    def test_committed_task_entries_are_consumed_not_counted(self):
        committed = self._evaluation("a", 0, 0.0, 5.0)
        elsewhere = self._evaluation("a", 1, 0.0, 5.0)
        evicted, cache = self._sweep(committed, elsewhere)
        assert evicted == 0
        assert not cache

    def test_disjoint_resources_keep_the_entry(self):
        committed = self._evaluation("a", 0, 0.0, 5.0)
        other_pe = self._evaluation("b", 1, 0.0, 5.0, link_window=(0.0, 5.0))
        evicted, cache = self._sweep(committed, other_pe)
        assert evicted == 0
        assert set(cache) == {("b", 1)}
