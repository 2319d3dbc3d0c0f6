"""The probe/commit primitive and the table fill/undo helpers.

The central claim of ``core/placement.py`` is that committing a clean
probe writes exactly what a second Fig. 3 pass at commit time would
have written.  ``_literal_place`` is that second pass, kept here as the
reference.
"""

import pytest

from repro.arch.presets import mesh_3x3
from repro.core.comm import schedule_incoming_transactions
from repro.core.eas import eas_schedule
from repro.core.placement import commit, probe
from repro.ctg.generator import generate_category
from repro.faults.degraded import DegradedACG
from repro.faults.plan import FaultPlan, PEFault
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables


def _literal_place(ctg, acg, task, pe, tables, placements, floor, contention_aware):
    """Recompute the placement on the tables and apply the overlay."""
    cost = ctg.task(task).cost_on(acg.pe(pe).type_name)
    overlay = tables.overlay()
    drt, comms = schedule_incoming_transactions(
        ctg, acg, task, pe, placements, overlay, contention_aware=contention_aware, floor=floor
    )
    start = overlay.find_earliest(pe, max(drt, floor), cost.time)
    overlay.commit()
    tables.reserve(pe, start, start + cost.time)
    placements[task] = TaskPlacement(
        task=task, pe=pe, start=start, finish=start + cost.time, energy=cost.energy
    )
    return comms


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
        comms = _literal_place(
            ctg, acg, task, best.pe, ref_tables, ref_placements, floor, contention_aware
        )
        assert best.comms == comms
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
