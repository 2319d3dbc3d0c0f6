"""Unit tests for search-and-repair internals (ordering, candidates, reject counters)."""

from unittest import mock

from repro import obs
from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.core.increbuild import IncrementalRebuilder
from repro.core.rebuild import miss_metric, rebuild_schedule
from repro.core.repair import (
    _criticality_order,
    _destinations_by_energy,
    _insert_by_start,
    _load_relief_candidates,
    critical_tasks,
)
from repro.ctg.graph import CTG

from tests.conftest import make_task, uniform_task


def acg4():
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])


def schedule_with_two_misses():
    """root -> (late1 d=5, late2 d=5) all on one PE: both miss, root critical."""
    ctg = CTG()
    ctg.add_task(uniform_task("root", 10, 1))
    ctg.add_task(uniform_task("late1", 10, 1, deadline=15))
    ctg.add_task(uniform_task("late2", 10, 1, deadline=15))
    ctg.connect("root", "late1")
    ctg.connect("root", "late2")
    acg = acg4()
    return rebuild_schedule(
        ctg,
        acg,
        {"root": 0, "late1": 0, "late2": 0},
        {0: ["root", "late1", "late2"]},
    )


class TestCriticalityOrder:
    def test_direct_misses_before_ancestors(self):
        schedule = schedule_with_two_misses()
        critical = critical_tasks(schedule)
        order = _criticality_order(schedule, critical)
        # root is an ancestor-only critical task: it comes last.
        assert order[-1] == "root"
        # The tardier miss (late2 finishes at 30 vs late1 at 20) first.
        assert order[0] == "late2"

    def test_deterministic(self):
        schedule = schedule_with_two_misses()
        critical = critical_tasks(schedule)
        assert _criticality_order(schedule, critical) == _criticality_order(
            schedule, critical
        )


class TestDestinationsByEnergy:
    def test_sorted_by_total_energy(self):
        ctg = CTG()
        ctg.add_task(
            make_task(
                "t",
                {"cpu": 10, "dsp": 10, "arm": 10, "risc": 10},
                {"cpu": 900, "dsp": 500, "arm": 100, "risc": 300},
            )
        )
        acg = acg4()
        schedule = rebuild_schedule(ctg, acg, {"t": 0}, {0: ["t"]})
        dests = _destinations_by_energy(schedule, "t", {"t": 0})
        # arm (PE2) cheapest, then risc (PE3), dsp (PE1), cpu (PE0).
        assert dests == [2, 3, 1, 0]

    def test_communication_shifts_ordering(self):
        """A co-located big producer makes the local PE cheapest overall."""
        ctg = CTG()
        ctg.add_task(uniform_task("prod", 10, 1))
        ctg.add_task(
            make_task(
                "t",
                {"cpu": 10, "dsp": 10, "arm": 10, "risc": 10},
                {"cpu": 120, "dsp": 110, "arm": 100, "risc": 105},
            )
        )
        ctg.connect("prod", "t", volume=1_000_000)
        acg = acg4()
        schedule = rebuild_schedule(
            ctg, acg, {"prod": 0, "t": 0}, {0: ["prod", "t"]}
        )
        dests = _destinations_by_energy(schedule, "t", {"prod": 0, "t": 0})
        # Despite cpu having the highest computation energy, co-location
        # with the producer dominates the million-bit transfer.
        assert dests[0] == 0

    def test_infeasible_types_excluded(self):
        from repro.ctg.task import Task, TaskCosts

        ctg = CTG()
        ctg.add_task(Task("t", costs={"dsp": TaskCosts(10, 5)}))
        acg = acg4()
        schedule = rebuild_schedule(ctg, acg, {"t": 1}, {1: ["t"]})
        dests = _destinations_by_energy(schedule, "t", {"t": 1})
        assert dests == [1]  # only the dsp tile


class TestInsertByStart:
    def test_inserts_at_temporal_position(self):
        schedule = schedule_with_two_misses()
        order = ["root", "late2"]  # late1 removed
        _insert_by_start(order, "late1", schedule)
        # late1 started before late2 in the schedule: goes between.
        assert order == ["root", "late1", "late2"]

    def test_appends_when_latest(self):
        schedule = schedule_with_two_misses()
        order = ["root", "late1"]
        _insert_by_start(order, "late2", schedule)
        assert order == ["root", "late1", "late2"]

    def test_empty_order(self):
        schedule = schedule_with_two_misses()
        order = []
        _insert_by_start(order, "root", schedule)
        assert order == ["root"]


class TestLoadReliefCandidates:
    def test_moves_from_busiest_to_idlest(self):
        schedule = schedule_with_two_misses()
        critical = _criticality_order(schedule, critical_tasks(schedule))
        candidates = list(
            _load_relief_candidates(schedule, schedule.mapping(), critical)
        )
        # All tasks sit on PE0 (the only loaded PE); first destination
        # offered must be one of the idle PEs, not PE0.
        first_task, first_dest = candidates[0]
        assert first_dest != 0
        # Every (task, dest) pair is type-feasible.
        for task, dest in candidates:
            pe_type = schedule.acg.pe(dest).type_name
            assert schedule.ctg.task(task).cost_on(pe_type).feasible

    def test_covers_all_critical_tasks(self):
        schedule = schedule_with_two_misses()
        critical = _criticality_order(schedule, critical_tasks(schedule))
        candidates = list(
            _load_relief_candidates(schedule, schedule.mapping(), critical)
        )
        assert {task for task, _dest in candidates} == set(critical)


class TestRejectCounters:
    def test_deadlocking_swap_counts_a_deadlock_reject(self):
        """a -> b on one PE: the ``["b", "a"]`` swap can never run ``b``."""
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 1))
        ctg.add_task(uniform_task("b", 10, 1, deadline=5.0))
        ctg.connect("a", "b", volume=100)
        acg = acg4()
        mapping = {"a": 0, "b": 0}
        orders = {0: ["a", "b"]}
        base = rebuild_schedule(ctg, acg, mapping, orders)
        bundle = obs.Instrumentation.disabled()
        with obs.activate(bundle):
            engine = IncrementalRebuilder(ctg, acg, mapping, orders)
            with mock.patch.object(IncrementalRebuilder, "_materialize") as materialize:
                assert engine.evaluate(mapping, {0: ["b", "a"]}, miss_metric(base)) is None
        counters = bundle.metrics.counter_values()
        assert counters["repair.deadlock_rejects"] == 1
        assert counters["repair.unroutable_rejects"] == 0
        assert counters["repair.incremental_aborts"] == 0
        # The order-cycle check rejects it before any replay or fork.
        assert counters["repair.replayed_tasks"] == 0
        materialize.assert_not_called()

    def test_slow_migration_counts_a_bound_reject(self):
        """Moving ``c`` two hops from its producer cannot finish it sooner.

        ``a -> c`` share PE0 and ``c`` misses its deadline; on PE3 the
        transfer alone pushes ``c``'s finish bound past the incumbent's
        tardiness, so the bound rejects the move without a replay.
        """
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 1))
        ctg.add_task(uniform_task("b", 10, 1))
        ctg.add_task(uniform_task("c", 10, 1, deadline=15.0))
        ctg.connect("a", "c", volume=10_000)
        acg = acg4()
        mapping = {"a": 0, "b": 1, "c": 0}
        orders = {0: ["a", "c"], 1: ["b"], 2: [], 3: []}
        base = rebuild_schedule(ctg, acg, mapping, orders)
        incumbent = miss_metric(base)
        assert incumbent == (1, 5.0)
        candidate_map = {"a": 0, "b": 1, "c": 3}
        candidate_orders = {0: ["a"], 1: ["b"], 2: [], 3: ["c"]}
        full = rebuild_schedule(ctg, acg, candidate_map, candidate_orders)
        assert not miss_metric(full) < incumbent
        bundle = obs.Instrumentation.disabled()
        with obs.activate(bundle):
            engine = IncrementalRebuilder(ctg, acg, mapping, orders)
            with mock.patch.object(IncrementalRebuilder, "_materialize") as materialize:
                assert engine.evaluate(candidate_map, candidate_orders, incumbent) is None
        counters = bundle.metrics.counter_values()
        assert counters["repair.bound_rejects"] == 1
        assert counters["repair.incremental_aborts"] == 1
        assert counters["repair.deadlock_rejects"] == 0
        assert counters["repair.replayed_tasks"] == 0
        assert counters["repair.frontier_probes"] == 0
        materialize.assert_not_called()
