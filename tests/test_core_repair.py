"""Tests for Step 3: search-and-repair (LTS + GTM)."""

import pytest

from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.core.eas import eas_base_schedule
from repro.core.rebuild import rebuild_schedule
from repro.core.repair import (
    RepairConfig,
    critical_tasks,
    miss_metric,
    search_and_repair,
)
from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG

from tests.conftest import make_task, uniform_task


def acg4():
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])


def overloaded_schedule():
    """Two independent tasks crammed onto one PE, the late one with a
    deadline only an order swap (LTS) can save."""
    ctg = CTG()
    ctg.add_task(uniform_task("slow", 100, 1))
    ctg.add_task(uniform_task("urgent", 50, 1, deadline=60))
    acg = acg4()
    mapping = {"slow": 0, "urgent": 0}
    schedule = rebuild_schedule(ctg, acg, mapping, {0: ["slow", "urgent"]})
    return schedule


class TestCriticalTasks:
    def test_miss_and_ancestors_are_critical(self):
        ctg = CTG()
        ctg.add_task(uniform_task("root", 10, 1))
        ctg.add_task(uniform_task("mid", 10, 1))
        ctg.add_task(uniform_task("late", 10, 1, deadline=5))
        ctg.add_task(uniform_task("bystander", 10, 1))
        ctg.connect("root", "mid")
        ctg.connect("mid", "late")
        acg = acg4()
        schedule = rebuild_schedule(
            ctg,
            acg,
            {"root": 0, "mid": 0, "late": 0, "bystander": 1},
            {0: ["root", "mid", "late"], 1: ["bystander"]},
        )
        critical = critical_tasks(schedule)
        assert critical == {"root", "mid", "late"}

    def test_feasible_schedule_has_no_critical_tasks(self, diamond_ctg):
        schedule = eas_base_schedule(diamond_ctg, acg4())
        assert schedule.deadline_misses() == []
        assert critical_tasks(schedule) == set()


class TestMissMetric:
    def test_ordering(self):
        schedule = overloaded_schedule()
        count, tardiness = miss_metric(schedule)
        assert count == 1
        assert tardiness == pytest.approx(150 - 60)


class TestLTS:
    def test_swap_fixes_ordering_miss(self):
        schedule = overloaded_schedule()
        assert schedule.deadline_misses() == ["urgent"]
        repaired, report = search_and_repair(schedule)
        assert repaired.deadline_misses() == []
        assert report.swaps_accepted >= 1
        assert report.final_misses == 0
        # LTS does not change the mapping, hence not the energy.
        assert repaired.total_energy() == pytest.approx(schedule.total_energy())
        repaired.validate()

    def test_report_counts(self):
        schedule = overloaded_schedule()
        _repaired, report = search_and_repair(schedule)
        assert report.initial_misses == 1
        assert report.final_misses == 0
        assert report.rounds >= 1


class TestGTM:
    def test_migration_fixes_capacity_miss(self):
        """One PE hosts two long deadline tasks; only migration helps."""
        ctg = CTG()
        ctg.add_task(uniform_task("j1", 100, 1, deadline=110))
        ctg.add_task(uniform_task("j2", 100, 1, deadline=110))
        acg = acg4()
        schedule = rebuild_schedule(
            ctg, acg, {"j1": 0, "j2": 0}, {0: ["j1", "j2"]}
        )
        assert len(schedule.deadline_misses()) == 1
        repaired, report = search_and_repair(schedule)
        assert repaired.deadline_misses() == []
        assert report.migrations_accepted >= 1
        # The two tasks now sit on different PEs.
        mapping = repaired.mapping()
        assert mapping["j1"] != mapping["j2"]
        repaired.validate()

    def test_migration_prefers_cheap_destinations(self):
        """The accepted destination should be an energy-reasonable one:
        with several PEs able to fix the miss, repair takes the
        cheapest-first ordering."""
        ctg = CTG()
        ctg.add_task(
            make_task(
                "j1",
                {"cpu": 100, "dsp": 100, "arm": 100, "risc": 100},
                {"cpu": 900, "dsp": 500, "arm": 100, "risc": 300},
                deadline=110,
            )
        )
        ctg.add_task(
            make_task(
                "j2",
                {"cpu": 100, "dsp": 100, "arm": 100, "risc": 100},
                {"cpu": 900, "dsp": 500, "arm": 100, "risc": 300},
                deadline=110,
            )
        )
        acg = acg4()
        # Both on the cpu tile (index 0): one must move.
        schedule = rebuild_schedule(ctg, acg, {"j1": 0, "j2": 0}, {0: ["j1", "j2"]})
        repaired, _report = search_and_repair(schedule)
        assert repaired.deadline_misses() == []
        moved = [t for t, pe in repaired.mapping().items() if pe != 0]
        assert len(moved) == 1
        # Cheapest destination is the arm tile (index 2 in the cycle).
        assert repaired.acg.pe(repaired.mapping()[moved[0]]).type_name == "arm"


class TestConvergence:
    def test_hopeless_instance_terminates(self):
        """An unattainable deadline: repair must stop, not loop."""
        ctg = CTG()
        ctg.add_task(uniform_task("doom", 100, 1, deadline=10))
        acg = acg4()
        schedule = rebuild_schedule(ctg, acg, {"doom": 0}, {0: ["doom"]})
        repaired, report = search_and_repair(schedule, RepairConfig(max_rounds=5))
        assert repaired.deadline_misses() == ["doom"]
        assert report.final_misses != 0

    def test_noop_on_feasible_schedule(self, diamond_ctg):
        schedule = eas_base_schedule(diamond_ctg, acg4())
        repaired, report = search_and_repair(schedule)
        assert repaired is schedule
        assert report.rounds == 0
        assert report.swaps_tried == 0

    def test_repair_on_random_benchmark(self):
        """End-to-end: a generator instance whose EAS-base misses gets
        fully repaired with small energy increase (Sec. 6.1 claim)."""
        from repro.arch.presets import mesh_4x4

        found = None
        for index in range(6):
            ctg = generate_category(2, index, n_tasks=100)
            acg = mesh_4x4(shuffle_seed=100 + index)
            base = eas_base_schedule(ctg, acg)
            if base.deadline_misses():
                found = (base, ctg)
                break
        if found is None:
            pytest.skip("no miss-producing instance at this size")
        base, _ctg = found
        repaired, report = search_and_repair(base)
        assert len(repaired.deadline_misses()) < report.initial_misses or report.final_misses == 0
        if report.final_misses == 0:
            # Paper: negligible energy increase.
            assert repaired.total_energy() <= base.total_energy() * 1.25
            repaired.validate()
