"""Tests for the event-driven replay simulator."""

import pytest

from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.baselines.edf import edf_schedule
from repro.core.eas import eas_base_schedule
from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.ctg.graph import CTG
from repro.errors import ScheduleValidationError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.schedule import Schedule
from repro.sim.replay import simulate_schedule

from tests.conftest import uniform_task


def acg4():
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"], link_bandwidth=100.0)


class TestHappyPath:
    def test_eas_schedule_replays(self, diamond_ctg):
        schedule = eas_base_schedule(diamond_ctg, acg4())
        report = simulate_schedule(schedule)
        assert report.makespan == schedule.makespan()
        assert report.total_energy == pytest.approx(schedule.total_energy())
        assert report.n_transactions == diamond_ctg.n_edges

    def test_edf_schedule_replays(self, diamond_ctg):
        report = simulate_schedule(edf_schedule(diamond_ctg, acg4()))
        assert report.deadline_misses == ()

    def test_random_graph_replays(self):
        ctg = generate_ctg(GeneratorConfig(n_tasks=60, seed=3))
        schedule = eas_base_schedule(ctg, acg4())
        report = simulate_schedule(schedule)
        assert sum(report.pe_busy_time.values()) == pytest.approx(
            sum(p.duration for p in schedule.task_placements.values())
        )

    def test_utilization_bounded(self, diamond_ctg):
        report = simulate_schedule(eas_base_schedule(diamond_ctg, acg4()))
        for busy in report.pe_busy_time.values():
            assert 0.0 <= busy <= report.makespan + 1e-9

    def test_link_busy_matches_schedule(self, chain_ctg):
        schedule = eas_base_schedule(chain_ctg, acg4())
        report = simulate_schedule(schedule)
        assert report.link_busy_time == pytest.approx(schedule.link_utilization())


class TestViolationDetection:
    def _base(self):
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 1))
        ctg.add_task(uniform_task("b", 10, 1))
        ctg.connect("a", "b", volume=500)  # 5 time units off-tile
        return ctg, acg4()

    def test_detects_task_before_input(self):
        ctg, acg = self._base()
        schedule = Schedule(ctg, acg)
        schedule.place_task(TaskPlacement("a", pe=0, start=0, finish=10, energy=1))
        schedule.place_comm(
            CommPlacement("a", "b", 500, 0, 1, 10, 15, acg.route(0, 1).links, 1.0)
        )
        # b starts at 12 although its input lands at 15.
        schedule.place_task(TaskPlacement("b", pe=1, start=12, finish=22, energy=1))
        with pytest.raises(ScheduleValidationError):
            simulate_schedule(schedule)

    def test_detects_pe_double_booking(self):
        ctg = CTG()
        ctg.add_task(uniform_task("x", 10, 1))
        ctg.add_task(uniform_task("y", 10, 1))
        acg = acg4()
        schedule = Schedule(ctg, acg)
        schedule.place_task(TaskPlacement("x", pe=0, start=0, finish=10, energy=1))
        schedule.place_task(TaskPlacement("y", pe=0, start=5, finish=15, energy=1))
        with pytest.raises(ScheduleValidationError, match="double-booked"):
            simulate_schedule(schedule)

    def test_detects_comm_before_sender(self):
        ctg, acg = self._base()
        schedule = Schedule(ctg, acg)
        schedule.place_task(TaskPlacement("a", pe=0, start=0, finish=10, energy=1))
        schedule.place_comm(
            CommPlacement("a", "b", 500, 0, 1, 5, 10, acg.route(0, 1).links, 1.0)
        )
        schedule.place_task(TaskPlacement("b", pe=1, start=10, finish=20, energy=1))
        with pytest.raises(ScheduleValidationError, match="sender"):
            simulate_schedule(schedule)

    def test_detects_link_double_booking(self):
        ctg = CTG()
        for name in ("s1", "s2", "r1", "r2"):
            ctg.add_task(uniform_task(name, 10, 1))
        ctg.connect("s1", "r1", volume=500)
        ctg.connect("s2", "r2", volume=500)
        acg = acg4()
        schedule = Schedule(ctg, acg)
        schedule.place_task(TaskPlacement("s1", pe=0, start=0, finish=10, energy=1))
        schedule.place_task(TaskPlacement("s2", pe=2, start=0, finish=10, energy=1))
        links_0_1 = acg.route(0, 1).links
        links_2_1 = acg.route(2, 1).links  # hmm: check overlap via shared link
        # Force both to claim the identical link tuple at the same time.
        schedule.place_comm(CommPlacement("s1", "r1", 500, 0, 1, 10, 15, links_0_1, 1.0))
        schedule.place_comm(CommPlacement("s2", "r2", 500, 0, 1, 12, 17, links_0_1, 1.0))
        schedule.place_task(TaskPlacement("r1", pe=1, start=15, finish=25, energy=1))
        schedule.place_task(TaskPlacement("r2", pe=1, start=25, finish=35, energy=1))
        with pytest.raises(ScheduleValidationError):
            simulate_schedule(schedule)

    def test_local_input_checked(self):
        ctg, acg = self._base()
        schedule = Schedule(ctg, acg)
        schedule.place_task(TaskPlacement("a", pe=0, start=0, finish=10, energy=1))
        schedule.place_comm(
            CommPlacement("a", "b", 500, 0, 0, 10, 10, (), 0.0)
        )
        # Same tile, but b starts before a finishes.
        schedule.place_task(TaskPlacement("b", pe=0, start=5, finish=15, energy=1))
        with pytest.raises(ScheduleValidationError):
            simulate_schedule(schedule)


class TestBackToBack:
    def test_adjacent_slots_allowed(self):
        """finish==start on one PE must not be flagged as double booking."""
        ctg = CTG()
        ctg.add_task(uniform_task("x", 10, 1))
        ctg.add_task(uniform_task("y", 10, 1))
        acg = acg4()
        schedule = Schedule(ctg, acg)
        schedule.place_task(TaskPlacement("x", pe=0, start=0, finish=10, energy=1))
        schedule.place_task(TaskPlacement("y", pe=0, start=10, finish=20, energy=1))
        report = simulate_schedule(schedule)
        assert report.makespan == 20
