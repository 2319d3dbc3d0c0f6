"""Tests for the Schedule container: metrics and the structural validator."""

import dataclasses

import pytest

from repro.arch.acg import ACG
from repro.arch.presets import mesh_2x2
from repro.arch.topology import Link, Mesh2D
from repro.core.eas import eas_base_schedule, eas_schedule
from repro.ctg.graph import CTG
from repro.ctg.multimedia import av_encoder_ctg
from repro.errors import ScheduleValidationError
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.schedule import Schedule

from tests.conftest import uniform_task


def acg4():
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"], link_bandwidth=100.0)


def two_task_ctg():
    ctg = CTG()
    ctg.add_task(uniform_task("a", 10, 5))
    ctg.add_task(uniform_task("b", 20, 8, deadline=1000))
    ctg.connect("a", "b", volume=500)
    return ctg


def hand_schedule(a_pe=0, b_pe=1, comm_start=10.0, b_start=None):
    """A hand-built schedule for the a->b CTG, valid by default."""
    ctg = two_task_ctg()
    acg = acg4()
    schedule = Schedule(ctg, acg, algorithm="hand")
    schedule.place_task(TaskPlacement("a", pe=a_pe, start=0, finish=10, energy=5))
    duration = acg.comm_duration(500, a_pe, b_pe)
    comm_finish = comm_start + duration
    schedule.place_comm(
        CommPlacement(
            src_task="a",
            dst_task="b",
            volume=500,
            src_pe=a_pe,
            dst_pe=b_pe,
            start=comm_start if duration else 10.0,
            finish=comm_finish if duration else 10.0,
            links=acg.route(a_pe, b_pe).links,
            energy=acg.comm_energy(500, a_pe, b_pe),
        )
    )
    start_b = b_start if b_start is not None else (comm_finish if duration else 10.0)
    schedule.place_task(TaskPlacement("b", pe=b_pe, start=start_b, finish=start_b + 20, energy=8))
    return schedule


class TestMetrics:
    def test_energy_split(self):
        schedule = hand_schedule()
        assert schedule.computation_energy() == 13
        assert schedule.communication_energy() == pytest.approx(
            schedule.acg.comm_energy(500, 0, 1)
        )
        assert schedule.total_energy() == pytest.approx(
            13 + schedule.acg.comm_energy(500, 0, 1)
        )

    def test_makespan(self):
        schedule = hand_schedule()
        assert schedule.makespan() == 35  # comm [10,15), b [15,35)

    def test_mapping_and_order(self):
        schedule = hand_schedule()
        assert schedule.mapping() == {"a": 0, "b": 1}
        orders = schedule.pe_order()
        assert orders[0] == ["a"] and orders[1] == ["b"]

    def test_deadline_misses_empty_when_met(self):
        schedule = hand_schedule()
        assert schedule.deadline_misses() == []
        assert schedule.meets_deadlines
        assert schedule.total_tardiness() == 0.0

    def test_tardiness(self):
        schedule = hand_schedule(b_start=995.0)
        # b finishes at 1015 vs deadline 1000 -> miss, tardiness 15.
        assert schedule.deadline_misses() == ["b"]
        assert schedule.total_tardiness() == pytest.approx(15)

    def test_average_hops_local_is_zero(self):
        schedule = hand_schedule(a_pe=0, b_pe=0)
        assert schedule.average_hops_per_packet() == 0.0

    def test_average_hops_counts_links(self):
        schedule = hand_schedule(a_pe=0, b_pe=3)  # diagonal: 2 links
        assert schedule.average_hops_per_packet() == 2.0

    def test_link_utilization(self):
        schedule = hand_schedule(a_pe=0, b_pe=1)
        usage = schedule.link_utilization()
        assert usage[Link((0, 0), (0, 1))] == pytest.approx(5.0)

    def test_energy_breakdown_keys(self):
        breakdown = hand_schedule().energy_breakdown()
        assert set(breakdown) == {"computation", "communication", "total"}


class TestValidation:
    def test_valid_schedule_passes(self):
        hand_schedule().validate()

    def test_unscheduled_task_detected(self):
        ctg = two_task_ctg()
        schedule = Schedule(ctg, acg4())
        with pytest.raises(ScheduleValidationError):
            schedule.validate()

    def test_double_placement_rejected(self):
        schedule = hand_schedule()
        with pytest.raises(ScheduleValidationError):
            schedule.place_task(TaskPlacement("a", pe=1, start=0, finish=10, energy=1))

    def test_pe_overlap_detected(self):
        ctg = CTG()
        ctg.add_task(uniform_task("x", 10, 1))
        ctg.add_task(uniform_task("y", 10, 1))
        schedule = Schedule(ctg, acg4())
        schedule.place_task(TaskPlacement("x", pe=0, start=0, finish=10, energy=1))
        schedule.place_task(TaskPlacement("y", pe=0, start=5, finish=15, energy=1))
        with pytest.raises(ScheduleValidationError, match="overlaps"):
            schedule.validate()

    def test_comm_before_sender_detected(self):
        schedule = hand_schedule(comm_start=5.0)  # sender finishes at 10
        with pytest.raises(ScheduleValidationError, match="before its sender"):
            schedule.validate()

    def test_task_before_input_detected(self):
        schedule = hand_schedule(b_start=12.0)  # comm ends at 15
        with pytest.raises(ScheduleValidationError, match="before its input"):
            schedule.validate()

    def test_wrong_duration_detected(self):
        ctg = two_task_ctg()
        acg = acg4()
        schedule = Schedule(ctg, acg)
        schedule.place_task(TaskPlacement("a", pe=0, start=0, finish=99, energy=5))
        with pytest.raises(ScheduleValidationError):
            schedule.validate()

    def test_wrong_route_detected(self):
        schedule = hand_schedule(a_pe=0, b_pe=3)
        # Corrupt the links of the recorded transaction.
        comm = schedule.comm("a", "b")
        bad = CommPlacement(
            src_task=comm.src_task,
            dst_task=comm.dst_task,
            volume=comm.volume,
            src_pe=comm.src_pe,
            dst_pe=comm.dst_pe,
            start=comm.start,
            finish=comm.finish,
            links=(comm.links[0],),  # truncated path
            energy=comm.energy,
        )
        schedule.comm_placements[("a", "b")] = bad
        with pytest.raises(ScheduleValidationError, match="route"):
            schedule.validate()

    def test_deadline_miss_fails_validate_but_not_structure(self):
        schedule = hand_schedule(b_start=995.0)
        schedule.validate_structure()  # structurally fine
        with pytest.raises(ScheduleValidationError, match="deadline"):
            schedule.validate()

    def test_eas_output_validates(self, diamond_ctg):
        eas_base_schedule(diamond_ctg, acg4()).validate()

    def test_link_overlap_detected(self):
        ctg = CTG()
        ctg.add_task(uniform_task("s1", 10, 1))
        ctg.add_task(uniform_task("s2", 10, 1))
        ctg.add_task(uniform_task("r1", 10, 1))
        ctg.add_task(uniform_task("r2", 10, 1))
        ctg.connect("s1", "r1", volume=500)
        ctg.connect("s2", "r2", volume=500)
        acg = acg4()
        schedule = Schedule(ctg, acg)
        schedule.place_task(TaskPlacement("s1", pe=0, start=0, finish=10, energy=1))
        schedule.place_task(TaskPlacement("s2", pe=0, start=10, finish=20, energy=1))
        link, energy = acg.route(0, 1).links, acg.comm_energy(500, 0, 1)
        # Both transactions claim the same link at overlapping times.
        schedule.place_comm(
            CommPlacement("s1", "r1", 500, 0, 1, 20, 25, link, energy)
        )
        schedule.place_comm(
            CommPlacement("s2", "r2", 500, 0, 1, 22, 27, link, energy)
        )
        schedule.place_task(TaskPlacement("r1", pe=1, start=25, finish=35, energy=1))
        schedule.place_task(TaskPlacement("r2", pe=1, start=35, finish=45, energy=1))
        with pytest.raises(ScheduleValidationError, match="link"):
            schedule.validate()


def replaced_comm(schedule, **changes):
    """``schedule`` with its a->b transaction's fields replaced."""
    schedule.comm_placements[("a", "b")] = dataclasses.replace(schedule.comm("a", "b"), **changes)
    return schedule


class TestTransactionChecks:
    """A transaction is a CTG edge between its tasks' PEs, on a contiguous
    path, at the Eq. 2 energy; a task's energy is its cost-table entry."""

    def test_comm_without_edge_rejected(self):
        schedule = hand_schedule()
        schedule.place_comm(CommPlacement("b", "a", 500, 1, 0, 30, 30, (), 0.0))
        with pytest.raises(ScheduleValidationError, match="b->a is not a CTG edge"):
            schedule.validate_consistency()

    def test_wrong_volume_rejected(self):
        schedule = replaced_comm(hand_schedule(a_pe=0, b_pe=0), volume=400)
        with pytest.raises(ScheduleValidationError, match="volume 400 != edge volume 500"):
            schedule.validate_consistency()

    @pytest.mark.parametrize("side", ["src_pe", "dst_pe"])
    def test_remote_transfer_rewritten_as_local_rejected(self, side):
        schedule = hand_schedule(a_pe=0, b_pe=3)
        comm = schedule.comm("a", "b")
        # Move the ``side`` endpoint onto the other one's PE.
        pe = comm.dst_pe if side == "src_pe" else comm.src_pe
        replaced_comm(schedule, src_pe=pe, dst_pe=pe, links=(), finish=comm.start, energy=0.0)
        with pytest.raises(ScheduleValidationError, match="not between its tasks' PEs"):
            schedule.validate_consistency()

    def test_transfer_from_a_sender_that_reran_elsewhere_passes(self):
        # A recovery schedule keeps a salvaged receiver's input, sent
        # before the fault from the PE its sender ran on then.
        schedule = hand_schedule(a_pe=0, b_pe=1)
        comm = schedule.comm("a", "b")
        rerun = TaskPlacement("a", pe=2, start=comm.finish, finish=comm.finish + 10, energy=5)
        schedule.task_placements["a"] = rerun
        schedule.validate_consistency()

    @pytest.mark.parametrize("links", ["reversed", "detached", "short"])
    def test_broken_path_rejected(self, links):
        schedule = hand_schedule(a_pe=0, b_pe=3)
        route = schedule.comm("a", "b").links
        broken = {
            "reversed": tuple(reversed(route)),
            "detached": (Link((1, 0), (1, 1)),) * 2,
            "short": route[:1],
        }[links]
        replaced_comm(schedule, links=broken)
        with pytest.raises(ScheduleValidationError, match="not a contiguous route from PE 0 to PE 3"):
            schedule.validate_consistency()

    @pytest.mark.parametrize("scale", [0.0, 1 - 1e-8, 2.0])
    def test_invented_comm_energy_rejected(self, scale):
        schedule = hand_schedule(a_pe=0, b_pe=3)
        replaced_comm(schedule, energy=schedule.comm("a", "b").energy * scale)
        with pytest.raises(ScheduleValidationError, match="!= Eq. 2 energy"):
            schedule.validate_consistency()

    def test_comm_energy_within_relative_tolerance_passes(self):
        schedule = hand_schedule(a_pe=0, b_pe=3)
        replaced_comm(schedule, energy=schedule.comm("a", "b").energy * (1 + 1e-12))
        schedule.validate()

    def test_invented_task_energy_rejected(self):
        schedule = hand_schedule()
        schedule.task_placements["a"] = dataclasses.replace(schedule.placement("a"), energy=0.0)
        schedule.validate_consistency()  # the cost table is an ACG-level check
        with pytest.raises(ScheduleValidationError, match="energy 0.0 != cost table 5"):
            schedule.validate_structure()

    def test_zeroed_energies_of_an_eas_schedule_rejected(self):
        ctg, acg = av_encoder_ctg("akiyo"), mesh_2x2()
        schedule = eas_schedule(ctg, acg)
        schedule.validate()
        for key, comm in schedule.comm_placements.items():
            schedule.comm_placements[key] = dataclasses.replace(comm, energy=0.0)
        for name, placement in schedule.task_placements.items():
            schedule.task_placements[name] = dataclasses.replace(placement, energy=0.0)
        with pytest.raises(ScheduleValidationError, match="energy 0.0 != Eq. 2 energy"):
            schedule.validate()


class TestSummary:
    def test_summary_mentions_energy_and_misses(self):
        text = hand_schedule().summary()
        assert "energy" in text and "misses=0" in text


class TestUtilizationEdgeCases:
    """link_utilization() / energy_breakdown() on degenerate schedules."""

    def test_empty_schedule_has_no_usage_and_zero_energy(self):
        schedule = Schedule(CTG(name="empty"), acg4(), algorithm="none")
        assert schedule.link_utilization() == {}
        assert schedule.energy_breakdown() == {
            "computation": 0.0,
            "communication": 0.0,
            "total": 0.0,
        }
        assert schedule.makespan() == 0.0
        assert schedule.average_hops_per_packet() == 0.0

    def test_zero_volume_edge_occupies_links_for_zero_time(self):
        """A zero-volume transaction on a real route adds 0.0 busy time."""
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 5))
        ctg.add_task(uniform_task("b", 20, 8, deadline=1000))
        ctg.connect("a", "b", volume=0.0)
        acg = acg4()
        schedule = Schedule(ctg, acg, algorithm="hand")
        schedule.place_task(TaskPlacement("a", pe=0, start=0, finish=10, energy=5))
        route = acg.route(0, 1)
        schedule.place_comm(
            CommPlacement("a", "b", 0.0, 0, 1, 10.0, 10.0, route.links, 0.0)
        )
        schedule.place_task(TaskPlacement("b", pe=1, start=10, finish=30, energy=8))
        schedule.validate()
        usage = schedule.link_utilization()
        # The links appear (the route was reserved) but carry zero busy time.
        assert set(usage) == set(route.links)
        assert all(busy == 0.0 for busy in usage.values())
        # Zero-volume transfers are excluded from the hops statistic...
        assert schedule.average_hops_per_packet() == 0.0
        # ...and contribute nothing to the communication energy term.
        assert schedule.energy_breakdown()["communication"] == 0.0

    def test_links_never_used_by_xy_routing_are_absent(self):
        """Only links on the XY route show up; the rest of the mesh does not."""
        schedule = hand_schedule(a_pe=0, b_pe=1)
        usage = schedule.link_utilization()
        route_links = set(schedule.acg.route(0, 1).links)
        assert set(usage) == route_links
        all_links = set(schedule.acg.all_links())
        unused = all_links - route_links
        assert unused, "a 2x2 mesh has more links than one XY route"
        assert not (set(usage) & unused)
        # The reverse direction of a used channel is its own (unused) link.
        for link in route_links:
            assert link.reverse not in usage

    def test_local_transactions_never_touch_links(self):
        schedule = hand_schedule(a_pe=0, b_pe=0)
        assert schedule.link_utilization() == {}
        breakdown = schedule.energy_breakdown()
        assert breakdown["total"] == pytest.approx(
            breakdown["computation"] + breakdown["communication"]
        )

    def test_breakdown_components_always_sum(self):
        schedule = hand_schedule()
        breakdown = schedule.energy_breakdown()
        assert breakdown["total"] == pytest.approx(
            breakdown["computation"] + breakdown["communication"]
        )
        assert breakdown["communication"] == pytest.approx(
            schedule.acg.comm_energy(500, 0, 1)
        )
