"""Tests for the Fig. 3 communication scheduler."""

import pytest

from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.core.comm import (
    incoming_comm_energy,
    outgoing_comm_energy,
    schedule_incoming_transactions,
)
from repro.ctg.graph import CTG
from repro.errors import SchedulingError
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables

from tests.conftest import uniform_task


def acg_1x4():
    """A 1x4 mesh: PE0-PE1-PE2-PE3 in a row, shared middle links."""
    return ACG(
        Mesh2D(1, 4),
        pe_types=["cpu", "dsp", "arm", "risc"],
        link_bandwidth=100.0,
    )


def two_senders_ctg():
    ctg = CTG()
    ctg.add_task(uniform_task("s1", 10, 1))
    ctg.add_task(uniform_task("s2", 10, 1))
    ctg.add_task(uniform_task("recv", 10, 1))
    ctg.connect("s1", "recv", volume=1000)  # 10 time units at bw=100
    ctg.connect("s2", "recv", volume=2000)  # 20 time units
    return ctg


def placed(pe, finish):
    return TaskPlacement(task="x", pe=pe, start=finish - 1, finish=finish, energy=0)


class TestDRT:
    def test_source_task_drt_zero(self):
        ctg = CTG()
        ctg.add_task(uniform_task("solo", 10, 1))
        acg = acg_1x4()
        drt, comms = schedule_incoming_transactions(
            ctg, acg, "solo", 0, {}, ResourceTables().overlay()
        )
        assert drt == 0.0
        assert comms == []

    def test_single_transaction_timing(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        placements = {
            "s1": TaskPlacement("s1", pe=0, start=0, finish=50, energy=0),
            "s2": TaskPlacement("s2", pe=0, start=0, finish=50, energy=0),
        }
        tables = ResourceTables()
        drt, comms = schedule_incoming_transactions(
            ctg, acg, "recv", 3, placements, tables.overlay()
        )
        # Both transactions go PE0 -> PE3 over the same 3 links; they
        # serialise: first (sorted by sender finish, tie by name) s1 at
        # [50, 60), then s2 at [60, 80).
        assert [c.src_task for c in comms] == ["s1", "s2"]
        assert comms[0].start == 50 and comms[0].finish == 60
        assert comms[1].start == 60 and comms[1].finish == 80
        assert drt == 80

    def test_sorted_by_sender_finish(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        placements = {
            "s1": TaskPlacement("s1", pe=0, start=0, finish=100, energy=0),
            "s2": TaskPlacement("s2", pe=1, start=0, finish=20, energy=0),
        }
        _drt, comms = schedule_incoming_transactions(
            ctg, acg, "recv", 3, placements, ResourceTables().overlay()
        )
        assert [c.src_task for c in comms] == ["s2", "s1"]

    def test_local_transfer_costs_nothing(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        placements = {
            "s1": TaskPlacement("s1", pe=2, start=0, finish=30, energy=0),
            "s2": TaskPlacement("s2", pe=0, start=0, finish=10, energy=0),
        }
        _drt, comms = schedule_incoming_transactions(
            ctg, acg, "recv", 2, placements, ResourceTables().overlay()
        )
        local = next(c for c in comms if c.src_task == "s1")
        assert local.is_local
        assert local.start == local.finish == 30
        assert local.energy == 0.0

    def test_respects_committed_link_traffic(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        placements = {
            "s1": TaskPlacement("s1", pe=0, start=0, finish=0, energy=0),
            "s2": TaskPlacement("s2", pe=2, start=0, finish=0, energy=0),
        }
        tables = ResourceTables()
        # Block the link (0,0)->(0,1) for [0, 100).
        link01 = acg.route(0, 1).links[0]
        tables.reserve(link01.key, 0, 100)
        drt, comms = schedule_incoming_transactions(
            ctg, acg, "recv", 1, placements, tables.overlay()
        )
        s1 = next(c for c in comms if c.src_task == "s1")
        assert s1.start >= 100  # had to wait for the blocked link

    def test_unscheduled_sender_raises(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        with pytest.raises(SchedulingError):
            schedule_incoming_transactions(
                ctg, acg, "recv", 0, {}, ResourceTables().overlay()
            )

    def test_drop_restores_base_tables(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        placements = {
            "s1": TaskPlacement("s1", pe=0, start=0, finish=0, energy=0),
            "s2": TaskPlacement("s2", pe=0, start=0, finish=0, energy=0),
        }
        tables = ResourceTables()
        overlay = tables.overlay()
        schedule_incoming_transactions(ctg, acg, "recv", 3, placements, overlay)
        overlay.drop()
        for link in acg.route(0, 3).links:
            assert tables.busy(link.key) == []

    def test_energy_matches_acg(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        placements = {
            "s1": TaskPlacement("s1", pe=0, start=0, finish=0, energy=0),
            "s2": TaskPlacement("s2", pe=1, start=0, finish=0, energy=0),
        }
        _drt, comms = schedule_incoming_transactions(
            ctg, acg, "recv", 3, placements, ResourceTables().overlay()
        )
        for comm in comms:
            assert comm.energy == pytest.approx(
                acg.comm_energy(comm.volume, comm.src_pe, comm.dst_pe)
            )


class TestMappingEnergyHelpers:
    def test_incoming(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        mapping = {"s1": 0, "s2": 1}
        expected = acg.comm_energy(1000, 0, 3) + acg.comm_energy(2000, 1, 3)
        assert incoming_comm_energy(ctg, acg, "recv", 3, mapping) == pytest.approx(expected)

    def test_incoming_ignores_unmapped_senders(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        assert incoming_comm_energy(ctg, acg, "recv", 3, {"s1": 0}) == pytest.approx(
            acg.comm_energy(1000, 0, 3)
        )

    def test_outgoing(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        mapping = {"recv": 3}
        assert outgoing_comm_energy(ctg, acg, "s1", 0, mapping) == pytest.approx(
            acg.comm_energy(1000, 0, 3)
        )

    def test_local_mapping_zero_energy(self):
        ctg = two_senders_ctg()
        acg = acg_1x4()
        assert incoming_comm_energy(ctg, acg, "recv", 0, {"s1": 0, "s2": 0}) == 0.0
