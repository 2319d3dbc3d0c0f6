"""Tests for degraded-mode rescheduling: salvage, recovery, validation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.arch.acg import ACG
from repro.arch.presets import mesh_2x2, mesh_3x3
from repro.arch.topology import Mesh2D
from repro.core.eas import eas_schedule
from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.ctg.graph import CTG
from repro.ctg.task import CommEdge
from repro.faults.plan import FaultPlan, LinkFault, PEFault, TransientFault
from repro.faults.recovery import (
    UnsurvivableFaultError,
    classify_salvage,
    inject_and_recover,
    kept_comm_keys,
)
from repro.schedule.serialization import schedule_to_dict
from repro.schedule.table import EPS
from tests.conftest import make_task, uniform_task


@pytest.fixture(scope="module")
def committed():
    ctg = generate_ctg(GeneratorConfig(n_tasks=30, seed=9, level_width=4.0))
    acg = mesh_3x3()
    schedule = eas_schedule(ctg, acg)
    schedule.validate_structure()
    return schedule


def mid_time(schedule, fraction=0.5):
    return schedule.makespan() * fraction


class TestClassifySalvage:
    def test_partition_is_exact(self, committed):
        t = mid_time(committed)
        salvaged, rerun = classify_salvage(committed, t, frozenset())
        assert salvaged | rerun == set(committed.ctg.task_names())
        assert not salvaged & rerun
        for name in salvaged:
            assert committed.placement(name).finish <= t + EPS
        for name in rerun:
            assert committed.placement(name).finish > t + EPS

    def test_dead_pe_resurrects_needed_producers(self, committed):
        t = mid_time(committed)
        ctg = committed.ctg
        for pe in range(committed.acg.n_pes):
            salvaged, rerun = classify_salvage(committed, t, frozenset([pe]))
            for name in salvaged:
                placement = committed.placement(name)
                if placement.pe == pe:
                    # A salvaged task on the dead PE has no rerun
                    # consumer: its output is never needed again.
                    assert not any(s in rerun for s in ctg.successors(name))

    def test_kept_comms_have_salvaged_receiver(self, committed):
        t = mid_time(committed)
        salvaged, _ = classify_salvage(committed, t, frozenset())
        kept = kept_comm_keys(committed, salvaged)
        assert all(dst in salvaged for _, dst in kept)
        # Every comm whose receiver is salvaged is kept — no more, no less.
        assert kept == {
            key for key in committed.comm_placements if key[1] in salvaged
        }


class TestRecovery:
    def test_pe_death_recovery_invariants(self, committed):
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=4, time=mid_time(committed)),)
        )
        result = inject_and_recover(committed, plan)
        recovery = result.recovery
        # validate_recovery already ran inside; re-check headline rules.
        for name in result.salvaged:
            assert recovery.placement(name) == committed.placement(name)
        for name in result.rerun:
            placement = recovery.placement(name)
            assert placement.pe != 4
            assert placement.start >= result.fault_time - EPS
        assert result.salvaged | result.rerun == set(committed.ctg.task_names())

    def test_link_cut_recovery_avoids_cut_channel(self, committed):
        channel = (committed.acg.pe(0).position, committed.acg.pe(1).position)
        plan = FaultPlan(
            name="cut",
            link_faults=(
                LinkFault(src=channel[0], dst=channel[1], time=mid_time(committed)),
            ),
        )
        result = inject_and_recover(committed, plan)
        cut = {(channel[0], channel[1]), (channel[1], channel[0])}
        for key, comm in result.recovery.comm_placements.items():
            if key in result.kept_comms:
                continue
            for link in comm.links:
                assert (link.src, link.dst) not in cut

    def test_transient_recovery_schedules_around_window(self, committed):
        t = mid_time(committed, 0.4)
        channel = (committed.acg.pe(0).position, committed.acg.pe(1).position)
        plan = FaultPlan(
            name="tr",
            transient_faults=(
                TransientFault(
                    src=channel[0], dst=channel[1], start=t, end=t * 1.4
                ),
            ),
        )
        result = inject_and_recover(committed, plan)
        windows = plan.transient_windows()
        for key, comm in result.recovery.comm_placements.items():
            if key in result.kept_comms or comm.finish <= comm.start:
                continue
            for link in comm.links:
                for start, end in windows.get(link, ()):
                    assert not (start < comm.finish and comm.start < end)

    def test_recovery_is_deterministic(self, committed):
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=2, time=mid_time(committed)),)
        )
        a = inject_and_recover(committed, plan)
        b = inject_and_recover(committed, plan)
        assert schedule_to_dict(a.recovery) == schedule_to_dict(b.recovery)

    def test_committed_schedule_untouched(self, committed):
        before = schedule_to_dict(committed)
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=1, time=mid_time(committed)),)
        )
        inject_and_recover(committed, plan)
        assert schedule_to_dict(committed) == before

    def test_late_fault_salvages_almost_everything(self, committed):
        plan = FaultPlan(
            name="late",
            pe_faults=(PEFault(pe=0, time=committed.makespan() - EPS),),
        )
        result = inject_and_recover(committed, plan)
        assert len(result.rerun) <= 2

    def test_deltas_are_consistent(self, committed):
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=3, time=mid_time(committed)),)
        )
        result = inject_and_recover(committed, plan)
        assert result.miss_delta == result.misses_after - result.misses_before
        assert result.energy_delta == pytest.approx(
            result.recovery.total_energy() - committed.total_energy()
        )
        deltas = result.utilization_deltas()
        assert set(deltas) == {
            "peak_pe_utilization",
            "peak_link_utilization",
            "contention_wait",
        }

    def test_describe_mentions_verdict(self, committed):
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=5, time=mid_time(committed)),)
        )
        text = inject_and_recover(committed, plan).describe()
        assert "salvaged" in text
        assert ("SURVIVED" in text) or ("DEGRADED" in text)

    def test_empty_plan_rejected(self, committed):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            inject_and_recover(committed, FaultPlan(name="empty"))


class TestUnsurvivable:
    def test_dead_sole_capable_pe(self):
        # B runs only on the single dsp tile; killing it at t=0 (before
        # anything completed) leaves B with no feasible host.
        ctg = CTG()
        ctg.add_task(make_task("a", {"risc": 5.0}))
        ctg.add_task(make_task("b", {"dsp": 5.0}))
        ctg.add_edge(CommEdge("a", "b", volume=64.0))
        acg = ACG(Mesh2D(1, 2), pe_types=["risc", "dsp"], link_bandwidth=64.0)
        committed = eas_schedule(ctg, acg)
        plan = FaultPlan(name="kill-dsp", pe_faults=(PEFault(pe=1, time=0.0),))
        with pytest.raises(UnsurvivableFaultError):
            inject_and_recover(committed, plan)

    def test_unsurvivable_is_clean_scheduling_error(self):
        from repro.errors import SchedulingError

        assert issubclass(UnsurvivableFaultError, SchedulingError)


class TestSmallPlatform:
    def test_2x2_pe_death_recovers(self):
        ctg = CTG()
        prev = None
        for i in range(6):
            task = uniform_task(f"t{i}", 10, 2)
            ctg.add_task(task)
            if prev is not None:
                ctg.add_edge(CommEdge(prev, task.name, volume=128.0))
            prev = task.name
        committed = eas_schedule(ctg, mesh_2x2())
        plan = FaultPlan(
            name="pe",
            pe_faults=(
                PEFault(
                    pe=committed.placement("t5").pe,
                    time=committed.makespan() * 0.5,
                ),
            ),
        )
        result = inject_and_recover(committed, plan)
        assert result.recovery.placement("t5").pe != plan.pe_faults[0].pe


#: A recovery whose repair accepts migrations from a frozen prefix; prints
#: the floats and the report ``TestHashSeedIndependence`` compares.
_HASH_SEED_PROBE = """
from repro.arch.presets import mesh_3x3
from repro.core.eas import EASConfig, eas_schedule
from repro.ctg.generator import generate_category
from repro.faults.plan import generate_fault_plans
from repro.faults.recovery import inject_and_recover

ctg = generate_category(2, 0, n_tasks=20).with_scaled_deadlines(0.65)
acg = mesh_3x3()
committed = eas_schedule(ctg, acg)
plan = generate_fault_plans(acg, 1, seed=0, horizon=committed.makespan())[0]
result = inject_and_recover(committed, plan, config=EASConfig(max_repair_rounds=4))
report = result.repair_report
print(report.swaps_accepted + report.migrations_accepted)
print(repr(result.recovery.total_energy()))
print(repr(result.recovery.total_tardiness()))
print(repr(report))
"""


class TestHashSeedIndependence:
    def test_recovery_floats_do_not_depend_on_string_hashing(self):
        """Salvaged placements and kept transactions seed in a fixed order.

        The prefix is seeded by task name and by ``(src, dst)``, so the
        recovery's float sums come out the same under any
        ``PYTHONHASHSEED``.
        """
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(done.stdout.splitlines())
        accepted = int(outputs[0][0])
        assert accepted > 0, "the probe recovery never accepted a repair move"
        assert outputs[0] == outputs[1]
