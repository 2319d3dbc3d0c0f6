"""Tests for the per-resource analytics report (obs.utilization)."""

import json
import math

import pytest

from repro import obs
from repro.arch.presets import mesh_2x2, mesh_4x4
from repro.core.eas import eas_schedule
from repro.core.slack import compute_budgets
from repro.ctg.generator import generate_category
from repro.obs.metrics import MetricsRegistry
from repro.obs.utilization import analyze_schedule


@pytest.fixture(scope="module")
def cat1():
    ctg = generate_category(1, 1, n_tasks=40)
    acg = mesh_4x4(shuffle_seed=101)
    schedule = eas_schedule(ctg, acg)
    return schedule, analyze_schedule(schedule, budgets=compute_budgets(ctg, acg))


class TestPEUsage:
    def test_busy_matches_task_durations(self, cat1):
        schedule, report = cat1
        for usage in report.pes:
            expected = sum(
                p.duration for p in schedule.task_placements.values() if p.pe == usage.index
            )
            assert usage.busy == pytest.approx(expected)
            assert usage.utilization == pytest.approx(expected / report.makespan)

    def test_task_counts_cover_all_tasks(self, cat1):
        schedule, report = cat1
        assert sum(pe.n_tasks for pe in report.pes) == schedule.ctg.n_tasks

    def test_utilization_bounded(self, cat1):
        _, report = cat1
        assert 0.0 < report.peak_pe_utilization <= 1.0
        assert 0.0 < report.mean_pe_utilization <= report.peak_pe_utilization


class TestLinkUsage:
    def test_link_busy_matches_schedule_link_utilization(self, cat1):
        schedule, report = cat1
        expected = schedule.link_utilization()
        got = {usage.link: usage.busy for usage in report.links}
        assert set(got) == {link for link, busy in expected.items()}
        for link, busy in got.items():
            assert busy == pytest.approx(expected[link])

    def test_contention_wait_nonnegative_and_totalled(self, cat1):
        _, report = cat1
        assert report.total_contention_wait >= 0.0
        for usage in report.links:
            assert usage.contention_wait >= 0.0

    def test_energy_attribution_is_exact(self, cat1):
        """PE compute + local comm + link shares == total schedule energy."""
        schedule, report = cat1
        attributed = (
            sum(pe.compute_energy for pe in report.pes)
            + sum(pe.local_comm_energy for pe in report.pes)
            + sum(link.energy_share for link in report.links)
        )
        assert attributed == pytest.approx(schedule.total_energy())


class TestSlackAudit:
    def test_only_deadline_tasks_audited(self, cat1):
        schedule, report = cat1
        expected = {
            name
            for name in schedule.ctg.task_names()
            if math.isfinite(schedule.ctg.task(name).deadline)
        }
        assert {row.task for row in report.slack} == expected

    def test_decomposition_reaches_finish(self, cat1):
        """input_ready + queue_wait + execution == finish, exactly."""
        schedule, report = cat1
        for row in report.slack:
            placement = schedule.task_placements[row.task]
            assert row.input_ready + row.queue_wait + row.execution == pytest.approx(
                placement.finish
            )

    def test_budgeted_deadline_present_and_consistent(self, cat1):
        _, report = cat1
        budgeted = [row for row in report.slack if row.budgeted_deadline is not None]
        assert budgeted
        for row in budgeted:
            # BD never exceeds the real deadline by construction.
            assert row.budgeted_deadline <= row.deadline + 1e-9

    def test_feasible_schedule_reports_no_misses(self, cat1):
        schedule, report = cat1
        if not schedule.deadline_misses():
            assert not any(row.missed for row in report.slack)
            assert report.min_slack >= 0.0


class TestOutputs:
    def test_register_publishes_gauges(self, cat1):
        _, report = cat1
        registry = MetricsRegistry()
        report.register(registry)
        snapshot = registry.snapshot()["gauges"]
        assert snapshot["util.pe.peak_busy_frac"] == pytest.approx(report.peak_pe_utilization)
        assert snapshot["util.link.contention_wait"] == pytest.approx(
            report.total_contention_wait
        )
        assert snapshot["util.energy.total"] == pytest.approx(report.energy["total"])
        assert snapshot["util.slack.min"] == pytest.approx(report.min_slack)

    def test_to_dict_is_json_serialisable(self, cat1):
        _, report = cat1
        payload = json.dumps(report.to_dict())
        decoded = json.loads(payload)
        assert decoded["benchmark"] == report.benchmark
        assert len(decoded["pes"]) == len(report.pes)
        assert len(decoded["links"]) == len(report.links)

    def test_format_text_mentions_all_sections(self, cat1):
        _, report = cat1
        text = report.format_text()
        for heading in (
            "== PE utilisation ==",
            "== link occupancy ==",
            "== energy breakdown ==",
            "== slack audit",
        ):
            assert heading in text

    def test_registers_into_shared_registry_via_evalx(self):
        """An evalx grid publishes util.<scheduler>.* gauges into the live registry."""
        from repro.evalx.experiments import run_msb_table

        registry = obs.get().metrics
        rows = run_msb_table("decoder", clips=["foreman"])
        snapshot = registry.snapshot()["gauges"]
        assert "util.eas.pe.peak_busy_frac" in snapshot
        assert "util.edf.link.contention_wait" in snapshot
        assert rows[0].metrics["eas:peakpe"] > 0.0


class TestEdgeCases:
    def test_empty_schedule_report(self):
        from repro.ctg.graph import CTG
        from repro.schedule.schedule import Schedule

        schedule = Schedule(CTG(name="empty"), mesh_2x2(), algorithm="none")
        report = analyze_schedule(schedule)
        assert report.makespan == 0.0
        assert all(pe.utilization == 0.0 for pe in report.pes)
        assert report.links == []
        assert report.slack == []
        assert report.total_contention_wait == 0.0
        assert report.min_slack == math.inf
        # And it still renders.
        assert "no link traffic" in report.format_text()

    def test_local_transfers_attributed_to_pe_not_links(self):
        from tests.conftest import uniform_task
        from repro.ctg.graph import CTG

        ctg = CTG(name="local-pair")
        ctg.add_task(uniform_task("a", 10, 5))
        ctg.add_task(uniform_task("b", 10, 5, deadline=100000))
        ctg.connect("a", "b", volume=100)
        schedule = eas_schedule(ctg, mesh_2x2())
        report = analyze_schedule(schedule)
        comm = schedule.comm_placements[("a", "b")]
        if comm.is_local:
            assert report.links == []
            assert sum(pe.local_comm_energy for pe in report.pes) == pytest.approx(
                comm.energy
            )
        else:
            assert sum(link.energy_share for link in report.links) == pytest.approx(
                comm.energy
            )
