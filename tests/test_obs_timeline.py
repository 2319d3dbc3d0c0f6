"""Tests for the Chrome Trace Format timeline export (obs.timeline)."""

import json

import pytest

from repro import obs
from repro.arch.presets import mesh_2x2, mesh_4x4
from repro.core.eas import eas_schedule
from repro.ctg.generator import generate_category
from repro.obs.timeline import (
    PID_LINKS,
    PID_PES,
    PID_SCHEDULER,
    chrome_trace,
    schedule_timeline_events,
    tracer_timeline_events,
)

#: every CTF data event must carry these fields.
REQUIRED_KEYS = {"name", "ph", "pid", "ts"}


@pytest.fixture(scope="module")
def cat1_schedule():
    """A scheduled category-I CTG plus the tracer that watched the run."""
    ctg = generate_category(1, 0, n_tasks=40)
    acg = mesh_4x4(shuffle_seed=100)
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        schedule = eas_schedule(ctg, acg)
    return schedule, ins


class TestCTFSchema:
    """The acceptance criterion: a valid CTF file with all three lanes."""

    def test_document_validates_against_ctf_event_schema(self, cat1_schedule):
        schedule, ins = cat1_schedule
        document = chrome_trace(schedule, tracer=ins.tracer)
        assert set(document) >= {"traceEvents", "displayTimeUnit", "otherData"}
        for event in document["traceEvents"]:
            assert event["ph"] in {"X", "M", "i"}
            if event["ph"] == "M":
                assert event["name"] in {
                    "process_name",
                    "process_sort_index",
                    "thread_name",
                    "thread_sort_index",
                }
                assert "args" in event
            else:
                assert REQUIRED_KEYS <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert event["ts"] >= 0.0

    def test_pe_link_and_span_lanes_all_present(self, cat1_schedule):
        schedule, ins = cat1_schedule
        events = chrome_trace(schedule, tracer=ins.tracer)["traceEvents"]
        pids = {e["pid"] for e in events}
        assert {PID_PES, PID_LINKS, PID_SCHEDULER} <= pids
        task_events = [e for e in events if e["pid"] == PID_PES and e["ph"] == "X"]
        link_events = [e for e in events if e["pid"] == PID_LINKS and e["ph"] == "X"]
        span_events = [e for e in events if e["pid"] == PID_SCHEDULER and e["ph"] == "X"]
        assert sorted(e["name"] for e in task_events) == sorted(schedule.ctg.task_names())
        assert link_events, "scheduled CTG must produce link traffic"
        assert {e["name"] for e in span_events} >= {"slack_budgeting", "level_schedule"}

    def test_every_remote_transaction_appears_once_per_hop(self, cat1_schedule):
        schedule, ins = cat1_schedule
        events = chrome_trace(schedule)["traceEvents"]
        link_events = [e for e in events if e["pid"] == PID_LINKS and e["ph"] == "X"]
        expected = sum(
            len(p.links) for p in schedule.comm_placements.values() if not p.is_local
        )
        assert len(link_events) == expected

    def test_json_serialisable_and_strict(self, cat1_schedule):
        schedule, ins = cat1_schedule
        text = json.dumps(chrome_trace(schedule, tracer=ins.tracer), allow_nan=False)
        assert json.loads(text)["otherData"]["benchmark"] == schedule.ctg.name


class TestDeterminism:
    def test_same_schedule_exports_byte_identical_json(self, cat1_schedule):
        schedule, ins = cat1_schedule
        a = json.dumps(chrome_trace(schedule, tracer=ins.tracer), sort_keys=True)
        b = json.dumps(chrome_trace(schedule, tracer=ins.tracer), sort_keys=True)
        assert a == b

    def test_metadata_precedes_data_events(self, cat1_schedule):
        schedule, _ = cat1_schedule
        events = chrome_trace(schedule)["traceEvents"]
        phases = [e["ph"] for e in events]
        first_data = phases.index("X")
        assert all(ph != "M" for ph in phases[first_data:])


class TestLaneContent:
    def test_task_events_carry_energy_and_slack_args(self, cat1_schedule):
        schedule, _ = cat1_schedule
        events = schedule_timeline_events(schedule)
        by_name = {e["name"]: e for e in events if e["ph"] == "X" and e["pid"] == PID_PES}
        for name, placement in schedule.task_placements.items():
            event = by_name[name]
            assert event["ts"] == placement.start
            assert event["dur"] == pytest.approx(placement.duration)
            assert event["tid"] == placement.pe
            assert event["args"]["energy_nJ"] == pytest.approx(placement.energy)

    def test_link_energy_shares_sum_to_remote_comm_energy(self, cat1_schedule):
        schedule, _ = cat1_schedule
        events = schedule_timeline_events(schedule)
        total_share = sum(
            e["args"]["energy_share_nJ"]
            for e in events
            if e["ph"] == "X" and e["pid"] == PID_LINKS
        )
        remote = sum(
            p.energy for p in schedule.comm_placements.values() if not p.is_local
        )
        assert total_share == pytest.approx(remote)

    def test_idle_links_option_adds_lanes_for_whole_topology(self, cat1_schedule):
        schedule, _ = cat1_schedule
        dense = schedule_timeline_events(schedule, include_idle_links=True)
        lanes = {
            e["tid"]
            for e in dense
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == PID_LINKS
        }
        assert len(lanes) == len(schedule.acg.all_links())

    def test_local_only_schedule_has_no_link_lane(self):
        from tests.conftest import uniform_task
        from repro.ctg.graph import CTG

        ctg = CTG(name="local")
        ctg.add_task(uniform_task("a", 10, 5))
        ctg.add_task(uniform_task("b", 10, 5, deadline=10000))
        ctg.connect("a", "b", volume=0.0)
        schedule = eas_schedule(ctg, mesh_2x2())
        events = schedule_timeline_events(schedule)
        assert not [e for e in events if e["pid"] == PID_LINKS and e["ph"] == "X"]


class TestTracerLane:
    def test_spans_rebased_to_zero(self, cat1_schedule):
        _, ins = cat1_schedule
        events = [e for e in tracer_timeline_events(ins.tracer) if e["ph"] == "X"]
        assert events
        assert min(e["ts"] for e in events) == pytest.approx(0.0)
        assert all(e["dur"] >= 0.0 for e in events)

    def test_empty_tracer_contributes_nothing(self):
        assert tracer_timeline_events(obs.NULL_TRACER) == []
