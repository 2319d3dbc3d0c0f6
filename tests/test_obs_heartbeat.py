"""Tests for the heartbeat monitor (obs.heartbeat)."""

import io
import json
import time

import pytest

from repro.obs import context as obs_context
from repro.obs.context import Instrumentation
from repro.obs.heartbeat import (
    Heartbeat,
    active,
    resolve_interval,
)
from repro.obs.ledger import RunLedger
from repro.parallel.pool import pool_map


class TestIntervalResolution:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
        assert resolve_interval() is None

    def test_flag_wins(self):
        assert resolve_interval(2.5) == 2.5

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "7")
        assert resolve_interval() == 7.0

    def test_garbage_env_is_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "soon")
        assert resolve_interval() is None

    def test_nonpositive_is_disabled(self, monkeypatch):
        assert resolve_interval(0) is None
        assert resolve_interval(-1.0) is None
        monkeypatch.setenv("REPRO_HEARTBEAT", "0")
        assert resolve_interval() is None


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def make_monitor(clock, **kwargs):
    kwargs.setdefault("stream", io.StringIO())
    kwargs.setdefault("stall_window", 60.0)
    return Heartbeat(3600.0, clock=clock, **kwargs)


class TestSnapshot:
    def test_progress_and_eta(self, clock):
        monitor = make_monitor(clock)
        monitor._started_at = clock.now
        monitor.grid_started(6, workers=2)
        clock.now += 4.0
        monitor.cell_done(wall_seconds=2.0)
        monitor.cell_done(wall_seconds=4.0)
        snap = monitor.snapshot()
        assert snap["cells_done"] == 2
        assert snap["cells_total"] == 6
        assert snap["elapsed"] == 4.0
        # mean wall 3s x 4 remaining cells / 2 workers
        assert snap["eta_seconds"] == 6.0
        assert snap["stalled"] is False

    def test_no_eta_without_samples(self, clock):
        monitor = make_monitor(clock)
        monitor.grid_started(6)
        assert monitor.snapshot()["eta_seconds"] is None

    def test_eta_unknown_rendered_as_question_mark(self, clock):
        # A grid with zero completed cells has no sample to extrapolate
        # from: the line must say "eta ?", not divide by zero or vanish.
        monitor = make_monitor(clock)
        monitor._started_at = clock.now
        monitor.grid_started(6, workers=2)
        snap = monitor.snapshot()
        assert snap["eta_seconds"] is None
        assert "eta ?" in monitor.describe(snap)
        # Once a cell completes, the real ETA replaces the placeholder.
        monitor.cell_done(wall_seconds=2.0)
        snap = monitor.snapshot()
        assert snap["eta_seconds"] is not None
        described = monitor.describe(snap)
        assert "eta ?" not in described
        assert "eta " in described

    def test_completed_grid_shows_no_eta_placeholder(self, clock):
        monitor = make_monitor(clock)
        monitor.grid_started(2)
        monitor.cell_done()
        monitor.cell_done()
        assert "eta" not in monitor.describe(monitor.snapshot())

    def test_non_finite_cell_walls_never_poison_eta(self, clock):
        # An inf wall (a worker clock gone mad) must not produce an inf
        # ETA — json.dumps(allow_nan=False) in the ledger would raise and
        # kill the monitor thread.
        monitor = make_monitor(clock)
        monitor.grid_started(4)
        monitor.cell_done(wall_seconds=float("inf"))
        snap = monitor.snapshot()
        assert snap["eta_seconds"] is None
        assert "eta ?" in monitor.describe(snap)
        json.dumps(snap, allow_nan=False)  # ledger-appendable
        # A finite sample alongside the poisoned one still extrapolates.
        monitor.cell_done(wall_seconds=2.0)
        snap = monitor.snapshot()
        assert snap["eta_seconds"] == 4.0  # 2s finite mean x 2 remaining / 1 worker

    def test_phase_comes_from_open_tracer_spans(self, clock):
        monitor = make_monitor(clock)
        ins = Instrumentation.enabled()
        with obs_context.activate(ins):
            with ins.tracer.span("cli"):
                with ins.tracer.span("grid"):
                    assert monitor.snapshot()["phase"] == "cli>grid"
                assert monitor.snapshot()["phase"] == "cli"
            assert monitor.snapshot()["phase"] == ""

    def test_stall_flag_after_idle_window(self, clock):
        monitor = make_monitor(clock, stall_window=60.0)
        monitor.grid_started(4)
        monitor.cell_done(wall_seconds=1.0)
        clock.now += 61.0
        snap = monitor.snapshot()
        assert snap["stalled"] is True
        assert snap["idle_seconds"] == 61.0
        assert "WARNING" in monitor.describe(snap)
        assert "stall window 60s" in monitor.describe(snap)

    def test_completed_grid_never_stalls(self, clock):
        monitor = make_monitor(clock, stall_window=60.0)
        monitor.grid_started(1)
        monitor.cell_done()
        clock.now += 1000.0
        assert monitor.snapshot()["stalled"] is False

    def test_progress_resets_stall_timer(self, clock):
        monitor = make_monitor(clock, stall_window=60.0)
        monitor.grid_started(4)
        clock.now += 59.0
        monitor.cell_done()
        clock.now += 59.0
        assert monitor.snapshot()["stalled"] is False


class TestEmission:
    def test_beat_writes_line_and_ledger_record(self, clock):
        stream = io.StringIO()
        ledger = RunLedger(None)
        monitor = make_monitor(clock, stream=stream, ledger=ledger)
        monitor._started_at = clock.now
        monitor.grid_started(3)
        monitor.cell_done(wall_seconds=0.5)
        clock.now += 1.0
        monitor.beat()
        line = stream.getvalue()
        assert line.startswith("heartbeat: elapsed 1.0s, cells 1/3")
        (record,) = ledger.buffered
        assert record["type"] == "heartbeat"
        assert record["cells_done"] == 1
        assert record["cells_total"] == 3
        assert record["stalled"] is False

    def test_closed_stream_does_not_raise(self, clock):
        stream = io.StringIO()
        stream.close()
        monitor = make_monitor(clock, stream=stream)
        monitor.beat()  # must swallow ValueError from the closed stream

    def test_context_manager_registers_active_and_final_beat(self):
        stream = io.StringIO()
        monitor = Heartbeat(3600.0, stream=stream, stall_window=60.0)
        assert active() is None
        with monitor:
            assert active() is monitor
        assert active() is None
        # exit emits one synchronous beat even though no interval elapsed
        assert stream.getvalue().startswith("heartbeat: elapsed")

    def test_thread_beats_at_interval(self):
        stream = io.StringIO()
        with Heartbeat(0.02, stream=stream, stall_window=60.0):
            time.sleep(0.1)
        assert stream.getvalue().count("heartbeat:") >= 2


class TestPoolIntegration:
    def test_serial_map_feeds_progress(self):
        stream = io.StringIO()
        with Heartbeat(3600.0, stream=stream, stall_window=60.0) as monitor:
            assert pool_map(lambda x: x * x, [1, 2, 3], jobs=1) == [1, 4, 9]
            snap = monitor.snapshot()
        assert snap["cells_done"] == 3
        assert snap["cells_total"] == 3

    def test_pooled_map_feeds_progress(self):
        stream = io.StringIO()
        with Heartbeat(3600.0, stream=stream, stall_window=60.0) as monitor:
            assert pool_map(_square, [1, 2, 3, 4], jobs=2) == [1, 4, 9, 16]
            snap = monitor.snapshot()
        assert snap["cells_done"] == 4
        assert snap["cells_total"] == 4

    def test_one_worker_grid_reports_cells(self):
        from repro.evalx.experiments import run_msb_table

        stream = io.StringIO()
        with Heartbeat(3600.0, stream=stream, stall_window=60.0) as monitor:
            run_msb_table("decoder", clips=["akiyo"], jobs=1)
            snap = monitor.snapshot()
        assert snap["cells_total"] == 2
        assert snap["cells_done"] == 2

    def test_pool_without_monitor_is_fine(self):
        assert active() is None
        assert pool_map(lambda x: x + 1, [1, 2], jobs=1) == [2, 3]


def _square(x):
    return x * x
