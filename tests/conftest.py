"""Shared fixtures: small CTGs and platforms used across the test suite."""

from __future__ import annotations

import io

import pytest

from repro.arch.acg import ACG
from repro.arch.presets import mesh_2x2, mesh_3x3, mesh_4x4
from repro.ctg.graph import CTG
from repro.ctg.task import Task, TaskCosts
from repro.obs.heartbeat import Heartbeat


@pytest.fixture(autouse=True)
def _no_ambient_flight_recorder(monkeypatch):
    """Keep the suite from appending to the repository's real run ledger.

    Every CLI invocation flight-records by default; hundreds of test
    invocations must not grow ``RUN_LEDGER.jsonl`` in the repo root or
    inherit a heartbeat interval from the developer's environment.
    Ledger-specific tests re-point ``REPRO_LEDGER`` at a tmp path.
    """
    monkeypatch.setenv("REPRO_LEDGER", "off")
    monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
    monkeypatch.delenv("REPRO_STALL_SECS", raising=False)


class _WallSampler(Heartbeat):
    """A quiet active heartbeat that keeps every per-cell wall sample."""

    def __init__(self) -> None:
        super().__init__(3600.0, stream=io.StringIO(), stall_window=60.0)
        self.walls = []

    def cell_done(self, wall_seconds=None) -> None:
        self.walls.append(wall_seconds)
        super().cell_done(wall_seconds)


@pytest.fixture
def heartbeat_walls():
    """Run the test under an active heartbeat; yields its wall samples."""
    with _WallSampler() as monitor:
        yield monitor.walls


def make_task(name, time_by_type, energy_by_type=None, deadline=float("inf")):
    """Build a Task from per-type time (and optional energy) dicts."""
    energy_by_type = energy_by_type or {t: v for t, v in time_by_type.items()}
    costs = {
        pe_type: TaskCosts(time=time_by_type[pe_type], energy=energy_by_type[pe_type])
        for pe_type in time_by_type
    }
    return Task(name=name, costs=costs, deadline=deadline)


def uniform_task(name, time, energy, pe_types=("cpu", "dsp", "arm", "risc"), deadline=float("inf")):
    return Task(
        name=name,
        costs={t: TaskCosts(time=time, energy=energy) for t in pe_types},
        deadline=deadline,
    )


@pytest.fixture
def acg2x2() -> ACG:
    return mesh_2x2()


@pytest.fixture
def acg3x3() -> ACG:
    return mesh_3x3()


@pytest.fixture
def acg4x4() -> ACG:
    return mesh_4x4()


@pytest.fixture
def chain_ctg() -> CTG:
    """The paper's Fig. 2 style chain: t1 -> t2 -> t3 with a deadline."""
    ctg = CTG(name="chain")
    # Heterogeneous costs chosen so the means are 300 / 200 / 400 as in
    # the paper's example (4 PE classes).
    ctg.add_task(
        make_task(
            "t1",
            {"cpu": 150, "dsp": 250, "arm": 450, "risc": 350},
            {"cpu": 900, "dsp": 500, "arm": 200, "risc": 400},
        )
    )
    ctg.add_task(
        make_task(
            "t2",
            {"cpu": 100, "dsp": 150, "arm": 300, "risc": 250},
            {"cpu": 700, "dsp": 400, "arm": 150, "risc": 300},
        )
    )
    ctg.add_task(
        make_task(
            "t3",
            {"cpu": 200, "dsp": 350, "arm": 600, "risc": 450},
            {"cpu": 1200, "dsp": 650, "arm": 250, "risc": 500},
            deadline=1300.0,
        )
    )
    ctg.connect("t1", "t2", volume=4000)
    ctg.connect("t2", "t3", volume=2000)
    return ctg


@pytest.fixture
def diamond_ctg() -> CTG:
    """A fork-join diamond: src -> (a, b) -> sink, deadline on sink."""
    ctg = CTG(name="diamond")
    ctg.add_task(uniform_task("src", 100, 50))
    ctg.add_task(
        make_task(
            "a",
            {"cpu": 90, "dsp": 140, "arm": 280, "risc": 200},
            {"cpu": 520, "dsp": 260, "arm": 100, "risc": 200},
        )
    )
    ctg.add_task(
        make_task(
            "b",
            {"cpu": 45, "dsp": 70, "arm": 140, "risc": 100},
            {"cpu": 260, "dsp": 130, "arm": 50, "risc": 100},
        )
    )
    ctg.add_task(uniform_task("sink", 80, 40, deadline=2000.0))
    ctg.connect("src", "a", volume=8000)
    ctg.connect("src", "b", volume=8000)
    ctg.connect("a", "sink", volume=4000)
    ctg.connect("b", "sink", volume=4000)
    return ctg


@pytest.fixture
def parallel_ctg() -> CTG:
    """Six independent tasks — a pure mapping problem (no edges)."""
    ctg = CTG(name="parallel")
    for i in range(6):
        ctg.add_task(
            make_task(
                f"p{i}",
                {"cpu": 50 + 10 * i, "dsp": 80 + 10 * i, "arm": 160 + 10 * i, "risc": 110 + 10 * i},
                {"cpu": 600, "dsp": 320, "arm": 120, "risc": 240},
                deadline=5000.0,
            )
        )
    return ctg
