"""Event-driven replay of a static schedule.

The schedulers build schedules *analytically* through schedule tables.
:func:`simulate_schedule` re-executes a schedule as a discrete-event
simulation — PEs pick up their assigned tasks in start-time order,
transactions acquire every link of their path atomically — and checks
that the recorded times are *self-consistent as an execution*: no task
runs before its inputs arrive, no two occupants share a resource, every
occupancy matches the platform's cost model.  Because this code path
shares nothing with :class:`repro.schedule.table.ScheduleTable`, it is
an independent witness that a schedule is executable on the modelled
hardware, and it produces the utilisation/traffic statistics the
evaluation section reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ScheduleValidationError
from repro.schedule.schedule import Schedule
from repro.schedule.table import EPS


@dataclass
class SimulationReport:
    """Execution statistics of one replayed schedule."""

    makespan: float
    computation_energy: float
    communication_energy: float
    pe_busy_time: Dict[int, float]
    link_busy_time: Dict = field(default_factory=dict)
    n_transactions: int = 0
    n_local_transactions: int = 0
    average_hops_per_packet: float = 0.0
    deadline_misses: Tuple[str, ...] = ()

    @property
    def total_energy(self) -> float:
        return self.computation_energy + self.communication_energy


def simulate_schedule(schedule: Schedule) -> SimulationReport:
    """Replay ``schedule`` event by event; raise on inconsistency.

    Raises:
        ScheduleValidationError: the schedule cannot be executed as
            recorded (causality violation, resource double-booking, or
            model mismatch).
    """
    ctg, acg = schedule.ctg, schedule.acg

    # Event kinds, processed in time order; ties resolved with releases
    # (kind 0) before acquisitions (kind 1) so back-to-back slots work.
    RELEASE, ACQUIRE = 0, 1
    events: List[Tuple[float, int, int, str, object]] = []
    serial = 0

    def push(time: float, kind: int, label: str, payload) -> None:
        nonlocal serial
        heapq.heappush(events, (time, kind, serial, label, payload))
        serial += 1

    for placement in schedule.task_placements.values():
        push(placement.start, ACQUIRE, "task-start", placement)
        push(placement.finish, RELEASE, "task-finish", placement)
    for comm in schedule.comm_placements.values():
        if not comm.is_local:
            push(comm.start, ACQUIRE, "comm-start", comm)
            push(comm.finish, RELEASE, "comm-finish", comm)

    pe_owner: Dict[int, Optional[str]] = {pe.index: None for pe in acg.pes}
    link_owner: Dict = {}
    finished_tasks: Dict[str, float] = {}
    arrived_inputs: Dict[str, Dict[str, float]] = {
        name: {} for name in ctg.task_names()
    }
    pe_busy: Dict[int, float] = {pe.index: 0.0 for pe in acg.pes}
    link_busy: Dict = {}

    while events:
        time, kind, _serial, label, payload = heapq.heappop(events)
        if label == "task-start":
            _check_task_start(schedule, payload, finished_tasks, arrived_inputs, time)
            if pe_owner[payload.pe] is not None:
                raise ScheduleValidationError(
                    f"PE {payload.pe} double-booked: {payload.task!r} vs "
                    f"{pe_owner[payload.pe]!r} at t={time}"
                )
            pe_owner[payload.pe] = payload.task
        elif label == "task-finish":
            pe_owner[payload.pe] = None
            finished_tasks[payload.task] = time
            pe_busy[payload.pe] += payload.duration
        elif label == "comm-start":
            if payload.src_task not in finished_tasks:
                raise ScheduleValidationError(
                    f"transaction {payload.src_task}->{payload.dst_task} starts "
                    f"before its sender finishes"
                )
            for link in payload.links:
                if link_owner.get(link) is not None:
                    raise ScheduleValidationError(
                        f"link {link} double-booked at t={time}"
                    )
            for link in payload.links:
                link_owner[link] = (payload.src_task, payload.dst_task)
        elif label == "comm-finish":
            for link in payload.links:
                link_owner[link] = None
                link_busy[link] = link_busy.get(link, 0.0) + payload.duration
            arrived_inputs[payload.dst_task][payload.src_task] = time

    # Local transactions deliver at the sender's finish; register them so
    # the start checks above see complete inputs.  (They were validated
    # inside _check_task_start through the recorded finish times.)
    n_local = sum(1 for c in schedule.comm_placements.values() if c.is_local)

    misses = tuple(schedule.deadline_misses())
    return SimulationReport(
        makespan=schedule.makespan(),
        computation_energy=schedule.computation_energy(),
        communication_energy=schedule.communication_energy(),
        pe_busy_time=pe_busy,
        link_busy_time=link_busy,
        n_transactions=len(schedule.comm_placements),
        n_local_transactions=n_local,
        average_hops_per_packet=schedule.average_hops_per_packet(),
        deadline_misses=misses,
    )


def _check_task_start(
    schedule: Schedule,
    placement,
    finished_tasks: Dict[str, float],
    arrived_inputs: Dict[str, Dict[str, float]],
    now: float,
) -> None:
    """All inputs of a starting task must have arrived by ``now``."""
    ctg = schedule.ctg
    for edge in ctg.in_edges(placement.task):
        comm = schedule.comm(edge.src, placement.task)
        if comm.is_local:
            # Local delivery happens at the sender's finish.
            if edge.src not in finished_tasks or finished_tasks[edge.src] > now + EPS:
                raise ScheduleValidationError(
                    f"task {placement.task!r} starts before local input from "
                    f"{edge.src!r} is ready"
                )
        else:
            arrival = arrived_inputs[placement.task].get(edge.src)
            if arrival is None or arrival > now + EPS:
                raise ScheduleValidationError(
                    f"task {placement.task!r} starts before its input "
                    f"{edge.src!r} arrives over the network"
                )
