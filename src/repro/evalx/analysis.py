"""Structured schedule comparison and utilisation analysis.

The paper's discussion (Sec. 6.2) explains *where* EAS's savings come
from: cheaper PE choices (computation term) and shorter routes
(communication term, fewer average hops).  :func:`compare_schedules`
produces that decomposition for any two schedules of the same CTG, and
:func:`utilization_table` shows how each scheduler loads the platform —
the two views every evaluation in this repository is narrated with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ReproError
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class ScheduleComparison:
    """Energy/latency decomposition of schedule ``a`` vs schedule ``b``."""

    algorithm_a: str
    algorithm_b: str
    energy_a: float
    energy_b: float
    computation_a: float
    computation_b: float
    communication_a: float
    communication_b: float
    hops_a: float
    hops_b: float
    makespan_a: float
    makespan_b: float
    misses_a: int
    misses_b: int
    moved_tasks: int
    n_tasks: int

    @property
    def savings_pct(self) -> float:
        """Energy saved by ``a`` relative to ``b`` (paper convention)."""
        if self.energy_b == 0:
            return 0.0
        return 100.0 * (self.energy_b - self.energy_a) / self.energy_b

    @property
    def computation_savings_pct(self) -> float:
        if self.computation_b == 0:
            return 0.0
        return 100.0 * (self.computation_b - self.computation_a) / self.computation_b

    @property
    def communication_savings_pct(self) -> float:
        if self.communication_b == 0:
            return 0.0
        return 100.0 * (self.communication_b - self.communication_a) / self.communication_b

    def describe(self) -> str:
        """Multi-line human-readable decomposition."""
        return "\n".join(
            [
                f"{self.algorithm_a} vs {self.algorithm_b} "
                f"({self.n_tasks} tasks, {self.moved_tasks} mapped differently):",
                f"  total energy   {self.energy_a:12.4g} vs {self.energy_b:12.4g} nJ "
                f"({self.savings_pct:+.1f}% savings)",
                f"  computation    {self.computation_a:12.4g} vs {self.computation_b:12.4g} nJ "
                f"({self.computation_savings_pct:+.1f}%)",
                f"  communication  {self.communication_a:12.4g} vs {self.communication_b:12.4g} nJ "
                f"({self.communication_savings_pct:+.1f}%)",
                f"  avg hops/pkt   {self.hops_a:12.2f} vs {self.hops_b:12.2f}",
                f"  makespan       {self.makespan_a:12.4g} vs {self.makespan_b:12.4g}",
                f"  deadline miss  {self.misses_a:12d} vs {self.misses_b:12d}",
            ]
        )


def compare_schedules(a: Schedule, b: Schedule) -> ScheduleComparison:
    """Decompose the difference between two schedules of the same CTG."""
    if a.ctg.name != b.ctg.name or a.ctg.n_tasks != b.ctg.n_tasks:
        raise ReproError(
            f"cannot compare schedules of different applications "
            f"({a.ctg.name!r} vs {b.ctg.name!r})"
        )
    mapping_a, mapping_b = a.mapping(), b.mapping()
    moved = sum(1 for task, pe in mapping_a.items() if mapping_b.get(task) != pe)
    return ScheduleComparison(
        algorithm_a=a.algorithm,
        algorithm_b=b.algorithm,
        energy_a=a.total_energy(),
        energy_b=b.total_energy(),
        computation_a=a.computation_energy(),
        computation_b=b.computation_energy(),
        communication_a=a.communication_energy(),
        communication_b=b.communication_energy(),
        hops_a=a.average_hops_per_packet(),
        hops_b=b.average_hops_per_packet(),
        makespan_a=a.makespan(),
        makespan_b=b.makespan(),
        misses_a=len(a.deadline_misses()),
        misses_b=len(b.deadline_misses()),
        moved_tasks=moved,
        n_tasks=a.ctg.n_tasks,
    )


def utilization_table(schedule: Schedule) -> str:
    """Per-PE busy time / utilisation / task count, one line per tile."""
    span = schedule.makespan()
    busy: Dict[int, float] = {pe.index: 0.0 for pe in schedule.acg.pes}
    count: Dict[int, int] = {pe.index: 0 for pe in schedule.acg.pes}
    energy: Dict[int, float] = {pe.index: 0.0 for pe in schedule.acg.pes}
    for placement in schedule.task_placements.values():
        busy[placement.pe] += placement.duration
        count[placement.pe] += 1
        energy[placement.pe] += placement.energy
    lines = [
        f"PE utilisation of {schedule.ctg.name} [{schedule.algorithm}] "
        f"(makespan {span:g}):"
    ]
    for pe in schedule.acg.pes:
        utilisation = busy[pe.index] / span if span > 0 else 0.0
        lines.append(
            f"  PE{pe.index:>2} {pe.type_name:>5} @ {pe.position}: "
            f"{count[pe.index]:3d} tasks, busy {busy[pe.index]:10.1f} "
            f"({100 * utilisation:5.1f}%), comp energy {energy[pe.index]:10.1f} nJ"
        )
    return "\n".join(lines)
