"""Per-resource schedule analytics: PE load, link contention, slack audit.

The paper's evaluation narrates *where* energy and time go — which PEs
do the work, which links carry (and serialise) the traffic, and how the
budgeted slack of Step 1 was actually spent.  :func:`analyze_schedule`
computes exactly that decomposition from a finished schedule:

* **PE usage** — busy/idle fraction against the makespan, task count and
  computation energy per tile, plus the energy of local (same-tile)
  transfers, which occupy no links but still cost router energy.
* **Link usage** — occupancy per directed link, the transaction count,
  the communication-energy share attributed hop-by-hop along each XY
  route, and the *contention wait* routed over the link: time
  transactions spent queued after their sender finished, the link-level
  serialisation the paper's Fig. 3 tables resolve.
* **Slack audit** — per deadline task: budgeted deadline (when Step-1
  budgets are supplied), actual finish, remaining slack, and the split
  of elapsed time into upstream pipeline (inputs-ready time), PE
  queueing and execution — i.e. who consumed the slack.

The report registers headline gauges into a :class:`MetricsRegistry`
(``util.*``) and renders as the ``repro-noc inspect --format text``
report.  Energy attribution is exact: PE + local + link shares sum to
``schedule.total_energy()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.topology import Link
    from repro.core.slack import TaskBudget
    from repro.schedule.schedule import Schedule

#: deadline tasks listed by the text report's slack audit, tightest first.
MAX_SLACK_ROWS = 12


@dataclass
class PEUsage:
    """One tile's share of the schedule."""

    index: int
    type_name: str
    position: Tuple[int, int]
    busy: float = 0.0
    n_tasks: int = 0
    compute_energy: float = 0.0
    local_comm_energy: float = 0.0
    utilization: float = 0.0  # busy / makespan


@dataclass
class LinkUsage:
    """One directed link's share of the traffic."""

    link: "Link"
    busy: float = 0.0
    n_transactions: int = 0
    volume: float = 0.0
    energy_share: float = 0.0
    contention_wait: float = 0.0
    utilization: float = 0.0  # busy / makespan


@dataclass
class SlackAudit:
    """Where one deadline task's slack went."""

    task: str
    deadline: float
    finish: float
    budgeted_deadline: Optional[float] = None
    input_ready: float = 0.0  # when the last incoming transaction delivered
    queue_wait: float = 0.0  # inputs ready, PE busy
    execution: float = 0.0

    @property
    def slack_remaining(self) -> float:
        return self.deadline - self.finish

    @property
    def missed(self) -> bool:
        return self.slack_remaining < 0.0


@dataclass
class UtilizationReport:
    """The full per-resource decomposition of one schedule."""

    benchmark: str
    algorithm: str
    makespan: float
    pes: List[PEUsage]
    links: List[LinkUsage]
    slack: List[SlackAudit]
    energy: Dict[str, float] = field(default_factory=dict)
    total_contention_wait: float = 0.0

    # -- aggregates ---------------------------------------------------------

    @property
    def peak_pe_utilization(self) -> float:
        return max((pe.utilization for pe in self.pes), default=0.0)

    @property
    def mean_pe_utilization(self) -> float:
        return sum(pe.utilization for pe in self.pes) / len(self.pes) if self.pes else 0.0

    @property
    def peak_link_utilization(self) -> float:
        return max((link.utilization for link in self.links), default=0.0)

    @property
    def min_slack(self) -> float:
        return min((row.slack_remaining for row in self.slack), default=math.inf)

    # -- outputs ------------------------------------------------------------

    def register(self, registry: MetricsRegistry, prefix: str = "util.") -> None:
        """Publish the headline aggregates as gauges in ``registry``."""
        registry.gauge(prefix + "pe.peak_busy_frac").set(self.peak_pe_utilization)
        registry.gauge(prefix + "pe.mean_busy_frac").set(self.mean_pe_utilization)
        registry.gauge(prefix + "link.peak_busy_frac").set(self.peak_link_utilization)
        registry.gauge(prefix + "link.contention_wait").set(self.total_contention_wait)
        registry.gauge(prefix + "makespan").set(self.makespan)
        if self.slack:
            registry.gauge(prefix + "slack.min").set(self.min_slack)
        for key, value in self.energy.items():
            registry.gauge(f"{prefix}energy.{key}").set(value)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (``inspect --format json``)."""
        return {
            "benchmark": self.benchmark,
            "algorithm": self.algorithm,
            "makespan": self.makespan,
            "energy": dict(self.energy),
            "total_contention_wait": self.total_contention_wait,
            "pes": [
                {
                    "pe": pe.index,
                    "type": pe.type_name,
                    "position": list(pe.position),
                    "busy": pe.busy,
                    "utilization": pe.utilization,
                    "tasks": pe.n_tasks,
                    "compute_energy": pe.compute_energy,
                    "local_comm_energy": pe.local_comm_energy,
                }
                for pe in self.pes
            ],
            "links": [
                {
                    "link": f"{link.link.src}->{link.link.dst}",
                    "busy": link.busy,
                    "utilization": link.utilization,
                    "transactions": link.n_transactions,
                    "volume": link.volume,
                    "energy_share": link.energy_share,
                    "contention_wait": link.contention_wait,
                }
                for link in self.links
            ],
            "slack": [
                {
                    "task": row.task,
                    "deadline": row.deadline,
                    "budgeted_deadline": row.budgeted_deadline,
                    "finish": row.finish,
                    "slack_remaining": row.slack_remaining,
                    "input_ready": row.input_ready,
                    "queue_wait": row.queue_wait,
                    "execution": row.execution,
                    "missed": row.missed,
                }
                for row in self.slack
            ],
        }

    def format_text(self) -> str:
        """The human-readable report (``inspect --format text``)."""
        lines = [
            f"Resource report: {self.benchmark} [{self.algorithm}] "
            f"makespan {self.makespan:g}",
            "",
            "== PE utilisation ==",
        ]
        for pe in self.pes:
            bar = _bar(pe.utilization)
            lines.append(
                f"  PE{pe.index:>2} {pe.type_name:>6} @ {pe.position}: "
                f"{bar} {100 * pe.utilization:5.1f}% busy  "
                f"{pe.n_tasks:3d} tasks  comp {pe.compute_energy:10.1f} nJ"
                + (
                    f"  local-comm {pe.local_comm_energy:.1f} nJ"
                    if pe.local_comm_energy
                    else ""
                )
            )
        lines.append("")
        lines.append("== link occupancy ==")
        if self.links:
            for usage in self.links:
                bar = _bar(usage.utilization)
                lines.append(
                    f"  {str(usage.link.src):>6}->{str(usage.link.dst):<6} "
                    f"{bar} {100 * usage.utilization:5.1f}% busy  "
                    f"{usage.n_transactions:3d} xfers  "
                    f"{usage.energy_share:9.1f} nJ  wait {usage.contention_wait:8.2f}"
                )
            lines.append(
                f"  total contention wait: {self.total_contention_wait:.2f} time units"
            )
        else:
            lines.append("  (no link traffic: all communication is same-tile)")
        lines.append("")
        lines.append("== energy breakdown ==")
        total = self.energy.get("total", 0.0)
        for key in ("computation", "communication", "total"):
            value = self.energy.get(key, 0.0)
            pct = 100.0 * value / total if total else 0.0
            lines.append(f"  {key:<14} {value:12.1f} nJ  ({pct:5.1f}%)")
        lines.append("")
        lines.append("== slack audit (deadline tasks) ==")
        if self.slack:
            shown = sorted(self.slack, key=lambda row: row.slack_remaining)[:MAX_SLACK_ROWS]
            for row in shown:
                bd = (
                    f" BD {row.budgeted_deadline:g}"
                    if row.budgeted_deadline is not None
                    and math.isfinite(row.budgeted_deadline)
                    else ""
                )
                status = "MISS" if row.missed else "ok"
                lines.append(
                    f"  {row.task:<18} deadline {row.deadline:>9g}{bd} "
                    f"finish {row.finish:>9.1f}  slack {row.slack_remaining:>9.1f} [{status}]  "
                    f"(inputs-ready {row.input_ready:.1f}, queue {row.queue_wait:.1f}, "
                    f"exec {row.execution:.1f})"
                )
            if len(self.slack) > len(shown):
                lines.append(f"  ... {len(self.slack) - len(shown)} more (tightest shown first)")
        else:
            lines.append("  (no deadline tasks)")
        return "\n".join(lines)


def analyze_schedule(
    schedule: "Schedule", budgets: Optional[Dict[str, "TaskBudget"]] = None
) -> UtilizationReport:
    """Decompose ``schedule`` into the per-resource report.

    ``budgets`` — the Step-1 :class:`TaskBudget` map — is optional; when
    supplied the slack audit also reports each task's budgeted deadline.
    """
    makespan = schedule.makespan()

    pes = [
        PEUsage(index=pe.index, type_name=pe.type_name, position=pe.position)
        for pe in schedule.acg.pes
    ]
    for placement in schedule.task_placements.values():
        usage = pes[placement.pe]
        usage.busy += placement.duration
        usage.n_tasks += 1
        usage.compute_energy += placement.energy
    for usage in pes:
        usage.utilization = usage.busy / makespan if makespan > 0 else 0.0

    links: Dict["Link", LinkUsage] = {}
    total_wait = 0.0
    for placement in schedule.comm_placements.values():
        if placement.is_local:
            if placement.energy:
                pes[placement.dst_pe].local_comm_energy += placement.energy
            continue
        sender_finish = (
            schedule.task_placements[placement.src_task].finish
            if placement.src_task in schedule.task_placements
            else placement.start
        )
        wait = max(0.0, placement.start - sender_finish)
        total_wait += wait
        share = placement.energy / len(placement.links)
        for link in placement.links:
            usage = links.get(link)
            if usage is None:
                usage = links[link] = LinkUsage(link=link)
            usage.busy += placement.duration
            usage.n_transactions += 1
            usage.volume += placement.volume
            usage.energy_share += share
            usage.contention_wait += wait
    for usage in links.values():
        usage.utilization = usage.busy / makespan if makespan > 0 else 0.0

    ready_times = _input_ready_times(schedule)
    slack_rows: List[SlackAudit] = []
    for name in sorted(schedule.task_placements):
        deadline = schedule.ctg.task(name).deadline
        if not math.isfinite(deadline):
            continue
        placement = schedule.task_placements[name]
        ready = ready_times.get(name, 0.0)
        budget = budgets.get(name) if budgets else None
        slack_rows.append(
            SlackAudit(
                task=name,
                deadline=deadline,
                finish=placement.finish,
                budgeted_deadline=budget.budgeted_deadline if budget else None,
                input_ready=ready,
                queue_wait=max(0.0, placement.start - ready),
                execution=placement.duration,
            )
        )

    return UtilizationReport(
        benchmark=schedule.ctg.name,
        algorithm=schedule.algorithm,
        makespan=makespan,
        pes=pes,
        links=sorted(links.values(), key=lambda u: (u.link.src, u.link.dst)),
        slack=slack_rows,
        energy=schedule.energy_breakdown(),
        total_contention_wait=total_wait,
    )


def task_energy_attribution(schedule: "Schedule") -> Dict[str, float]:
    """Exact per-task energy shares: computation + *inbound* comm energy.

    Every transaction's energy is attributed to its receiving task (the
    placement the Fig. 3 pass belongs to), so the shares sum exactly to
    ``schedule.total_energy()`` — the invariant ``repro-noc diff`` uses
    to guarantee its per-task energy deltas tile the total delta.
    """
    shares: Dict[str, float] = {
        name: placement.energy for name, placement in schedule.task_placements.items()
    }
    for (_, dst), comm in schedule.comm_placements.items():
        shares[dst] = shares.get(dst, 0.0) + comm.energy
    return shares


def _input_ready_times(schedule: "Schedule") -> Dict[str, float]:
    """Per task: when its last incoming transaction delivered.

    Tasks with no scheduled inputs are ready at t=0.  The gap between
    this and the task's actual start is PE queueing, not communication.
    """
    ready: Dict[str, float] = {}
    for (_, dst), comm in schedule.comm_placements.items():
        ready[dst] = max(ready.get(dst, 0.0), comm.finish)
    return ready


def _bar(fraction: float, width: int = 10) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"
