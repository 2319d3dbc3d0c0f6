"""The schedule explainer behind ``repro-noc explain``.

Turns a committed :class:`~repro.schedule.schedule.Schedule` (plus its
schema-v2 decision provenance, when recorded) into an attribution
report answering the two triage questions a regressed Table-1/2 row or
a changed schedule digest in the end-to-end benchmark raises:

* **"why PE k for task i"** — the Step-2 selection rule that fired
  (rescue / forced / max-regret), the winning F(i,k) component
  breakdown (DRT, earliest start, energy split, hops, BD slack) and
  every losing candidate's score, straight from the
  :data:`~repro.obs.decisions.DECISION_SCHEMA_VERSION` 2 records.
* **"what chain determines the makespan / tardiness"** — the critical
  path: starting from the latest-finishing (or most tardy) task, walk
  backwards through whatever bound each start — the last-arriving input
  transaction, link contention delaying that transaction, or an earlier
  task occupying the PE — producing a chronological chain of ``exec`` /
  ``comm`` / ``link-wait`` / ``pe-wait`` segments whose spans tile the
  makespan of the chain's endpoint.

Energy attribution reuses :mod:`repro.obs.utilization` so the per-task
shares sum exactly to ``schedule.total_energy()``.

:func:`verify_decision_components` is the trust anchor: it replays the
commit sequence on fresh resource tables and recomputes every recorded
candidate's F(i,k) components with the same Fig. 3 machinery the
scheduler used (:mod:`repro.core.placement`) — any divergence between
captured and recomputed numbers (cache replay bugs, schema drift) comes
back as a mismatch string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import UnknownTaskError
from repro.obs.decisions import TaskDecision
from repro.obs.utilization import analyze_schedule, task_energy_attribution
from repro.render import Section, View, cell
from repro.schedule.overlay import ResourceTables
from repro.schedule.table import EPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.acg import ACG
    from repro.ctg.graph import CTG
    from repro.schedule.schedule import Schedule

#: bump when the explain report layout changes incompatibly.
EXPLAIN_SCHEMA_VERSION = 1

#: mismatch tolerance of the independent F(i,k) recompute.
VERIFY_TOLERANCE = 1e-9

#: tasks explained when no ``focus`` is given.
MAX_EXPLAINED_TASKS = 8


# -- critical path ---------------------------------------------------------------


@dataclass(frozen=True)
class CriticalSegment:
    """One link of the chain that determines a task's finish time.

    ``kind`` is ``exec`` (a task runs), ``comm`` (a transaction holds
    its route), ``link-wait`` (a transaction queued behind other
    traffic after its sender finished) or ``pe-wait`` (the task held
    back on its PE, from the finish of the task before it there).
    """

    kind: str
    start: float
    end: float
    task: str = ""
    resource: str = ""
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "task": self.task,
            "resource": self.resource,
            "detail": self.detail,
        }


def pick_target(schedule: "Schedule") -> Optional[str]:
    """The task whose finish the chain should explain.

    The most tardy deadline task when the schedule misses, else the
    makespan-defining task; ties break by name for determinism.
    """
    if not schedule.task_placements:
        return None
    worst: Optional[str] = None
    worst_tardiness = 0.0
    for name in sorted(schedule.task_placements):
        deadline = schedule.ctg.task(name).deadline
        if not math.isfinite(deadline):
            continue
        tardiness = schedule.task_placements[name].finish - deadline
        if tardiness > worst_tardiness + EPS:
            worst, worst_tardiness = name, tardiness
    if worst is not None:
        return worst
    return max(
        sorted(schedule.task_placements),
        key=lambda name: schedule.task_placements[name].finish,
    )


def critical_path(schedule: "Schedule", target: Optional[str] = None) -> List[CriticalSegment]:
    """The deadline-driving chain ending at ``target``, oldest first.

    Walks backwards from ``target`` (default: :func:`pick_target`): a
    task's start is bound either by its last-arriving input transaction
    (follow the transaction, charging link contention separately from
    transfer time, then continue from the sender) or by the previous
    task occupying its PE (charge a ``pe-wait`` from the blocker's
    finish and continue from the blocker).  The walk ends at a task
    that starts the moment it could.  The segments tile: each starts
    where the one before it ends, so their durations sum to at most the
    target's finish.
    """
    target = target if target is not None else pick_target(schedule)
    if target is None:
        return []
    placements = schedule.task_placements
    # Latest finisher per PE *before* a given start, for pe-wait blame.
    by_pe: Dict[int, List[Tuple[float, str]]] = {}
    for name, placement in placements.items():
        by_pe.setdefault(placement.pe, []).append((placement.finish, name))
    for rows in by_pe.values():
        rows.sort()

    segments: List[CriticalSegment] = []
    current = target
    visited = set()
    while current is not None and current not in visited:
        visited.add(current)
        placement = placements[current]
        segments.append(
            CriticalSegment(
                kind="exec",
                start=placement.start,
                end=placement.finish,
                task=current,
                resource=f"PE{placement.pe}",
            )
        )
        incoming = [
            schedule.comm_placements[(edge.src, current)]
            for edge in schedule.ctg.in_edges(current)
            if (edge.src, current) in schedule.comm_placements
        ]
        ready = max((c.finish for c in incoming), default=0.0)
        if placement.start > ready + EPS:
            # Inputs were ready earlier: the PE was busy.  Blame the
            # task on this PE finishing last at or before our start.
            blocker = None
            for finish, name in reversed(by_pe.get(placement.pe, [])):
                if name != current and finish <= placement.start + EPS:
                    blocker = (finish, name)
                    break
            if blocker is None:
                break  # start imposed by nothing visible (t=0 sources)
            segments.append(
                CriticalSegment(
                    kind="pe-wait",
                    start=blocker[0],
                    end=placement.start,
                    task=current,
                    resource=f"PE{placement.pe}",
                    detail=f"queued behind {blocker[1]}",
                )
            )
            current = blocker[1]
            continue
        if not incoming:
            break  # a source task starting as early as it could
        binding = max(incoming, key=lambda c: (c.finish, c.src_task))
        route = "->".join(
            [f"PE{binding.src_pe}", f"PE{binding.dst_pe}"]
        )
        if binding.finish > binding.start + EPS:
            segments.append(
                CriticalSegment(
                    kind="comm",
                    start=binding.start,
                    end=binding.finish,
                    task=f"{binding.src_task}->{binding.dst_task}",
                    resource=route,
                    detail=f"{len(binding.links)} hop(s)",
                )
            )
        sender = placements[binding.src_task]
        if binding.start > sender.finish + EPS:
            segments.append(
                CriticalSegment(
                    kind="link-wait",
                    start=sender.finish,
                    end=binding.start,
                    task=f"{binding.src_task}->{binding.dst_task}",
                    resource=route,
                    detail="route busy with other traffic",
                )
            )
        current = binding.src_task
    segments.reverse()
    return segments


# -- per-task explanations --------------------------------------------------------


@dataclass
class TaskExplanation:
    """Everything known about why one task landed where it did."""

    task: str
    pe: int
    start: float
    finish: float
    deadline: float
    energy_share: float
    decision: Optional[TaskDecision] = None

    @property
    def slack(self) -> float:
        return self.deadline - self.finish

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "pe": self.pe,
            "start": self.start,
            "finish": self.finish,
            "deadline": self.deadline if math.isfinite(self.deadline) else None,
            "slack": self.slack if math.isfinite(self.slack) else None,
            "energy_share": self.energy_share,
            "decision": self.decision.to_dict() if self.decision is not None else None,
        }


# -- the report ------------------------------------------------------------------


@dataclass
class ExplainReport:
    """The full explanation of one schedule."""

    benchmark: str
    algorithm: str
    makespan: float
    total_energy: float
    misses: List[str]
    tardiness: float
    target: Optional[str]
    path: List[CriticalSegment]
    explanations: List[TaskExplanation]
    energy: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "algorithm": self.algorithm,
            "makespan": self.makespan,
            "total_energy": self.total_energy,
            "misses": list(self.misses),
            "tardiness": self.tardiness,
            "target": self.target,
            "critical_path": [s.to_dict() for s in self.path],
            "tasks": [e.to_dict() for e in self.explanations],
            "energy": dict(self.energy),
        }


#: the candidate table's columns after ``PE``: header, the
#: :class:`~repro.obs.decisions.Candidate` field, and its format.
_CANDIDATE_COLUMNS = [
    ("F", "finish", "{:.4g}"),
    ("start", "start", "{:.4g}"),
    ("drt", "drt", "{:.4g}"),
    ("E", "energy", "{:.4g}"),
    ("comp", "compute_energy", "{:.4g}"),
    ("comm", "comm_energy", "{:.4g}"),
    ("hops", "hops", "{}"),
    ("bd-slack", "slack", "{:+.4g}"),
]


def explain_view(report: ExplainReport) -> View:
    """The sections of ``report``; the JSON document is its dict."""
    headline = (
        f"{report.benchmark} [{report.algorithm}]: makespan {report.makespan:g}, "
        f"energy {report.total_energy:.1f} nJ, misses {len(report.misses)}"
        + (f" (tardiness {report.tardiness:g})" if report.misses else "")
    )
    drives = "tardiness of " if report.misses else "makespan via "
    split = []
    if report.path:
        exec_t = sum(s.duration for s in report.path if s.kind == "exec")
        comm_t = sum(s.duration for s in report.path if s.kind == "comm")
        waits = sum(s.duration for s in report.path if s.kind.endswith("wait"))
        split = [f"chain split: exec {exec_t:.1f}, comm {comm_t:.1f}, waits {waits:.1f}"]
    path = [
        [f"{s.start:.8g}", f"{s.end:.8g}", s.kind, s.task, s.resource, s.detail or "-"]
        for s in report.path
    ]
    tasks = [
        [
            e.task,
            f"PE{e.pe}",
            f"{e.start:g}",
            f"{e.finish:g}",
            f"{e.deadline:g}" if math.isfinite(e.deadline) else "-",
            f"{e.slack:+g}" if math.isfinite(e.deadline) else "-",
            f"{e.energy_share:.1f}",
        ]
        for e in report.explanations
    ]
    bare = [e.task for e in report.explanations if e.decision is None]
    sections = [
        Section(lines=[headline]),
        Section(
            f"critical path (drives {drives}{report.target})",
            split,
            [["start", "end", "kind", "what", "resource", "detail"], *path],
            empty="(empty schedule)",
        ),
        Section(
            "task decisions",
            [f"no decision provenance recorded for {', '.join(bare)}"] if bare else [],
            [["task", "PE", "start", "finish", "deadline", "slack", "energy share (nJ)"], *tasks],
            empty="(no tasks selected)",
        ),
    ]
    sections += [_candidates_section(e.decision) for e in report.explanations if e.decision]
    return View(f"Explain: {report.benchmark} [{report.algorithm}]", sections, report.to_dict())


def _candidates_section(decision: TaskDecision) -> Section:
    """Why ``decision`` chose its PE: the rule, then every scored candidate."""
    rows = [("chosen", decision.chosen)] if decision.chosen is not None else []
    rows += [("beaten", candidate) for candidate in decision.candidates]
    table = [["", "PE", *(header for header, _, _ in _CANDIDATE_COLUMNS)]]
    table += [
        [tag, f"PE{c.pe}", *(cell(getattr(c, name), spec) for _, name, spec in _CANDIDATE_COLUMNS)]
        for tag, c in rows
    ]
    return Section(f"{decision.task} candidates", [decision.describe()], table)


def explain_schedule(
    schedule: "Schedule",
    focus: Optional[str] = None,
) -> ExplainReport:
    """Build the explanation report for ``schedule``.

    ``focus`` restricts the per-task section to one task (and anchors
    the critical path at it); otherwise the :data:`MAX_EXPLAINED_TASKS`
    tightest-slack deadline tasks are explained, critical-path tasks first.
    """
    if focus is not None and focus not in schedule.task_placements:
        raise UnknownTaskError(f"task {focus!r} is not scheduled")
    target = focus if focus is not None else pick_target(schedule)
    path = critical_path(schedule, target=target)
    decisions = {d.task: d for d in schedule.provenance}
    shares = task_energy_attribution(schedule)

    if focus is not None:
        wanted = [focus]
    else:
        on_path = [s.task for s in path if s.kind == "exec"]
        deadline_tasks = sorted(
            (
                name
                for name in schedule.task_placements
                if math.isfinite(schedule.ctg.task(name).deadline)
            ),
            key=lambda name: (
                schedule.ctg.task(name).deadline
                - schedule.task_placements[name].finish,
                name,
            ),
        )
        wanted = list(dict.fromkeys(on_path + deadline_tasks))[:MAX_EXPLAINED_TASKS]

    explanations = []
    for name in wanted:
        placement = schedule.task_placements[name]
        explanations.append(
            TaskExplanation(
                task=name,
                pe=placement.pe,
                start=placement.start,
                finish=placement.finish,
                deadline=schedule.ctg.task(name).deadline,
                energy_share=shares.get(name, 0.0),
                decision=decisions.get(name),
            )
        )
    return ExplainReport(
        benchmark=schedule.ctg.name,
        algorithm=schedule.algorithm,
        makespan=schedule.makespan(),
        total_energy=schedule.total_energy(),
        misses=schedule.deadline_misses(),
        tardiness=schedule.total_tardiness(),
        target=target,
        path=path,
        explanations=explanations,
        energy=analyze_schedule(schedule).energy,
    )


# -- independent recompute -------------------------------------------------------


def verify_decision_components(
    ctg: "CTG",
    acg: "ACG",
    decisions: List[TaskDecision],
    contention_aware: bool = True,
) -> List[str]:
    """Recompute every decision's F(i,k) components from scratch.

    Replays the commit sequence on fresh resource tables (the naive,
    cache-free reference path) and, *before* each commit, re-evaluates
    the recorded candidates — chosen and beaten — with the same Fig. 3
    machinery.  It also probes every available PE the record leaves
    out: one that can run the task and is reachable from its senders
    is a missing candidate.  Returns one human-readable string per
    mismatching component or missing candidate; an empty list
    certifies the captured breakdown exact and complete.
    """
    from repro.core.placement import commit, probe
    from repro.schedule.entries import TaskPlacement

    mismatches: List[str] = []
    tables = ResourceTables()
    placements: Dict[str, TaskPlacement] = {}
    for decision in decisions:
        recorded = list(decision.candidates)
        if decision.chosen is not None:
            recorded.append(decision.chosen)
        for candidate in recorded:
            evaluation = probe(
                ctg,
                acg,
                decision.task,
                candidate.pe,
                tables,
                placements,
                contention_aware=contention_aware,
            )
            if evaluation is None:
                mismatches.append(
                    f"{decision.task}@PE{candidate.pe}: recorded an infeasible PE"
                )
                continue
            expected = evaluation.candidate()
            for key in ("start", "drt", "finish", "energy", "compute_energy", "comm_energy"):
                captured = getattr(candidate, key)
                if captured is None:
                    continue
                value = getattr(expected, key)
                if abs(captured - value) > VERIFY_TOLERANCE:
                    mismatches.append(
                        f"{decision.task}@PE{candidate.pe}: {key} captured "
                        f"{captured!r} != recomputed {value!r}"
                    )
            if candidate.hops is not None and candidate.hops != expected.hops:
                mismatches.append(
                    f"{decision.task}@PE{candidate.pe}: hops captured "
                    f"{candidate.hops} != recomputed {expected.hops}"
                )
        listed = {candidate.pe for candidate in recorded}
        listed.add(decision.pe)
        for pe in acg.pes:
            if pe.index in listed or not acg.pe_available(pe.index):
                continue
            missing = probe(
                ctg,
                acg,
                decision.task,
                pe.index,
                tables,
                placements,
                contention_aware=contention_aware,
            )
            if missing is not None:
                mismatches.append(
                    f"{decision.task}@PE{pe.index}: feasible candidate missing from the record"
                )
        # Commit the chosen placement exactly as the scheduler did.
        evaluation = probe(
            ctg,
            acg,
            decision.task,
            decision.pe,
            tables,
            placements,
            contention_aware=contention_aware,
        )
        if evaluation is None:
            mismatches.append(f"{decision.task}: committed to an infeasible PE{decision.pe}")
            return mismatches
        start = commit(evaluation, tables, placements, None).start
        if abs(start - decision.start) > VERIFY_TOLERANCE:
            mismatches.append(
                f"{decision.task}: committed start {decision.start!r} != "
                f"replayed {start!r}"
            )
    return mismatches
