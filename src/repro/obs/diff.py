"""Differential run diagnostics behind ``repro-noc diff``.

Given two schedules of the *same* CTG/platform pair — two presets, two
seeds, two code revisions — produce a deterministic delta report that
answers "what actually changed and which change caused the rest":

* **per-task moves** — placement (PE), start-time and energy shifts,
  each classified **root-cause** (every predecessor kept its placement
  and start, so the change originates in this task's own selection) or
  **cascade** (an input moved first; this task merely inherited the
  perturbation).  When both sides carry schema-v2 decision provenance
  the report also says *how* the selection differed (rule flags, the
  winning F(i,k) components).
* **exact attributions** — per-task energy shares (via
  :func:`repro.obs.utilization.task_energy_attribution`) and per-task
  tardiness, whose deltas sum *exactly* (±1e-9, modulo float identity:
  they are sums over the same placement floats) to the headline
  total-energy and total-tardiness deltas.
* **run-ledger deltas** — when both runs were recorded in
  ``RUN_LEDGER.jsonl``, wall-clock per phase and counter values are
  diffed too (:func:`run_delta`).

Everything is sorted by task/key name, so two invocations over the same
inputs render byte-identical output — the property the CI smoke step
pins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import InvalidArgumentError
from repro.obs.decisions import TaskDecision
from repro.obs.utilization import task_energy_attribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedule.schedule import Schedule

#: bump when the diff report layout changes incompatibly.
DIFF_SCHEMA_VERSION = 1

#: start/finish shifts below this are treated as "did not move".
MOVE_TOLERANCE = 1e-9

#: moved tasks listed by the text and markdown formats.
MAX_LISTED_MOVES = 40


@dataclass(frozen=True)
class TaskMove:
    """One task whose placement differs between the two schedules."""

    task: str
    pe_a: int
    pe_b: int
    start_a: float
    start_b: float
    finish_a: float
    finish_b: float
    energy_a: float
    energy_b: float
    cause: str  # "root-cause" | "cascade"
    reason: str = ""

    @property
    def moved_pe(self) -> bool:
        return self.pe_a != self.pe_b

    @property
    def start_delta(self) -> float:
        return self.start_b - self.start_a

    @property
    def energy_delta(self) -> float:
        return self.energy_b - self.energy_a

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "pe": [self.pe_a, self.pe_b],
            "start": [self.start_a, self.start_b],
            "finish": [self.finish_a, self.finish_b],
            "energy": [self.energy_a, self.energy_b],
            "cause": self.cause,
            "reason": self.reason,
        }

    def describe(self) -> str:
        what = (
            f"PE{self.pe_a} -> PE{self.pe_b}"
            if self.moved_pe
            else f"stays PE{self.pe_a}"
        )
        return (
            f"{self.task:<20} {what:<18} start {self.start_a:g} -> {self.start_b:g} "
            f"({self.start_delta:+g})  dE {self.energy_delta:+.2f} nJ  "
            f"[{self.cause}]" + (f" {self.reason}" if self.reason else "")
        )


@dataclass
class ScheduleDiff:
    """The structured delta between schedules ``a`` and ``b``."""

    benchmark: str
    label_a: str
    label_b: str
    makespan: List[float]
    total_energy: List[float]
    tardiness: List[float]
    misses: List[List[str]]
    moves: List[TaskMove] = field(default_factory=list)
    #: per-task energy deltas (b - a); sums exactly to the energy delta.
    energy_by_task: Dict[str, float] = field(default_factory=dict)
    #: per-task tardiness deltas (b - a); sums exactly to the tardiness delta.
    tardiness_by_task: Dict[str, float] = field(default_factory=dict)

    @property
    def makespan_delta(self) -> float:
        return self.makespan[1] - self.makespan[0]

    @property
    def energy_delta(self) -> float:
        return self.total_energy[1] - self.total_energy[0]

    @property
    def tardiness_delta(self) -> float:
        return self.tardiness[1] - self.tardiness[0]

    def root_causes(self) -> List[TaskMove]:
        return [m for m in self.moves if m.cause == "root-cause"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": DIFF_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "a": self.label_a,
            "b": self.label_b,
            "makespan": list(self.makespan),
            "makespan_delta": self.makespan_delta,
            "total_energy": list(self.total_energy),
            "energy_delta": self.energy_delta,
            "tardiness": list(self.tardiness),
            "tardiness_delta": self.tardiness_delta,
            "misses": [list(self.misses[0]), list(self.misses[1])],
            "moves": [m.to_dict() for m in self.moves],
            "energy_by_task": dict(sorted(self.energy_by_task.items())),
            "tardiness_by_task": dict(sorted(self.tardiness_by_task.items())),
        }


def diff_schedules(
    a: "Schedule",
    b: "Schedule",
    label_a: str = "A",
    label_b: str = "B",
) -> ScheduleDiff:
    """Diff two schedules of the same benchmark.

    Raises:
        InvalidArgumentError: the schedules describe different CTGs or
            platforms — per-task deltas would be meaningless.
    """
    if a.ctg.name != b.ctg.name:
        raise InvalidArgumentError(
            f"cannot diff schedules of different CTGs: {a.ctg.name!r} vs {b.ctg.name!r}"
        )
    if a.acg.n_pes != b.acg.n_pes:
        raise InvalidArgumentError(
            f"cannot diff schedules on different platforms: "
            f"{a.acg.n_pes} vs {b.acg.n_pes} PEs"
        )

    shares_a = task_energy_attribution(a)
    shares_b = task_energy_attribution(b)
    energy_by_task = {
        name: shares_b.get(name, 0.0) - shares_a.get(name, 0.0)
        for name in sorted(set(shares_a) | set(shares_b))
        if shares_b.get(name, 0.0) != shares_a.get(name, 0.0)
    }
    tardiness_by_task: Dict[str, float] = {}
    for name in sorted(set(a.task_placements) & set(b.task_placements)):
        deadline = a.ctg.task(name).deadline
        if not math.isfinite(deadline):
            continue
        t_a = max(0.0, a.task_placements[name].finish - deadline)
        t_b = max(0.0, b.task_placements[name].finish - deadline)
        if t_a != t_b:
            tardiness_by_task[name] = t_b - t_a

    decisions_a = {d.task: d for d in a.provenance}
    decisions_b = {d.task: d for d in b.provenance}
    moved: Dict[str, bool] = {}
    moves: List[TaskMove] = []
    # Topological-ish pass: classify in level order so predecessors are
    # classified first.  Sorting by (start_a, name) is enough because a
    # predecessor always starts before its consumer in schedule A.
    common = sorted(
        set(a.task_placements) & set(b.task_placements),
        key=lambda name: (a.task_placements[name].start, name),
    )
    for name in common:
        pa, pb = a.task_placements[name], b.task_placements[name]
        changed = (
            pa.pe != pb.pe
            or abs(pa.start - pb.start) > MOVE_TOLERANCE
            or abs(pa.finish - pb.finish) > MOVE_TOLERANCE
        )
        moved[name] = changed
        if not changed:
            continue
        upstream = sorted(
            edge.src for edge in a.ctg.in_edges(name) if moved.get(edge.src)
        )
        if upstream:
            cause = "cascade"
            reason = f"inherited from {', '.join(upstream)}"
        else:
            cause = "root-cause"
            reason = _selection_delta(decisions_a.get(name), decisions_b.get(name))
        moves.append(
            TaskMove(
                task=name,
                pe_a=pa.pe,
                pe_b=pb.pe,
                start_a=pa.start,
                start_b=pb.start,
                finish_a=pa.finish,
                finish_b=pb.finish,
                energy_a=shares_a.get(name, 0.0),
                energy_b=shares_b.get(name, 0.0),
                cause=cause,
                reason=reason,
            )
        )
    moves.sort(key=lambda m: (m.cause != "root-cause", m.task))

    return ScheduleDiff(
        benchmark=a.ctg.name,
        label_a=label_a,
        label_b=label_b,
        makespan=[a.makespan(), b.makespan()],
        total_energy=[a.total_energy(), b.total_energy()],
        tardiness=[a.total_tardiness(), b.total_tardiness()],
        misses=[a.deadline_misses(), b.deadline_misses()],
        moves=moves,
        energy_by_task=energy_by_task,
        tardiness_by_task=tardiness_by_task,
    )


def _selection_delta(
    da: Optional[TaskDecision], db: Optional[TaskDecision]
) -> str:
    """Explain why the selections differ, from schema-v2 provenance."""
    if da is None or db is None:
        return "no provenance on one side"
    bits = []
    if da.algorithm != db.algorithm:
        bits.append(f"algorithm {da.algorithm} -> {db.algorithm}")
    if da.rescue != db.rescue:
        bits.append(f"rescue {da.rescue} -> {db.rescue}")
    if da.regret != db.regret:
        fa = "-" if da.regret is None else f"{da.regret:g}"
        fb = "-" if db.regret is None else f"{db.regret:g}"
        bits.append(f"regret {fa} -> {fb}")
    ca, cb = da.chosen, db.chosen
    if ca is not None and cb is not None:
        if ca.energy is not None and cb.energy is not None and ca.energy != cb.energy:
            bits.append(f"winner E {ca.energy:g} -> {cb.energy:g}")
        if ca.finish is not None and cb.finish is not None and ca.finish != cb.finish:
            bits.append(f"winner F {ca.finish:g} -> {cb.finish:g}")
    return "; ".join(bits) if bits else "same rule, different resource state"


# -- ledger record deltas --------------------------------------------------------


@dataclass
class RunDelta:
    """Wall/counter deltas between two ledger run groups."""

    run_a: str
    run_b: str
    phase_walls: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    counters: Dict[str, List[Optional[float]]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "phase_walls": {k: list(v) for k, v in sorted(self.phase_walls.items())},
            "counters": {k: list(v) for k, v in sorted(self.counters.items())},
        }


def _collect_run(records: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    phases: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for record in records:
        kind = record.get("type")
        if kind == "phase":
            name = str(record.get("tag") or record.get("name", ""))
            wall = record.get("runtime_seconds", record.get("seconds"))
            if isinstance(wall, (int, float)):
                phases[name] = phases.get(name, 0.0) + float(wall)
        if kind in ("run_finished", "run_failed"):
            if isinstance(record.get("wall_seconds"), (int, float)):
                phases["(total wall)"] = float(record["wall_seconds"])
            # The terminal counter snapshot (``metrics``) is cumulative: it wins.
            snapshot = record.get("metrics")
            if isinstance(snapshot, Mapping):
                counters = {
                    str(key): float(value)
                    for key, value in snapshot.items()
                    if isinstance(value, (int, float))
                }
    return {"phases": phases, "counters": counters}


def run_delta(
    run_a: str,
    records_a: Sequence[Mapping[str, Any]],
    run_b: str,
    records_b: Sequence[Mapping[str, Any]],
) -> RunDelta:
    """Diff the telemetry of two ledger run groups.

    Each side is the record list of one ``run_id`` (as produced by
    :func:`repro.obs.ledger.group_runs`).  Missing-on-one-side entries
    keep ``None`` in that slot.
    """
    a = _collect_run(records_a)
    b = _collect_run(records_b)
    delta = RunDelta(run_a=run_a, run_b=run_b)
    for key in sorted(set(a["phases"]) | set(b["phases"])):
        delta.phase_walls[key] = [a["phases"].get(key), b["phases"].get(key)]
    for key in sorted(set(a["counters"]) | set(b["counters"])):
        delta.counters[key] = [a["counters"].get(key), b["counters"].get(key)]
    return delta


# -- rendering -------------------------------------------------------------------


def _fmt_pair(pair: Sequence[Optional[float]], unit: str = "") -> str:
    def one(v: Optional[float]) -> str:
        return "-" if v is None else f"{v:g}"

    delta = ""
    if pair[0] is not None and pair[1] is not None:
        delta = f" ({pair[1] - pair[0]:+g}{unit})"
    return f"{one(pair[0])} -> {one(pair[1])}{unit}{delta}"


def format_diff(
    diff: ScheduleDiff,
    fmt: str = "text",
    runs: Optional[RunDelta] = None,
) -> str:
    """Render a :class:`ScheduleDiff` (+ optional ledger delta)."""
    if fmt == "json":
        document = diff.to_dict()
        if runs is not None:
            document["runs"] = runs.to_dict()
        return json.dumps(document, indent=1, allow_nan=False, default=str)
    if fmt not in ("text", "markdown"):
        raise ValueError(f"unknown diff format {fmt!r}")
    md = fmt == "markdown"

    lines: List[str] = []
    title = f"Diff: {diff.benchmark}  {diff.label_a} vs {diff.label_b}"
    lines.append(f"# {title}" if md else title)
    lines.append("")
    headline = [
        ("makespan", diff.makespan, ""),
        ("energy", diff.total_energy, " nJ"),
        ("tardiness", diff.tardiness, ""),
    ]
    for name, pair, unit in headline:
        lines.append(f"{'- ' if md else '  '}{name:<10} {_fmt_pair(pair, unit)}")
    lines.append(
        f"{'- ' if md else '  '}misses     "
        f"{len(diff.misses[0])} -> {len(diff.misses[1])}"
    )
    gained = sorted(set(diff.misses[1]) - set(diff.misses[0]))
    fixed = sorted(set(diff.misses[0]) - set(diff.misses[1]))
    if gained:
        lines.append(f"{'- ' if md else '  '}new misses: {', '.join(gained)}")
    if fixed:
        lines.append(f"{'- ' if md else '  '}fixed misses: {', '.join(fixed)}")
    lines.append("")

    n_root = len(diff.root_causes())
    header = (
        f"moved tasks: {len(diff.moves)} "
        f"({n_root} root-cause, {len(diff.moves) - n_root} cascade)"
    )
    lines.append(f"## {header}" if md else f"== {header} ==")
    if md and diff.moves:
        lines.append("")
        lines.append("| task | placement | start | dE (nJ) | cause |")
        lines.append("|---|---|---|---|---|")
        for move in diff.moves[:MAX_LISTED_MOVES]:
            what = (
                f"PE{move.pe_a} -> PE{move.pe_b}"
                if move.moved_pe
                else f"PE{move.pe_a}"
            )
            cause = move.cause + (f": {move.reason}" if move.reason else "")
            lines.append(
                f"| {move.task} | {what} | {move.start_a:g} -> {move.start_b:g} "
                f"| {move.energy_delta:+.2f} | {cause} |"
            )
    else:
        for move in diff.moves[:MAX_LISTED_MOVES]:
            lines.append("  " + move.describe())
    if len(diff.moves) > MAX_LISTED_MOVES:
        lines.append(f"  ... {len(diff.moves) - MAX_LISTED_MOVES} more")
    lines.append("")

    if diff.energy_by_task:
        top = sorted(
            diff.energy_by_task.items(), key=lambda kv: (-abs(kv[1]), kv[0])
        )[:10]
        header = "energy delta by task (top contributors)"
        lines.append(f"## {header}" if md else f"== {header} ==")
        for name, value in top:
            lines.append(f"  {name:<20} {value:+10.2f} nJ")
        lines.append(f"  {'(sums to)':<20} {diff.energy_delta:+10.2f} nJ")
        lines.append("")
    if diff.tardiness_by_task:
        header = "tardiness delta by task"
        lines.append(f"## {header}" if md else f"== {header} ==")
        for name, value in sorted(diff.tardiness_by_task.items()):
            lines.append(f"  {name:<20} {value:+10.2f}")
        lines.append(f"  {'(sums to)':<20} {diff.tardiness_delta:+10.2f}")
        lines.append("")

    if runs is not None:
        header = f"run telemetry {runs.run_a} vs {runs.run_b}"
        lines.append(f"## {header}" if md else f"== {header} ==")
        for name, pair in sorted(runs.phase_walls.items()):
            lines.append(f"  phase {name:<24} {_fmt_pair(pair, 's')}")
        for name, pair in sorted(runs.counters.items()):
            lines.append(f"  count {name:<24} {_fmt_pair(pair)}")
        lines.append("")

    if not diff.moves:
        lines.append("  schedules are identical at the placement level")
    return "\n".join(lines).rstrip() + "\n"
