"""Degraded-mode rescheduling: salvage the past, re-plan the future.

Given a *committed* schedule and a :class:`~repro.faults.plan.FaultPlan`
striking at time ``t`` (the plan's earliest event), recovery proceeds in
four steps:

1. **Classify** (:func:`classify_salvage`).  A task is *salvaged* when
   it finished at or before ``t`` and its results remain reachable; it
   must *rerun* when it had not finished, or when it ran on a
   now-dead PE and some rerun consumer still needs its output (the data
   is stranded on the dead tile, so the producer is resurrected
   elsewhere).  The rule is a backward fixpoint over the reverse
   topological order.  A transaction is *kept* exactly when its receiver
   is salvaged — a salvaged receiver consumed the data before ``t``, so
   the historical delivery stands even if its producer is resurrected
   for someone else.

2. **Salvage the tables** (:func:`_salvage_tables`).  The committed
   schedule's full resource tables are rebuilt, forked copy-on-write
   (:meth:`ResourceTables.fork`), and the rerun placements plus dropped
   transactions are undone with :meth:`ResourceTables.undo`, the same
   helper the increbuild engine uses.  Transient fault windows are
   then written in as pseudo-reservations on both directions of the
   affected channel, so nothing new is ever scheduled *through* an
   outage.

3. **Re-plan** over the :class:`~repro.faults.degraded.DegradedACG`:
   Step-1 budgets are recomputed on the degraded platform, the
   level-based scheduler re-runs with the salvaged placements pre-seeded
   and every start clamped to ``floor = t``, and search-and-repair
   polishes the result with the salvaged prefix frozen and a
   recovery-aware rebuilder evaluating candidate moves.

4. **Validate** (:func:`validate_recovery`).  The recovery schedule must
   pass the structural validators (completeness, PE and link
   exclusivity) plus the regime-split checks: the salvaged prefix is
   byte-identical to the committed schedule, and everything after ``t``
   references only surviving PEs, routes of the degraded platform, and
   link time outside every transient window.

Soundness of the prefix salvage (DESIGN.md, "Fault model & recovery
soundness"): on a surviving PE the salvaged tasks form a strict temporal
prefix of the PE's order — a salvaged task finished at or before ``t``
while every rerun task on that PE either finished after ``t`` or
(straddling) was still running — so seeding the per-PE orders past the
salvaged prefix and flooring all new work at ``t`` can never interleave
new work with the past.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import obs
from repro.core.eas import EASConfig, LevelBasedScheduler
from repro.core.rebuild import commit_steps
from repro.core.repair import RepairConfig, RepairReport, search_and_repair
from repro.core.slack import compute_budgets
from repro.errors import (
    InfeasibleOrderError,
    ScheduleValidationError,
    SchedulingError,
    UnroutableError,
)
from repro.faults.degraded import DegradedACG
from repro.faults.plan import FaultPlan
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule
from repro.schedule.table import EPS


class UnsurvivableFaultError(SchedulingError):
    """The fault leaves no feasible recovery (dead capability or partition)."""


@dataclass
class RecoveryResult:
    """What recovery produced, with exact deltas against the committed run."""

    plan: FaultPlan
    fault_time: float
    committed: Schedule
    recovery: Schedule
    degraded: DegradedACG
    salvaged: FrozenSet[str]
    rerun: FrozenSet[str]
    kept_comms: FrozenSet[Tuple[str, str]]
    repair_report: Optional[RepairReport] = None

    # -- deltas ----------------------------------------------------------------

    @property
    def remapped(self) -> FrozenSet[str]:
        """Rerun tasks whose recovery PE differs from their committed PE."""
        return frozenset(
            name
            for name in self.rerun
            if self.recovery.placement(name).pe != self.committed.placement(name).pe
        )

    @property
    def misses_before(self) -> int:
        return len(self.committed.deadline_misses())

    @property
    def misses_after(self) -> int:
        return len(self.recovery.deadline_misses())

    @property
    def miss_delta(self) -> int:
        return self.misses_after - self.misses_before

    @property
    def tardiness_delta(self) -> float:
        return self.recovery.total_tardiness() - self.committed.total_tardiness()

    @property
    def energy_delta(self) -> float:
        return self.recovery.total_energy() - self.committed.total_energy()

    @property
    def makespan_delta(self) -> float:
        return self.recovery.makespan() - self.committed.makespan()

    @property
    def survived(self) -> bool:
        """Recovered without making the deadline picture any worse."""
        return self.misses_after <= self.misses_before

    def utilization_deltas(self) -> Dict[str, float]:
        """Attribution via the utilization layer: how the recovery shifted load."""
        from repro.obs.utilization import analyze_schedule

        before = analyze_schedule(self.committed)
        after = analyze_schedule(self.recovery)
        return {
            "peak_pe_utilization": after.peak_pe_utilization - before.peak_pe_utilization,
            "peak_link_utilization": after.peak_link_utilization
            - before.peak_link_utilization,
            "contention_wait": after.total_contention_wait - before.total_contention_wait,
        }

    def describe(self) -> str:
        lines = [
            f"fault: {self.plan.describe()}",
            f"fault time t={self.fault_time:.3f}; salvaged {len(self.salvaged)} task(s), "
            f"rerun {len(self.rerun)} ({len(self.remapped)} remapped), "
            f"kept {len(self.kept_comms)} transaction(s)",
            f"misses   : {self.misses_before} -> {self.misses_after} "
            f"({self.miss_delta:+d})",
            f"tardiness: {self.committed.total_tardiness():.3f} -> "
            f"{self.recovery.total_tardiness():.3f} ({self.tardiness_delta:+.3f})",
            f"energy   : {self.committed.total_energy():.3f} -> "
            f"{self.recovery.total_energy():.3f} nJ ({self.energy_delta:+.3f})",
            f"makespan : {self.committed.makespan():.3f} -> "
            f"{self.recovery.makespan():.3f} ({self.makespan_delta:+.3f})",
            f"verdict  : {'SURVIVED' if self.survived else 'DEGRADED'}",
        ]
        if self.repair_report is not None and self.repair_report.rounds:
            lines.append(f"repair   : {self.repair_report!r}")
        return "\n".join(lines)


# -- classification -------------------------------------------------------------


def classify_salvage(
    committed: Schedule, fault_time: float, dead_pes: FrozenSet[int]
) -> Tuple[Set[str], Set[str]]:
    """Split tasks into (salvaged, rerun) for a fault at ``fault_time``.

    Backward fixpoint over the reverse topological order: a task reruns
    when it had not finished by ``fault_time``, or when it ran on a dead
    PE and any of its successors reruns (its output is stranded on the
    dead tile and must be re-produced).
    """
    ctg = committed.ctg
    rerun: Set[str] = set()
    for name in reversed(ctg.topological_order()):
        placement = committed.placement(name)
        if placement.finish > fault_time + EPS:
            rerun.add(name)
        elif placement.pe in dead_pes and any(
            succ in rerun for succ in ctg.successors(name)
        ):
            rerun.add(name)
    salvaged = set(ctg.task_names()) - rerun
    return salvaged, rerun


def kept_comm_keys(committed: Schedule, salvaged: Set[str]) -> Set[Tuple[str, str]]:
    """Transactions that survive: exactly those whose receiver is salvaged."""
    return {key for key in committed.comm_placements if key[1] in salvaged}


# -- salvaged resource tables ---------------------------------------------------


def _merged_windows(
    windows: Tuple[Tuple[float, float], ...]
) -> List[Tuple[float, float]]:
    """Coalesce overlapping/adjacent windows so reservations never collide."""
    merged: List[List[float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _salvage_tables(
    committed: Schedule,
    salvaged: Set[str],
    kept: Set[Tuple[str, str]],
    plan: FaultPlan,
    use_path_cache: bool = True,
) -> ResourceTables:
    """Resource tables holding exactly the salvaged past plus fault windows.

    Built increbuild-style: full committed tables, a copy-on-write
    :meth:`~repro.schedule.overlay.ResourceTables.fork`, then
    :meth:`~repro.schedule.overlay.ResourceTables.undo` of the rerun
    placements and dropped transactions.  Transient outage windows are
    reserved afterwards on both directions of each affected channel.
    """
    full = ResourceTables(use_path_cache=use_path_cache)
    full.fill(committed.task_placements.values(), committed.comm_placements.values())

    tables = full.fork()
    tables.undo(
        [p for name, p in committed.task_placements.items() if name not in salvaged],
        [c for key, c in committed.comm_placements.items() if key not in kept],
    )

    for link, windows in plan.transient_windows().items():
        for start, end in _merged_windows(windows):
            tables.reserve(link, start, end)
    return tables


# -- recovery -------------------------------------------------------------------


def _recovery_rebuild(
    committed: Schedule,
    degraded: DegradedACG,
    salvaged: Set[str],
    kept: Set[Tuple[str, str]],
    base_tables: ResourceTables,
    mapping: Dict[str, int],
    orders: Dict[int, List[str]],
    floor: float,
) -> Optional[Schedule]:
    """Deterministically rebuild a recovery schedule for (mapping, orders).

    The repair loop's candidate evaluator: the salvaged prefix is
    pre-committed verbatim, the rerun tasks are list-scheduled with the
    same eligibility/probe/commit machinery as a normal rebuild, floored
    at the fault time and routed over the degraded platform.  Returns
    ``None`` for candidates that deadlock or hit a partition (rejected
    moves), mirroring the healthy rebuild contract.
    """
    ctg = committed.ctg
    schedule = Schedule(ctg, degraded, algorithm="recovery")
    placements: Dict[str, TaskPlacement] = {}
    for name in salvaged:
        placement = committed.placement(name)
        placements[name] = placement
        schedule.place_task(placement)
    for key in kept:
        schedule.place_comm(committed.comm_placements[key])

    rerun = [name for name in ctg.task_names() if name not in salvaged]
    unplaced = set(rerun)
    remaining_preds = {
        name: sum(1 for pred in ctg.predecessors(name) if pred in unplaced)
        for name in rerun
    }
    rerun_orders = {
        pe_index: [name for name in order if name in unplaced]
        for pe_index, order in orders.items()
    }
    steps = commit_steps(
        ctg,
        degraded,
        mapping,
        rerun_orders,
        next_slot={pe_index: 0 for pe_index in rerun_orders},
        remaining_preds=remaining_preds,
        unplaced=unplaced,
        placements=placements,
        tables=base_tables.fork(),
        schedule=schedule,
        floor=floor,
    )
    try:
        for _step in steps:
            pass
    except (InfeasibleOrderError, UnroutableError):
        return None
    return schedule


def inject_and_recover(
    committed: Schedule,
    plan: FaultPlan,
    config: Optional[EASConfig] = None,
    validate: bool = True,
) -> RecoveryResult:
    """Apply ``plan`` to a committed schedule and re-plan the survivors.

    Raises:
        UnsurvivableFaultError: some surviving task has no feasible live
            PE, or the partition separates a producer from every
            placement of its consumer — no recovery schedule exists.
        SerializationError: the plan is empty (nothing to inject).
    """
    cfg = config or EASConfig()
    fault_time = plan.fault_time
    ctg = committed.ctg
    ins = obs.get()
    ins.metrics.counter("faults.plans").inc()

    with ins.tracer.span(
        "faults.recover", plan=plan.name, ctg=ctg.name, fault_time=fault_time
    ) as span:
        degraded = DegradedACG(committed.acg, plan)
        salvaged, rerun = classify_salvage(committed, fault_time, degraded.dead_pes)
        kept = kept_comm_keys(committed, salvaged)
        span.set_attribute("salvaged", len(salvaged))
        span.set_attribute("rerun", len(rerun))

        # Capability check up front for a clean unsurvivable verdict.
        for name in sorted(rerun):
            task = ctg.task(name)
            if not any(
                degraded.pe_available(pe.index) and task.cost_on(pe.type_name).feasible
                for pe in degraded.pes
            ):
                ins.metrics.counter("faults.unsurvivable").inc()
                raise UnsurvivableFaultError(
                    f"plan {plan.name!r}: task {name!r} has no surviving feasible PE"
                )

        salvaged_placements = {name: committed.placement(name) for name in salvaged}
        base_tables = _salvage_tables(
            committed, salvaged, kept, plan, use_path_cache=cfg.use_path_cache
        )

        budgets = compute_budgets(
            ctg,
            degraded,
            weight_policy=cfg.weight_policy,
            include_comm=cfg.include_comm_in_slack,
        )
        scheduler = LevelBasedScheduler(
            ctg,
            degraded,
            budgets,
            algorithm_name="recovery",
            contention_aware=cfg.contention_aware,
            use_cache=cfg.use_cache,
            use_path_cache=cfg.use_path_cache,
            preplaced=salvaged_placements,
            tables=base_tables.fork(),
            floor=fault_time,
        )
        try:
            recovery = scheduler.run()
        except SchedulingError as exc:
            # "no feasible PE" here means every candidate was unroutable:
            # the partition separates the task from its placed senders.
            ins.metrics.counter("faults.unsurvivable").inc()
            raise UnsurvivableFaultError(
                f"plan {plan.name!r}: degraded platform is partitioned ({exc})"
            ) from exc
        for name, placement in salvaged_placements.items():
            recovery.place_task(placement)
        for key in kept:
            recovery.place_comm(committed.comm_placements[key])

        repair_report: Optional[RepairReport] = None
        if cfg.repair and recovery.deadline_misses():

            def rebuilder(
                mapping: Dict[str, int], orders: Dict[int, List[str]]
            ) -> Optional[Schedule]:
                return _recovery_rebuild(
                    committed,
                    degraded,
                    salvaged,
                    kept,
                    base_tables,
                    mapping,
                    orders,
                    fault_time,
                )

            recovery, repair_report = search_and_repair(
                recovery,
                RepairConfig(
                    max_rounds=cfg.max_repair_rounds,
                    use_incremental=False,
                    use_path_cache=cfg.use_path_cache,
                    frozen=frozenset(salvaged),
                    rebuilder=rebuilder,
                ),
            )

        if validate:
            validate_recovery(recovery, committed, plan, degraded, salvaged, kept)

        result = RecoveryResult(
            plan=plan,
            fault_time=fault_time,
            committed=committed,
            recovery=recovery,
            degraded=degraded,
            salvaged=frozenset(salvaged),
            rerun=frozenset(rerun),
            kept_comms=frozenset(kept),
            repair_report=repair_report,
        )
        ins.metrics.counter("faults.recovered").inc()
        ins.metrics.counter("faults.salvaged_tasks").inc(len(salvaged))
        ins.metrics.counter("faults.rerun_tasks").inc(len(rerun))
        ins.metrics.counter("faults.remapped_tasks").inc(len(result.remapped))
        span.set_attribute("misses_after", result.misses_after)
        span.set_attribute("survived", result.survived)
    return result


# -- validation -----------------------------------------------------------------


def validate_recovery(
    recovery: Schedule,
    committed: Schedule,
    plan: FaultPlan,
    degraded: DegradedACG,
    salvaged: Set[str],
    kept: Set[Tuple[str, str]],
) -> None:
    """Raise :class:`ScheduleValidationError` on any recovery invariant break.

    On top of the structural validators (completeness, PE exclusivity,
    link exclusivity — :meth:`Schedule.validate_consistency`), the
    regime-split checks:

    * the salvaged prefix and kept transactions are byte-identical to
      the committed schedule;
    * every rerun placement starts at or after the fault time, on an
      available PE;
    * every new transaction starts at or after the fault time, respects
      its sender/receiver dependencies, uses exactly the degraded
      platform's route, and overlaps no transient outage window.
    """
    fault_time = plan.fault_time
    recovery.validate_consistency()

    for name in salvaged:
        if recovery.placement(name) != committed.placement(name):
            raise ScheduleValidationError(
                f"salvaged task {name!r} was altered by recovery"
            )
    for name, placement in recovery.task_placements.items():
        if name in salvaged:
            continue
        if placement.start < fault_time - EPS:
            raise ScheduleValidationError(
                f"rerun task {name!r} starts at {placement.start} before the fault"
            )
        if not degraded.pe_available(placement.pe):
            raise ScheduleValidationError(
                f"rerun task {name!r} placed on dead PE {placement.pe}"
            )

    windows = plan.transient_windows()
    for key, comm in recovery.comm_placements.items():
        if key in kept:
            if comm != committed.comm_placements[key]:
                raise ScheduleValidationError(
                    f"kept transaction {key[0]}->{key[1]} was altered by recovery"
                )
            continue
        src, dst = key
        if comm.start < fault_time - EPS:
            raise ScheduleValidationError(
                f"new transaction {src}->{dst} starts at {comm.start} before the fault"
            )
        sender = recovery.placement(src)
        receiver = recovery.placement(dst)
        if comm.start < sender.finish - EPS:
            raise ScheduleValidationError(
                f"new transaction {src}->{dst} starts before its sender finishes"
            )
        if receiver.start < comm.finish - EPS:
            raise ScheduleValidationError(
                f"rerun task {dst!r} starts before its input from {src!r} arrives"
            )
        route = degraded.route(comm.src_pe, comm.dst_pe)  # raises if dead/cut
        if comm.links != route.links:
            raise ScheduleValidationError(
                f"new transaction {src}->{dst} uses links {comm.links}, "
                f"degraded route is {route.links}"
            )
        if comm.finish > comm.start:
            for link in comm.links:
                for window_start, window_end in windows.get(link, ()):
                    if window_start < comm.finish and comm.start < window_end:
                        raise ScheduleValidationError(
                            f"new transaction {src}->{dst} overlaps outage "
                            f"[{window_start}, {window_end}) on {link}"
                        )
