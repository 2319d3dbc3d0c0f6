"""Incremental rebuild engine for Step-3 repair (dirty-cone replay).

Every LTS swap and GTM migration candidate used to call
:func:`~repro.core.rebuild.rebuild_schedule`, which list-schedules *all*
tasks and replays *all* communication transactions from empty resource
tables — ``O(moves x full rebuild)``, the cost the paper's own Sec. 6.1
runtime numbers are dominated by.  This engine evaluates a candidate
move against the *delta* it induces instead:

1. **Perturbation frontier.**  The incumbent's rebuild is summarised by
   its *commit trace* (the deterministic sequence of
   :class:`~repro.core.rebuild.CommitStep` records).  A candidate move
   touches at most two PE orders and one mapping entry, so the
   candidate's own full rebuild provably follows the incumbent's trace
   step for step until the first iteration where the move can matter:
   the first step whose eligible-task set differs between the incumbent
   and candidate order tables, or where a remapped task becomes
   eligible.  Finding that frontier needs **no probing** — eligibility
   is pure precedence/order bookkeeping — and only the changed PEs have
   to be inspected per step.

2. **Clean-prefix fork.**  The state at the frontier is materialised by
   :meth:`~repro.schedule.overlay.ResourceTables.fork`-ing the
   incumbent's committed tables copy-on-write and *undoing* the
   reservations of the post-frontier commits (the dirty cone), via
   :meth:`~repro.schedule.table.ScheduleTable.truncate_from` when they
   form the tail of a resource's busy list and exact-match releases
   otherwise.  Undo work is proportional to the dirty cone, not the
   prefix, so small perturbations near the end of the schedule — the
   common case, since repair targets late critical tasks — cost almost
   nothing.

3. **Dirty-cone replay.**  From the frontier the engine resumes the
   very list-scheduling loop ``rebuild_schedule`` runs
   (:func:`~repro.core.rebuild.commit_steps`), so the result is
   float-exact identical to a from-scratch rebuild — the equivalence the
   randomized harness in ``tests/test_increbuild.py`` byte-compares via
   serialization v2.

4. **Early-abort bounding.**  Misses and tardiness only grow as more
   tasks are committed, so the running ``(misses, tardiness)`` over the
   committed prefix+cone is a lower bound on the candidate's final
   metric.  The moment the bound stops being strictly better than the
   incumbent's metric, the candidate provably cannot be accepted and
   the replay stops.

5. **Rejected-move memoization.**  Candidates are keyed by their
   ``(mapping-delta, order-delta)`` against the incumbent; a candidate
   rejected once is never re-rebuilt against the same incumbent (the
   GTM relief sweep re-proposes many energy-sweep candidates
   verbatim).  The memo is cleared whenever a move is accepted.

Soundness arguments are spelled out in DESIGN.md ("Incremental repair
correctness"); ``RepairConfig.use_incremental`` (CLI
``--no-incremental-repair``) keeps the paper-literal full-rebuild path
as the reference implementation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.core.rebuild import (
    CommitStep,
    commit_steps,
    probe_mapped,
    rebuild_schedule,
    rebuild_schedule_traced,
)
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule
from repro.schedule.table import EPS
from repro.schedule.serialization import schedule_to_json

MissMetric = Tuple[int, float]

#: (mapping-delta, order-delta) of a candidate against the incumbent.
MoveSignature = Tuple[
    Tuple[Tuple[str, int], ...], Tuple[Tuple[int, Tuple[str, ...]], ...]
]


def _schedule_metric(schedule: Schedule) -> MissMetric:
    """(misses, tardiness) — local twin of ``repair.miss_metric``.

    Recomputed here (not imported) because ``repro.core.repair`` imports
    this module.
    """
    return (len(schedule.deadline_misses()), schedule.total_tardiness())


class IncrementalRebuilder:
    """Evaluates candidate (mapping, orders) moves against one incumbent.

    The repair loop owns exactly one instance; :meth:`evaluate` answers
    each candidate with the schedule a full rebuild would have produced
    (or ``None`` when the candidate is infeasible, memo-rejected, or
    provably unable to beat the incumbent), and :meth:`promote` adopts
    the last winning candidate as the new incumbent.

    ``memoize`` exists so the equivalence harness can exercise the
    pure prefix-replay path; ``selfcheck`` cross-checks
    every evaluation against a from-scratch rebuild (byte-comparing the
    v2 serialization) and turns any divergence into an assertion — the
    debug mode the randomized corpus runs under.
    """

    def __init__(
        self,
        ctg: CTG,
        acg: ACG,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        algorithm: str = "rebuild",
        memoize: bool = True,
        selfcheck: bool = False,
        use_path_cache: bool = True,
    ) -> None:
        self.ctg = ctg
        self.acg = acg
        self.algorithm = algorithm
        self.memoize = memoize
        self.selfcheck = selfcheck
        self.use_path_cache = use_path_cache
        self._in_degree: Dict[str, int] = {
            name: ctg.in_degree(name) for name in ctg.task_names()
        }
        self._task_names: List[str] = ctg.task_names()
        self._mapping0: Dict[str, int] = dict(mapping)
        self._orders0: Dict[int, List[str]] = {
            pe: list(names) for pe, names in orders.items()
        }
        self._trace: Optional[List[CommitStep]] = None
        self._final_tables: Optional[ResourceTables] = None
        self._cum_bound: List[MissMetric] = []
        self._memo: Set[MoveSignature] = set()
        self._last: Optional[Tuple[Dict[str, int], Dict[int, List[str]], List[CommitStep], ResourceTables]] = None
        metrics = obs.get().metrics
        self._replayed_counter = metrics.counter("repair.replayed_tasks")
        self._prefix_counter = metrics.counter("repair.prefix_reused_tasks")
        self._abort_counter = metrics.counter("repair.incremental_aborts")
        self._memo_counter = metrics.counter("repair.memo_skips")
        self._candidate_counter = metrics.counter("repair.incremental_candidates")
        self._probe_counter = metrics.counter("repair.frontier_probes")

    # -- incumbent bookkeeping ------------------------------------------------

    def _ensure_incumbent(self) -> None:
        """Record the incumbent's commit trace (one traced full rebuild).

        Amortized over the hundreds of candidates a repair run probes;
        accepted candidates hand their own trace over via
        :meth:`promote`, so this runs once per ``search_and_repair``.
        """
        if self._trace is not None:
            return
        _schedule, trace = rebuild_schedule_traced(
            self.ctg,
            self.acg,
            self._mapping0,
            self._orders0,
            algorithm=self.algorithm,
            use_path_cache=self.use_path_cache,
        )
        tables = ResourceTables(use_path_cache=self.use_path_cache)
        tables.fill(
            [step.placement for step in trace], [comm for step in trace for comm in step.comms]
        )
        self._adopt(self._mapping0, self._orders0, trace, tables)

    def _adopt(
        self,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        trace: List[CommitStep],
        tables: ResourceTables,
    ) -> None:
        self._mapping0 = dict(mapping)
        self._orders0 = {pe: list(names) for pe, names in orders.items()}
        self._trace = trace
        self._final_tables = tables
        self._cum_bound = self._bounds_of(trace)
        self._memo.clear()
        self._last = None

    def _bounds_of(self, trace: Sequence[CommitStep]) -> List[MissMetric]:
        """Cumulative (misses, tardiness) after each trace prefix.

        Accumulated in commit order — the same float-addition order
        ``Schedule.total_tardiness`` uses on a schedule whose placements
        were inserted in commit order — so prefix bounds are exact
        partial sums of the final metric.
        """
        bounds: List[MissMetric] = [(0, 0.0)]
        misses, tardiness = 0, 0.0
        for step in trace:
            deadline = self.ctg.task(step.task).deadline
            finish = step.placement.finish
            if finish > deadline + EPS:
                misses += 1
            if math.isfinite(deadline):
                tardiness += max(0.0, finish - deadline)
            bounds.append((misses, tardiness))
        return bounds

    def promote(self) -> None:
        """Adopt the last accepted candidate as the new incumbent."""
        assert self._last is not None, "promote() without a winning evaluate()"
        self._adopt(*self._last)

    # -- candidate evaluation -------------------------------------------------

    def _signature(
        self, mapping: Mapping[str, int], orders: Mapping[int, Sequence[str]]
    ) -> MoveSignature:
        mapping0, orders0 = self._mapping0, self._orders0
        map_delta = tuple(
            sorted(
                (task, pe) for task, pe in mapping.items() if mapping0.get(task) != pe
            )
        )
        order_delta = tuple(
            sorted(
                (pe, tuple(names))
                for pe, names in orders.items()
                if orders0.get(pe) != list(names)
            )
        )
        return (map_delta, order_delta)

    def _frontier(
        self,
        mapping1: Mapping[str, int],
        orders1: Mapping[int, Sequence[str]],
        changed_pes: Set[int],
        moved: Set[str],
    ) -> Tuple[int, Dict[int, int], Dict[str, int], Set[str], Dict[str, object], ResourceTables]:
        """Longest trace prefix the candidate's rebuild provably shares.

        Walks the incumbent trace with precedence/order bookkeeping.  At
        each step the candidate's commit is the incumbent's unless
        (a) the incumbent's chosen task is no longer eligible under the
        candidate orders/mapping — a *hard* divergence — or (b) a task
        the candidate makes eligible that the incumbent did not (at most
        one per changed PE) out-probes the incumbent's commit key.  Case
        (b) is decided *exactly*: probing the divergent task against the
        prefix tables reproduces the candidate rebuild's own argmin —
        every task eligible under both sides keeps its incumbent key, of
        which the incumbent's chosen key was already the minimum.  A
        migrated task therefore extends the prefix past the point where
        it merely *becomes* eligible, all the way to where it first
        *wins* a probe (or to its own incumbent commit), which is what
        makes the dirty cone small.

        Returns the full rebuild state at the frontier:
        ``(frontier, next_slot, remaining_preds, placed, placements,
        tables)``.
        """
        trace = self._trace
        orders0 = self._orders0
        remaining = dict(self._in_degree)
        placed: Set[str] = set()
        placements: Dict[str, object] = {}
        idx: Dict[int, int] = {pe: 0 for pe in orders0}
        for pe in orders1:
            idx.setdefault(pe, 0)
        successors = self.ctg.successors
        tables: Optional[ResourceTables] = None

        def next_eligible(order: Sequence[str], slot: int) -> Optional[str]:
            if slot < len(order):
                name = order[slot]
                if name not in placed and remaining[name] == 0:
                    return name
            return None

        frontier = len(trace)
        for k, step in enumerate(trace):
            chosen = step.task
            hard = chosen in moved
            if not hard and step.pe in changed_pes:
                order1 = orders1.get(step.pe, ())
                slot = idx.get(step.pe, 0)
                hard = slot >= len(order1) or order1[slot] != chosen
            if not hard:
                divergent: List[str] = []
                for pe in changed_pes:
                    slot = idx.get(pe, 0)
                    n1 = next_eligible(orders1.get(pe, ()), slot)
                    if n1 is not None and n1 != next_eligible(orders0.get(pe, ()), slot):
                        divergent.append(n1)
                if divergent:
                    if tables is None:
                        tables = self._materialize(k)
                    key_k = (step.placement.start, step.placement.finish, chosen)
                    for name in divergent:
                        evaluation = probe_mapped(
                            self.ctg, self.acg, name, mapping1[name], tables, placements
                        )
                        self._probe_counter.inc()
                        if (evaluation.start, evaluation.finish, name) < key_k:
                            hard = True
                            break
            if hard:
                frontier = k
                break
            placed.add(chosen)
            placements[chosen] = step.placement
            idx[step.pe] += 1
            for succ in successors(chosen):
                remaining[succ] -= 1
            if tables is not None:
                # Keep the materialized tables in step with the prefix.
                tables.fill((step.placement,), step.comms)
        if tables is None:
            tables = self._materialize(frontier)
        return frontier, idx, remaining, placed, placements, tables

    def _materialize(self, frontier: int) -> ResourceTables:
        """Fork the incumbent tables and undo the dirty cone's reservations."""
        tables = self._final_tables.fork()
        cone = self._trace[frontier:]
        tables.undo([step.placement for step in cone], [comm for step in cone for comm in step.comms])
        return tables

    def evaluate(
        self,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        incumbent_metric: MissMetric,
    ) -> Optional[Schedule]:
        """The schedule a full rebuild of the candidate would produce.

        Returns ``None`` when the candidate cannot be accepted — its
        orders deadlock, its bounded metric provably cannot beat
        ``incumbent_metric``, or it was already rejected against this
        incumbent.  A non-``None`` result is float-exact identical to
        ``rebuild_schedule(ctg, acg, mapping, orders)``; when its metric
        beats the incumbent the caller may :meth:`promote` it.
        """
        self._last = None
        self._candidate_counter.inc()
        signature = self._signature(mapping, orders)
        if self.memoize and signature in self._memo:
            self._memo_counter.inc()
            return None
        self._ensure_incumbent()

        moved = {task for task, _pe in signature[0]}
        changed_pes = {pe for pe, _names in signature[1]}
        frontier, next_slot, remaining, placed, placements, tables = self._frontier(
            mapping, orders, changed_pes, moved
        )
        self._prefix_counter.inc(frontier)
        bound = self._cum_bound[frontier]
        if not bound < incumbent_metric:
            self._abort_counter.inc()
            self._memo.add(signature)
            self._crosscheck(None, mapping, orders, incumbent_metric, aborted=True)
            return None

        try:
            schedule, trace, tables = self._replay(
                mapping, orders, frontier, next_slot, remaining, placed,
                placements, tables, bound, incumbent_metric,
            )
        except InfeasibleOrderError:
            self._memo.add(signature)
            self._crosscheck(None, mapping, orders, incumbent_metric, aborted=False)
            return None
        if schedule is None:  # aborted mid-replay
            self._abort_counter.inc()
            self._memo.add(signature)
            self._crosscheck(None, mapping, orders, incumbent_metric, aborted=True)
            return None

        if _schedule_metric(schedule) < incumbent_metric:
            self._last = (
                dict(mapping),
                {pe: list(names) for pe, names in orders.items()},
                trace,
                tables,
            )
        else:
            self._memo.add(signature)
        self._crosscheck(schedule, mapping, orders, incumbent_metric, aborted=False)
        return schedule

    def _replay(
        self,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        frontier: int,
        next_slot: Dict[int, int],
        remaining_preds: Dict[str, int],
        placed: Set[str],
        placements: Dict[str, object],
        tables: ResourceTables,
        bound: MissMetric,
        incumbent_metric: MissMetric,
    ) -> Tuple[Optional[Schedule], List[CommitStep], ResourceTables]:
        """Replay the dirty cone through the shared list-scheduling loop."""
        ctg = self.ctg
        prefix = self._trace[:frontier]
        schedule = Schedule(ctg, self.acg, algorithm=self.algorithm)
        for step in prefix:
            schedule.place_task(step.placement)
            for comm in step.comms:
                schedule.place_comm(comm)
        trace = list(prefix)
        misses, tardiness = bound
        task_of = ctg.task
        steps = commit_steps(
            ctg,
            self.acg,
            mapping,
            orders,
            next_slot,
            remaining_preds,
            {name for name in self._task_names if name not in placed},
            placements,
            tables,
            schedule,
        )
        try:
            for step in steps:
                trace.append(step)
                deadline = task_of(step.task).deadline
                finish = step.placement.finish
                if finish > deadline + EPS:
                    misses += 1
                if math.isfinite(deadline):
                    tardiness += max(0.0, finish - deadline)
                if not (misses, tardiness) < incumbent_metric:
                    return None, trace, tables
        finally:
            self._replayed_counter.inc(len(trace) - frontier)
        return schedule, trace, tables

    # -- selfcheck (debug / equivalence harness) ------------------------------

    def _crosscheck(
        self,
        schedule: Optional[Schedule],
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        incumbent_metric: MissMetric,
        aborted: bool,
    ) -> None:
        """Assert this evaluation agrees with a from-scratch rebuild."""
        if not self.selfcheck:
            return
        try:
            full = rebuild_schedule(
                self.ctg,
                self.acg,
                mapping,
                orders,
                algorithm=self.algorithm,
                use_path_cache=self.use_path_cache,
            )
        except InfeasibleOrderError:
            full = None
        if schedule is not None:
            assert full is not None, "incremental built a schedule the full rebuild rejects"
            assert schedule_to_json(schedule) == schedule_to_json(full), (
                "incremental rebuild diverged from full rebuild"
            )
        elif aborted:
            # An abort claims the candidate cannot beat the incumbent.
            assert full is None or not _schedule_metric(full) < incumbent_metric, (
                "early abort rejected a candidate that beats the incumbent"
            )
        else:
            assert full is None, "incremental raised InfeasibleOrderError, full rebuild did not"
