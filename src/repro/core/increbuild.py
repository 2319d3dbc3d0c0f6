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

2. **One table set walked along the trace.**  The engine keeps a
   single set of resource tables per incumbent, holding the first
   ``k`` steps of its trace plus the commits of the last replay.  The
   state at a frontier is reached by *undoing* that replay and the
   trace steps past the frontier (the dirty cone), via
   :meth:`~repro.schedule.table.ScheduleTable.truncate_from` when they
   form the tail of a resource's busy list and exact-match releases
   otherwise, or by filling in the steps up to it.  Work is proportional
   to the distance between consecutive frontiers, not to the prefix, so
   small perturbations near the end of the schedule — the common case,
   since repair targets late critical tasks — cost almost nothing.

3. **Dirty-cone replay with early abort.**  From the frontier the
   engine resumes the very list-scheduling loop ``rebuild_schedule``
   runs (:func:`~repro.core.rebuild.commit_steps`, with a fresh probe
   cache), so the result is float-exact identical to
   a from-scratch rebuild — the equivalence ``tests/test_increbuild.py``
   byte-compares via serialization v2 for every evaluation of whole
   repair runs.  Misses and tardiness only grow as more tasks are
   committed, so the running ``(misses, tardiness)`` over the committed
   prefix+cone is a lower bound on the candidate's final metric; the
   moment it stops being strictly better than the incumbent's metric
   the replay stops.  Only a completed replay builds a
   :class:`~repro.schedule.schedule.Schedule`.

4. **Rejected-move memoization.**  Candidates are keyed by their
   ``(mapping-delta, order-delta)`` against the incumbent; a candidate
   rejected once is never re-rebuilt against the same incumbent (the
   GTM relief sweep re-proposes many energy-sweep candidates
   verbatim).  The memo is cleared whenever a move is accepted.

5. **Exact pre-replay filters.**  Most candidates are rejected, and two
   checks reject many of those without replaying anything.  Before the
   frontier walk, an *order-cycle check* finds the candidates whose
   orders deadlock: the replay gets stuck exactly when the open tasks'
   CTG edges plus the candidate's consecutive PE-order edges contain a
   cycle, and every such cycle passes through an order edge that runs
   backwards in the incumbent's commit order, so a depth-first search
   from those edges over the commit-index window they span decides it.
   Before any table moves — at the first frontier-walk step that
   needs a probe, or at the frontier — an *admissible miss-metric
   bound* adds to the committed prefix's exact partial metric one term
   per open task, from a finish time no rebuild can undercut
   (precedence and transfer durations only); a candidate whose bound
   cannot beat the incumbent is rejected.

Given a :class:`~repro.core.rebuild.FrozenPrefix` (degraded-mode
recovery), every rebuild the engine stands for starts from it: the trace
covers only the open tasks, the tables start from the prefix tables, and
the bounds start at the prefix's own ``(misses, tardiness)`` and floor.

Soundness arguments are spelled out in DESIGN.md ("Incremental repair
engine"); :func:`repro.core.reference.full_rebuild_repair` keeps
the paper-literal full rebuild per candidate as the reference oracle.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.core.placement import ProbeCache
from repro.core.rebuild import (
    NO_PREFIX,
    CommitStep,
    FrozenPrefix,
    MissMetric,
    commit_steps,
    miss_metric,
    probe_mapped,
    rebuild_schedule_traced,
)
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError, UnroutableError
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule
from repro.schedule.table import EPS

#: (mapping-delta, order-delta) of a candidate against the incumbent.
MoveSignature = Tuple[
    Tuple[Tuple[str, int], ...], Tuple[Tuple[int, Tuple[str, ...]], ...]
]


#: The rebuild state after the shared trace prefix: ``(frontier, next_slot,
#: remaining_preds, placed, placements)``.
FrontierState = Tuple[int, Dict[int, int], Dict[str, int], Set[str], Dict[str, TaskPlacement]]

#: Relative rounding margin on the tardiness half of the miss-metric bound.  The
#: bound and ``Schedule.total_tardiness`` add non-negative terms in
#: different orders, and a float sum of ``n`` such terms lies within a
#: relative ``(n - 1) * 2**-53`` of its exact value; two sums plus the
#: margin's own product stay far below 1e-9 for any schedule under a
#: million tasks.
TARDINESS_MARGIN = 1e-9


def _tally(ctg: CTG, metric: MissMetric, placement: TaskPlacement) -> MissMetric:
    """``metric`` plus one placement, added as ``Schedule.total_tardiness`` adds."""
    misses, tardiness = metric
    deadline = ctg.task(placement.task).deadline
    if placement.finish > deadline + EPS:
        misses += 1
    if math.isfinite(deadline):
        tardiness += max(0.0, placement.finish - deadline)
    return misses, tardiness


class IncrementalRebuilder:
    """Evaluates candidate (mapping, orders) moves against one incumbent.

    The repair loop owns exactly one instance; :meth:`evaluate` answers
    each candidate with the schedule a full rebuild would have produced
    (or ``None`` when the candidate is infeasible, memo-rejected, or
    provably unable to beat the incumbent), and :meth:`promote` adopts
    the last winning candidate as the new incumbent.  Every rebuild
    starts from ``prefix``, whose tasks no candidate may move.
    """

    def __init__(
        self,
        ctg: CTG,
        acg: ACG,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        algorithm: str = "rebuild",
        prefix: FrozenPrefix = NO_PREFIX,
    ) -> None:
        self.ctg = ctg
        self.acg = acg
        self.algorithm = algorithm
        self.prefix = prefix
        #: open predecessors of each open task, before any commit.
        self._in_degree: Dict[str, int] = prefix.open_preds(ctg)
        self._task_names: List[str] = list(self._in_degree)
        open_tasks = self._in_degree
        #: open successors, (sender, volume) pairs and finite deadlines of
        #: each open task: the CTG bookkeeping of the pre-replay filters.
        self._successors: Dict[str, Tuple[str, ...]] = {
            name: tuple(succ for succ in ctg.successors(name) if succ in open_tasks)
            for name in open_tasks
        }
        self._senders: Dict[str, Tuple[Tuple[str, float], ...]] = {
            name: tuple((edge.src, edge.volume) for edge in ctg.in_edges(name))
            for name in open_tasks
        }
        self._deadlines: Dict[str, float] = {}
        for name in open_tasks:
            deadline = ctg.task(name).deadline
            if math.isfinite(deadline):
                self._deadlines[name] = deadline
        self._exec_times: Dict[Tuple[str, int], float] = {}
        self._prefix_metric: MissMetric = (0, 0.0)
        for placement in prefix.placements:
            self._prefix_metric = _tally(ctg, self._prefix_metric, placement)
        self._mapping0: Dict[str, int] = dict(mapping)
        self._orders0: Dict[int, List[str]] = {
            pe: list(names) for pe, names in prefix.open_orders(orders).items()
        }
        self._trace: Optional[List[CommitStep]] = None
        #: the table set: the first ``_at`` incumbent trace steps plus
        #: ``_extra``, the commits of the last replay.
        self._tables: Optional[ResourceTables] = None
        self._at = 0
        self._extra: List[CommitStep] = []
        self._cum_bound: List[MissMetric] = []
        #: each open task's step in the incumbent trace, and its successor
        #: in the incumbent's PE order.
        self._commit_index: Dict[str, int] = {}
        self._next_on_pe: Dict[str, str] = {}
        self._memo: Set[MoveSignature] = set()
        self._last: Optional[Tuple[Dict[str, int], Dict[int, List[str]], List[CommitStep]]] = None
        metrics = obs.get().metrics
        self._replayed_counter = metrics.counter("repair.replayed_tasks")
        self._replayed_by_outcome = {
            outcome: metrics.counter(f"repair.replayed_tasks.{outcome}")
            for outcome in ("deadlock", "abort", "completed")
        }
        self._prefix_counter = metrics.counter("repair.prefix_reused_tasks")
        self._abort_counter = metrics.counter("repair.incremental_aborts")
        self._memo_counter = metrics.counter("repair.memo_skips")
        self._candidate_counter = metrics.counter("repair.incremental_candidates")
        self._probe_counter = metrics.counter("repair.frontier_probes")
        self._deadlock_counter = metrics.counter("repair.deadlock_rejects")
        self._unroutable_counter = metrics.counter("repair.unroutable_rejects")
        self._bound_counter = metrics.counter("repair.bound_rejects")

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
            self.ctg, self.acg, self._mapping0, self._orders0,
            algorithm=self.algorithm, prefix=self.prefix,
        )
        self._tables = self.prefix.start_tables()
        self._adopt(self._mapping0, self._orders0, trace)

    def _adopt(
        self,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        trace: List[CommitStep],
    ) -> None:
        self._mapping0 = dict(mapping)
        self._orders0 = {pe: list(names) for pe, names in orders.items()}
        self._trace = trace
        self._cum_bound = self._bounds_of(trace)
        self._commit_index = {step.task: k for k, step in enumerate(trace)}
        self._next_on_pe = {
            name: following
            for names in self._orders0.values()
            for name, following in zip(names, names[1:])
        }
        self._memo.clear()
        self._last = None

    def _bounds_of(self, trace: Sequence[CommitStep]) -> List[MissMetric]:
        """Cumulative (misses, tardiness) after each trace prefix.

        Starts at the frozen prefix's metric and accumulates in commit
        order — the float-addition order ``Schedule.total_tardiness``
        uses on a schedule seeded with the prefix and then filled in
        commit order — so the bounds are exact partial sums of the
        final metric.
        """
        bounds: List[MissMetric] = [self._prefix_metric]
        for step in trace:
            bounds.append(_tally(self.ctg, bounds[-1], step.placement))
        return bounds

    def promote(self) -> None:
        """Adopt the last accepted candidate as the new incumbent."""
        assert self._last is not None, "promote() without a winning evaluate()"
        mapping, orders, trace = self._last
        # The tables hold the shared prefix plus the winner's replay: its trace.
        self._at, self._extra = len(trace), []
        self._adopt(mapping, orders, trace)

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
        incumbent_metric: MissMetric,
    ) -> Optional[FrontierState]:
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

        The table set follows the walk through :meth:`_materialize`
        only where a probe needs it, and ends at the frontier.  Returns
        the rest of the rebuild state there: ``(frontier, next_slot,
        remaining_preds, placed, placements)``, or ``None`` when the
        candidate cannot beat ``incumbent_metric``.  That bound is
        checked once, before the table set moves: at the first step
        whose decision needs a probe, or at the frontier when none does.
        The candidate shares every trace step before either point, so
        both are sound.
        """
        trace = self._trace
        orders0 = self._orders0
        remaining = dict(self._in_degree)
        placed: Set[str] = set()
        placements: Dict[str, TaskPlacement] = {p.task: p for p in self.prefix.placements}
        floor = self.prefix.floor
        idx: Dict[int, int] = {pe: 0 for pe in orders0}
        for pe in orders1:
            idx.setdefault(pe, 0)
        successors = self._successors
        tables = self._tables
        bounded = False

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
                    if not bounded:
                        if self._cannot_win(k, mapping1, placements, incumbent_metric):
                            return None
                        bounded = True
                    self._materialize(k)
                    key_k = (step.placement.start, step.placement.finish, chosen)
                    for name in divergent:
                        evaluation = probe_mapped(
                            self.ctg, self.acg, name, mapping1[name], tables, placements, floor
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
            for succ in successors[chosen]:
                remaining[succ] -= 1
        if not bounded and self._cannot_win(frontier, mapping1, placements, incumbent_metric):
            return None
        self._materialize(frontier)
        return frontier, idx, remaining, placed, placements

    def _deadlocks(self, orders1: Mapping[int, Sequence[str]], changed_pes: Set[int]) -> bool:
        """Whether the candidate's replay would raise ``InfeasibleOrderError``.

        The replay gets stuck exactly when the open tasks' CTG edges plus
        the candidate's consecutive PE-order edges contain a cycle (a
        task is eligible when it is next on its PE and its predecessors
        are placed, so elimination stalls only on a cycle).  Every edge
        the incumbent's rebuild honoured runs forward in its commit
        index, so a cycle needs an order edge ``a -> b`` of a changed PE
        with ``index[a] > index[b]``, and each of its nodes lies between
        the least such ``b`` and the greatest such ``a``: a depth-first
        search from the ``b``s over that window decides it, with
        bookkeeping only.
        """
        index = self._commit_index
        next1: Dict[str, Optional[str]] = {}
        roots: List[str] = []
        low, high = len(index), -1
        for pe in changed_pes:
            order = orders1.get(pe, ())
            for name, following in zip(order, order[1:]):
                next1[name] = following
                if index[name] > index[following]:
                    roots.append(following)
                    low = min(low, index[following])
                    high = max(high, index[name])
            if order:
                next1[order[-1]] = None
        if not roots:
            return False
        successors, next0 = self._successors, self._next_on_pe

        def children(name: str):
            following = next1[name] if name in next1 else next0.get(name)
            succ = successors[name]
            return iter(succ if following is None else succ + (following,))

        on_path: Set[str] = set()
        done: Set[str] = set()
        for root in roots:
            if root in done:
                continue
            on_path.add(root)
            stack = [(root, children(root))]
            while stack:
                name, pending = stack[-1]
                for child in pending:
                    if child in on_path:
                        return True
                    if child not in done and low <= index[child] <= high:
                        on_path.add(child)
                        stack.append((child, children(child)))
                        break
                else:
                    stack.pop()
                    on_path.discard(name)
                    done.add(name)
        return False

    def _finish_bounds(
        self, frontier: int, mapping1: Mapping[str, int], placements: Mapping[str, TaskPlacement]
    ) -> Iterator[Tuple[str, float]]:
        """``(task, finish bound)`` of each open task at ``frontier``, in trace order.

        A task's bound is the latest of the floor and, over its senders,
        the sender's finish (its bound if still open) raised to the floor
        plus the transfer's duration, plus its execution time on its
        mapped PE.  No rebuild finishes the task earlier: a transfer
        starts at or after ``max(sender.finish, floor)``, the gap
        searches never return a time before the one asked for, and IEEE
        ``+`` and ``max`` are monotone.  PE-order edges are not used: a
        gap-filled task may start before its predecessor in the PE order.
        The incumbent trace lists the open tasks in a topological order.
        """
        acg = self.acg
        floor = self.prefix.floor
        senders, exec_times = self._senders, self._exec_times
        bounds: Dict[str, float] = {}
        for step in self._trace[frontier:]:
            name = step.task
            pe = mapping1[name]
            ready = floor
            for src, volume in senders[name]:
                sent = bounds.get(src)
                if sent is None:
                    sender = placements[src]
                    sent, src_pe = sender.finish, sender.pe
                else:
                    src_pe = mapping1[src]
                try:
                    duration = acg.comm_duration(volume, src_pe, pe)
                except UnroutableError:
                    # Dropping the transfer keeps the bound low; the probe
                    # that needs the route raises the rejection itself.
                    continue
                arrival = (sent if sent > floor else floor) + duration
                if arrival > ready:
                    ready = arrival
            exec_time = exec_times.get((name, pe))
            if exec_time is None:
                cost = self.ctg.task(name).cost_on(acg.pe(pe).type_name)
                # An infeasible PE is the replay's SchedulingError to raise.
                exec_time = exec_times[name, pe] = cost.time if cost.feasible else 0.0
            finish = bounds[name] = ready + exec_time
            yield name, finish

    def _cannot_win(
        self,
        frontier: int,
        mapping1: Mapping[str, int],
        placements: Mapping[str, TaskPlacement],
        incumbent_metric: MissMetric,
    ) -> bool:
        """Whether no rebuild from ``frontier`` can beat ``incumbent_metric``.

        Tallies :meth:`_finish_bounds` onto the committed prefix's exact
        partial metric as :func:`_tally` adds.  Misses are compared
        exactly (a bound past a deadline means a miss) and stop the walk
        once they exceed the incumbent's; tardiness is compared with
        :data:`TARDINESS_MARGIN` of slack, since this float sum runs in
        another order than the candidate's ``Schedule.total_tardiness``.
        """
        misses, tardiness = bound = self._cum_bound[frontier]
        if not bound < incumbent_metric:
            return True
        deadlines = self._deadlines
        for name, finish in self._finish_bounds(frontier, mapping1, placements):
            deadline = deadlines.get(name)
            if deadline is not None:
                if finish > deadline + EPS:
                    misses += 1
                    if misses > incumbent_metric[0]:
                        return True
                tardiness += max(0.0, finish - deadline)
        if misses < incumbent_metric[0]:
            return False
        return tardiness * (1.0 - TARDINESS_MARGIN) >= incumbent_metric[1]

    def _materialize(self, k: int) -> None:
        """Move the table set to hold exactly the first ``k`` incumbent trace steps.

        Undoes the last replay's commits and any steps past ``k``, or
        fills in the steps up to ``k``.
        """
        trace, tables = self._trace, self._tables
        cone = self._extra + trace[k:self._at]
        if cone:
            tables.undo(
                [step.placement for step in cone], [comm for step in cone for comm in step.comms]
            )
        ahead = trace[self._at:k]
        if ahead:
            tables.fill(
                [step.placement for step in ahead], [comm for step in ahead for comm in step.comms]
            )
        self._at, self._extra = k, []

    def evaluate(
        self,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        incumbent_metric: MissMetric,
    ) -> Optional[Schedule]:
        """The schedule a full rebuild of the candidate would produce.

        Returns ``None`` when the candidate cannot be accepted — its
        orders deadlock, a sender has no route to its PE on a degraded
        platform, its bounded metric provably cannot beat
        ``incumbent_metric``, or it was already rejected against this
        incumbent.  A non-``None`` result is float-exact identical to
        ``rebuild_schedule(ctg, acg, mapping, orders, prefix=prefix)``;
        when its metric beats the incumbent the caller may
        :meth:`promote` it.
        """
        self._last = None
        self._candidate_counter.inc()
        orders = self.prefix.open_orders(orders)
        signature = self._signature(mapping, orders)
        if signature in self._memo:
            self._memo_counter.inc()
            return None
        self._ensure_incumbent()

        changed_pes = {pe for pe, _names in signature[1]}
        if self._deadlocks(orders, changed_pes):
            return self._reject(signature, self._deadlock_counter)
        moved = {task for task, _pe in signature[0]}
        try:
            state = self._frontier(mapping, orders, changed_pes, moved, incumbent_metric)
            if state is None:
                self._bound_counter.inc()
                return self._reject(signature, self._abort_counter)
            frontier, next_slot, remaining, placed, placements = state
            self._prefix_counter.inc(frontier)
            schedule, trace = self._replay(
                mapping, orders, frontier, next_slot, remaining, placed,
                placements, incumbent_metric,
            )
        except InfeasibleOrderError:
            return self._reject(signature, self._deadlock_counter)
        except UnroutableError:
            return self._reject(signature, self._unroutable_counter)
        if schedule is None:  # aborted mid-replay
            return self._reject(signature, self._abort_counter)

        if miss_metric(schedule) < incumbent_metric:
            self._last = (
                dict(mapping),
                {pe: list(names) for pe, names in orders.items()},
                trace,
            )
        else:
            self._memo.add(signature)
        return schedule

    def _reject(self, signature: MoveSignature, counter) -> None:
        """Count and memoize one rejected candidate."""
        counter.inc()
        self._memo.add(signature)
        return None

    def _replay(
        self,
        mapping: Mapping[str, int],
        orders: Mapping[int, Sequence[str]],
        frontier: int,
        next_slot: Dict[int, int],
        remaining_preds: Dict[str, int],
        placed: Set[str],
        placements: Dict[str, TaskPlacement],
        incumbent_metric: MissMetric,
    ) -> Tuple[Optional[Schedule], List[CommitStep]]:
        """Replay the dirty cone through the shared list-scheduling loop.

        Commits onto the table set, which must hold the first
        ``frontier`` trace steps, and leaves the commits in ``_extra``
        however the replay ends.  Returns the candidate's schedule and
        trace, or ``(None, [])`` when the replay aborts.

        Counts the replayed commits in ``repair.replayed_tasks`` and under
        how the replay ended: ``.completed``, ``.abort`` (the running
        metric stopped beating the incumbent) or ``.deadlock``
        (:func:`~repro.core.rebuild.commit_steps` raised; the pre-replay
        filters already reject every deadlocking or unroutable candidate,
        so this one stays at 0).
        """
        ctg = self.ctg
        replayed: List[CommitStep] = []
        metric = self._cum_bound[frontier]
        steps = commit_steps(
            ctg,
            self.acg,
            mapping,
            orders,
            next_slot,
            remaining_preds,
            {name for name in self._task_names if name not in placed},
            placements,
            self._tables,
            ProbeCache(),
            floor=self.prefix.floor,
        )
        outcome = "deadlock"
        try:
            for step in steps:
                replayed.append(step)
                metric = _tally(ctg, metric, step.placement)
                if not metric < incumbent_metric:
                    outcome = "abort"
                    return None, []
            outcome = "completed"
        finally:
            self._extra = replayed
            self._replayed_counter.inc(len(replayed))
            self._replayed_by_outcome[outcome].inc(len(replayed))
        trace = self._trace[:frontier] + replayed
        schedule = Schedule(ctg, self.acg, algorithm=self.algorithm)
        self.prefix.seed(schedule)
        for step in trace:
            schedule.place_task(step.placement)
            for comm in step.comms:
                schedule.place_comm(comm)
        return schedule, trace
