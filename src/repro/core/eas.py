"""EAS Step 2: level-based scheduling, plus :func:`run_eas`, the one place
Steps 1-3 compose.

The level-based scheduler repeatedly examines the **ready task list**
(RTL — tasks whose predecessors are all scheduled).  For every
``(task, PE)`` combination it computes the earliest finish time

    ``F(i,k) = start(i,k) + r_i_k``

where ``start(i,k)`` is the earliest gap on PE ``k`` at or after the data
ready time ``DRT(i,k)`` obtained by *tentatively* scheduling the task's
receiving transactions on the link tables (Fig. 3), restoring the tables
afterwards.  Selection then follows the paper:

* if some ready task cannot meet its budgeted deadline anywhere
  (``min_F(i) > BD_i``), the most violating one is scheduled on its
  fastest PE (performance rescue);
* otherwise each task's BD-feasible PE list ``L_i`` is formed, the
  energy regret ``δE_i = E2_i - E1_i`` is computed (``E`` includes the
  communication energy of the task's inputs, whose senders are already
  placed), and the task with the largest regret is committed to its
  minimum-energy PE.

A task with exactly one BD-feasible PE gets ``δE = +inf`` — deferring a
forced placement risks losing it, so it is treated as maximal regret
(interpretation decision; see DESIGN.md).

Incremental evaluation
----------------------
Naively, Step 2 recomputes every ``F(i,k)`` on every iteration.  Two
things make that unnecessary, and neither changes a single decision.

*The energy-ordered walk.*  The selection reads three things of a ready
task: whether any PE meets ``BD_i`` (Rule 3), its minimum-energy
BD-feasible PE ``E1`` and the energy ``E2`` of the next one (Rule 4).
``E(i,k) = E_comp + E_comm`` depends on the mapping of the task's
senders, never on timing, and the senders are all placed before the
task enters the RTL.  So each task's PEs are sorted once by
``(E(i,k), pe)`` on entry — unroutable PEs of a fault-degraded platform
dropped — and every iteration walks that order, probing only on a
cache miss, until the rules are decided: ``E1``'s whole energy group is
read (it fixes the ``(energy, finish, pe)`` tie-break) and either a
second BD-feasible PE lies in that group (``δE = 0``) or the first
BD-feasible PE of a later group gives ``E2``.  A task no PE serves by
``BD_i`` reads its whole list, so Rule 3's ``min_F`` stays exact.
:func:`repro.core.comm.task_energy` forms both the walk key and
``Evaluation.energy``, so the two are the same float.  With decisions
recorded, the chosen task's list is read to the end before the commit,
so its record lists every candidate.  ``eas.walk_skips`` counts the PEs
the walks left unread.

*The probe cache.*  A commit only mutates one PE table and the links
its transactions traverse, so evaluations live in a
:class:`~repro.core.placement.ProbeCache` across iterations.  After
each commit the cache evicts only the entries whose *resource
footprint* (the PE and link tables the evaluation probed) holds a
resource the commit reserved — the committed PE plus every link of the
committed transactions — and whose granted windows overlap the
committed ones in time.  Any other evaluation would recompute to the
identical result.  Step 3's rebuild loop, ``rebuild.commit_steps``,
uses the same cache.

DESIGN.md gives both arguments.  The paper-literal
:class:`repro.core.reference.NaiveLevelScheduler` probes every F(i,k)
each iteration and selects over the whole table; the property tests
(``tests/test_property_reference.py``, ``tests/test_property_walk.py``)
require byte-identical schedules and provenance from both.

Every evaluation is a :func:`repro.core.placement.probe`, and the
selected one is made permanent with :func:`repro.core.placement.commit`:
the evaluation the selection just used is always clean, so committing
it equals recomputing it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple, Type

from repro import obs
from repro.arch.acg import ACG
from repro.core import repair as step3
from repro.core.comm import in_sender_order, task_energy
from repro.core.placement import Evaluation, ProbeCache, commit, probe
from repro.core.rebuild import NO_PREFIX, FrozenPrefix
from repro.core.repair import RepairConfig, RepairReport
from repro.obs.decisions import TaskDecision
from repro.core.slack import TaskBudget, WeightPolicy, compute_budgets, weight_var_product
from repro.ctg.graph import CTG
from repro.errors import NoFeasiblePEError, SchedulingError, UnroutableError
from repro.schedule.entries import TaskPlacement
from repro.schedule.schedule import Schedule
from repro.schedule.table import EPS


@dataclass
class EASConfig:
    """Knobs of the EAS algorithm.

    Attributes:
        weight_policy: Step-1 slack weight function (paper default:
            ``VAR_e * VAR_r``).
        repair: run Step 3 (search-and-repair) when the level-based
            schedule misses deadlines.
        max_repair_rounds: safety bound on LTS/GTM alternations.
        contention_aware: schedule transactions against real link
            occupancy (the paper's approach).  When False the scheduler
            uses the fixed-delay communication model the paper's
            introduction criticises; the resulting timing is
            optimistic and its link usage may overlap — only the
            contention ablation should turn this off.
    """

    weight_policy: WeightPolicy = weight_var_product
    repair: bool = True
    max_repair_rounds: int = 64
    contention_aware: bool = True


@dataclass
class _SelectionOutcome:
    """Why the Step-2 selection picked its (task, PE) pair."""

    #: Rule-3 performance rescue (no PE meets the budgeted deadline).
    rescue: bool = False
    #: energy regret δE of the chosen task (None on a rescue, inf when
    #: the task had a single BD-feasible PE).
    regret: Optional[float] = None


class _Summary(NamedTuple):
    """What the selection rules read of one ready task's F(i,k) row."""

    #: the BD-feasible PE of least ``(energy, finish, pe)``; None when
    #: no PE meets the budgeted deadline.
    e1: Optional[Evaluation]
    #: ``δE = E2 - E1``: 0 when E1's energy group holds a second
    #: BD-feasible PE, inf when E1 is the only one.
    regret: float
    #: the PE of least ``(finish, energy, pe)``, read only by Rule 3
    #: (so set only when ``e1`` is None).
    fastest: Optional[Evaluation]


#: one walk step: a candidate PE's energy ``E(i,k)`` and its index.
WalkKey = Tuple[float, int]


class LevelBasedScheduler:
    """Step 2 of EAS: energy-aware list scheduling steered by budgets.

    Only the tasks outside ``prefix`` are scheduled, on top of it (see
    :class:`~repro.core.rebuild.FrozenPrefix`; degraded-mode recovery
    passes the salvaged past).
    """

    def __init__(
        self,
        ctg: CTG,
        acg: ACG,
        budgets: Mapping[str, TaskBudget],
        algorithm_name: str = "eas-base",
        contention_aware: bool = True,
        prefix: FrozenPrefix = NO_PREFIX,
    ) -> None:
        self.ctg = ctg
        self.acg = acg
        self.budgets = budgets
        self.algorithm_name = algorithm_name
        self.contention_aware = contention_aware
        self.prefix = prefix
        self._tables = prefix.start_tables()
        self._placements: Dict[str, TaskPlacement] = {}
        #: clean F(i,k) evaluations carried across RTL iterations.
        self._cache = ProbeCache()
        #: each ready task's candidate PEs in increasing ``(E, pe)`` order.
        self._walk_keys: Dict[str, List[WalkKey]] = {}
        #: per sender PE, the energy per bit toward every PE and the
        #: PEs it cannot reach.
        self._epb_rows: Dict[int, Tuple[List[float], FrozenSet[int]]] = {}
        #: the available PEs by type.
        self._pes_by_type: Dict[str, List[int]] = {}
        for pe in acg.pes:
            if acg.pe_available(pe.index):
                self._pes_by_type.setdefault(pe.type_name, []).append(pe.index)
        #: this RTL iteration's cache hits, fresh probes and unread keys.
        self._hits = self._fresh = self._skips = 0
        ins = obs.get()
        self._ins = ins
        self._eval_counter = ins.metrics.counter("eas.evaluations")
        self._hit_counter = ins.metrics.counter("eas.cache_hits")
        self._skip_counter = ins.metrics.counter("eas.walk_skips")
        self._invalidation_counter = ins.metrics.counter("eas.cache_invalidations")

    # -- F(i,k) evaluation --------------------------------------------------

    def _probe(self, task_name: str, pe_index: int) -> Optional[Evaluation]:
        """Compute ``F(i,k)``; ``None`` when the PE is unusable.

        A PE can be unusable because its type cannot run the task, or —
        on a fault-degraded platform — because a partition leaves no
        route from some already-placed sender; both simply remove the
        candidate.
        """
        return probe(
            self.ctg,
            self.acg,
            task_name,
            pe_index,
            self._tables,
            self._placements,
            floor=self.prefix.floor,
            contention_aware=self.contention_aware,
        )

    def _lookup(self, task_name: str, pe_index: int) -> Evaluation:
        """``F(i,k)`` of a walk-key PE, from the cache or a fresh probe."""
        key = (task_name, pe_index)
        evaluation = self._cache.get(key)
        if evaluation is None:
            evaluation = self._cache[key] = self._probe(task_name, pe_index)
            self._fresh += 1
        else:
            self._hits += 1
        return evaluation

    def _epb_row(self, src: int) -> Tuple[List[float], FrozenSet[int]]:
        """``e(r_src,k)`` for every PE ``k``, and the PEs ``src`` cannot reach.

        Built once per sender PE; an unreachable PE's entry is unused.
        """
        entry = self._epb_rows.get(src)
        if entry is None:
            row: List[float] = []
            unreachable = set()
            for pe in self.acg.pes:
                try:
                    row.append(self.acg.route(src, pe.index).energy_per_bit)
                except UnroutableError:
                    row.append(math.nan)
                    unreachable.add(pe.index)
            entry = self._epb_rows[src] = (row, frozenset(unreachable))
        return entry

    def _enter_rtl(self, task_name: str) -> None:
        """Sort ``task_name``'s candidate PEs by ``(E(i,k), pe)``.

        ``E(i,k)`` reads only the mapping of the task's senders, which
        are all placed once it is ready and never move, so the order is
        fixed for its whole stay in the RTL.  Unavailable PEs, types
        that cannot run the task and PEs some sender cannot reach (on a
        fault-degraded platform) are exactly the ones :func:`probe`
        rejects; they get no key.  Each transaction's energy is
        ``volume * e(r)``, the product ``ACG.comm_energy`` forms.
        """
        task = self.ctg.task(task_name)
        rows = []
        blocked: FrozenSet[int] = frozenset()
        for edge in in_sender_order(self.ctg.in_edges(task_name), self._placements):
            row, unreachable = self._epb_row(self._placements[edge.src].pe)
            rows.append((edge.volume, row))
            blocked |= unreachable
        keys: List[WalkKey] = []
        for type_name, pes in self._pes_by_type.items():
            cost = task.cost_on(type_name)
            if not cost.feasible:
                continue
            for index in pes:
                if index not in blocked:
                    comm = [volume * row[index] for volume, row in rows]
                    keys.append((task_energy(cost.energy, comm), index))
        keys.sort()
        self._walk_keys[task_name] = keys

    def _walk(self, task_name: str) -> _Summary:
        """The selection inputs of one ready task.

        Walks the task's PEs in ``(E, pe)`` order and stops as soon as
        the paper's rules are decided: E1's whole energy group is read
        (fixing the ``(energy, finish, pe)`` tie-break) and either a
        second BD-feasible PE lies in that group (``δE = 0``) or the
        first BD-feasible PE of a later group gives E2.  A task no PE
        serves by its budgeted deadline reads every key, so Rule 3's
        ``min F`` is exact.
        """
        keys = self._walk_keys[task_name]
        if not keys:
            raise NoFeasiblePEError(f"task {task_name!r} has no feasible PE")
        limit = self.budgets[task_name].budgeted_deadline + EPS
        lookup = self._lookup
        e1: Optional[Evaluation] = None
        e1_energy = 0.0
        fastest: Optional[Evaluation] = None
        regret = math.inf
        read = 0
        for energy, pe_index in keys:
            if regret == 0.0 and energy != e1_energy:
                break  # E1's group is complete and holds a tie
            evaluation = lookup(task_name, pe_index)
            read += 1
            if evaluation.finish > limit:
                if e1 is None and (
                    fastest is None
                    or (evaluation.finish, energy, pe_index)
                    < (fastest.finish, fastest.energy, fastest.pe)
                ):
                    fastest = evaluation
            elif e1 is None:
                e1, e1_energy = evaluation, energy
            elif energy == e1_energy:
                regret = 0.0
                if evaluation.finish < e1.finish:
                    e1 = evaluation
            else:
                regret = energy - e1_energy
                break
        self._skips += len(keys) - read
        return _Summary(e1, regret, None if e1 is not None else fastest)

    # -- selection ------------------------------------------------------------

    def _select(self, summaries: Dict[str, _Summary]) -> Tuple[Evaluation, _SelectionOutcome]:
        """Apply the paper's Step-2 selection rules to the RTL's summaries.

        ``summaries`` must be in task-name order.
        """
        # Rule 3: violating tasks go first, fastest PE wins.
        violations = [
            (summary.fastest.finish - self.budgets[t].budgeted_deadline, t)
            for t, summary in summaries.items()
            if summary.fastest is not None
        ]
        if violations:
            violations.sort(key=lambda item: (-item[0], item[1]))
            fastest = summaries[violations[0][1]].fastest
            assert fastest is not None
            return fastest, _SelectionOutcome(rescue=True)

        # Rule 4: all tasks can meet their BD somewhere; maximise regret.
        # Ties: tighter (smaller) BD first, then task name, for determinism.
        best: Optional[Evaluation] = None
        best_key: Tuple[float, float] = (-math.inf, -math.inf)
        for task_name, summary in summaries.items():
            key = (summary.regret, -self.budgets[task_name].budgeted_deadline)
            if best is None or key > best_key:
                best = summary.e1
                best_key = key
        assert best is not None
        return best, _SelectionOutcome(regret=best_key[0])

    def _choose(
        self, ready: List[str], rtl_span, record: bool
    ) -> Tuple[Evaluation, _SelectionOutcome, Dict[int, Evaluation]]:
        """Evaluate the RTL (``ready``, sorted) and select the next commit.

        With ``record`` it also returns every ``F(i,k)`` of the chosen
        task by PE, for its decision record: the walk completes that
        task's row, so the record lists the candidates the exhaustive
        rules would see.  ``eas.walk_skips`` counts only what the
        selection walk left unread, with or without ``record``.
        """
        self._hits = self._fresh = self._skips = 0
        summaries = {task_name: self._walk(task_name) for task_name in ready}
        chosen, outcome = self._select(summaries)
        row: Dict[int, Evaluation] = {}
        if record:
            for _energy, pe_index in self._walk_keys[chosen.task]:
                row[pe_index] = self._lookup(chosen.task, pe_index)
        self._hit_counter.inc(self._hits)
        self._eval_counter.inc(self._fresh)
        self._skip_counter.inc(self._skips)
        rtl_span.set_attribute("cache_hits", self._hits)
        rtl_span.set_attribute("evaluations", self._fresh)
        rtl_span.set_attribute("walk_skips", self._skips)
        return chosen, outcome, row

    # -- main loop ----------------------------------------------------------------

    def run(self) -> Schedule:
        """Schedule every task; returns a structurally valid schedule."""
        schedule = Schedule(self.ctg, self.acg, algorithm=self.algorithm_name)
        # Prefix tasks count as done: they never enter the RTL and their
        # successors only wait for the remaining predecessors.
        self._placements = self.prefix.seed(schedule)
        remaining_preds = self.prefix.open_preds(self.ctg)
        ready = sorted(name for name, n in remaining_preds.items() if n == 0)
        for task_name in ready:
            self._enter_rtl(task_name)

        ins = self._ins
        rescue_counter = ins.metrics.counter("eas.rescues")
        commit_counter = ins.metrics.counter("eas.commits")
        record_decisions = ins.decisions.enabled
        decided: List[TaskDecision] = []

        cache = self._cache
        total_hits = total_invalidations = 0

        with ins.tracer.span(
            "level_schedule",
            algorithm=self.algorithm_name,
            ctg=self.ctg.name,
            tasks=self.ctg.n_tasks,
            pes=len(self.acg.pes),
        ) as level_span:
            while ready:
                with ins.tracer.span("evaluate_rtl", ready=len(ready)) as rtl_span:
                    chosen_eval, outcome, row = self._choose(ready, rtl_span, record_decisions)
                total_hits += self._hits
                chosen_task, chosen_pe = chosen_eval.task, chosen_eval.pe
                placement = commit(chosen_eval, self._tables, self._placements, schedule)
                evicted = cache.invalidate(chosen_eval)
                if evicted:
                    self._invalidation_counter.inc(evicted)
                    total_invalidations += evicted
                ins.tracer.event(
                    "eval_cache_sweep",
                    task=chosen_task,
                    pe=chosen_pe,
                    dirty_resources=len(chosen_eval.windows),
                    evicted=evicted,
                    retained=len(cache),
                )
                commit_counter.inc()
                if outcome.rescue:
                    rescue_counter.inc()
                if record_decisions:
                    bd = self.budgets[chosen_task].budgeted_deadline
                    decision = TaskDecision(
                        task=chosen_task,
                        pe=chosen_pe,
                        algorithm=self.algorithm_name,
                        rescue=outcome.rescue,
                        regret=outcome.regret,
                        start=placement.start,
                        finish=placement.finish,
                        energy=placement.energy,
                        bd=bd,
                        chosen=chosen_eval.candidate(bd),
                        candidates=[
                            ev.candidate(bd)
                            for pe_index, ev in sorted(row.items())
                            if pe_index != chosen_pe
                        ],
                    )
                    ins.decisions.record(decision)
                    decided.append(decision)

                # `ready` is kept sorted: delete by binary search, insert
                # newly ready successors in order (no per-iteration sort).
                del ready[bisect_left(ready, chosen_task)]
                self._walk_keys.pop(chosen_task, None)
                for succ in self.ctg.successors(chosen_task):
                    if succ not in remaining_preds:
                        continue  # prefix successor (recovery resurrect)
                    remaining_preds[succ] -= 1
                    if remaining_preds[succ] == 0:
                        insort(ready, succ)
                        self._enter_rtl(succ)

            level_span.set_attribute("cache_hits", total_hits)
            level_span.set_attribute("cache_invalidations", total_invalidations)

        if len(self._placements) != self.ctg.n_tasks:
            raise SchedulingError(
                "level-based scheduling finished without placing every task"
            )
        schedule.provenance = decided
        return schedule


def run_eas(
    ctg: CTG,
    acg: ACG,
    config: Optional[EASConfig] = None,
    prefix: FrozenPrefix = NO_PREFIX,
    algorithm: Optional[str] = None,
    level_class: Type[LevelBasedScheduler] = LevelBasedScheduler,
    repair: Optional[Callable[..., Tuple[Schedule, RepairReport]]] = None,
) -> Tuple[Schedule, Optional[RepairReport]]:
    """Steps 1-3 of EAS from ``prefix``: the one place they compose.

    Step 1 computes the slack budgets on ``acg``, Step 2 runs
    ``level_class`` on top of ``prefix`` and, when ``config.repair`` is
    on and a deadline is missed, Step 3 runs ``repair`` (default
    :func:`repro.core.repair.search_and_repair`, looked up per call)
    from the same prefix.  Repair only reorders and remaps, so the
    repaired schedule keeps Step 2's decisions as its provenance.
    Returns the schedule and Step 3's report (``None`` when it did not
    run).

    With ``algorithm`` unset this is EAS itself: Steps 1-2 run as the
    ``eas_base`` phase, name the schedule ``eas-base`` and stamp their
    wall time on it.  A named re-plan (degraded-mode recovery) is timed
    by its caller.  The reference oracle swaps in its literal
    ``level_class``, ``repair`` and tables.
    """
    cfg = config or EASConfig()
    if algorithm is None:
        phase = obs.timed_phase("eas_base", ctg=ctg.name)
        name = "eas-base" if cfg.contention_aware else "eas-base-nocontention"
    else:
        phase, name = nullcontext(), algorithm
    with phase as timing:
        budgets = compute_budgets(ctg, acg, weight_policy=cfg.weight_policy)
        schedule = level_class(
            ctg, acg, budgets, algorithm_name=name, contention_aware=cfg.contention_aware, prefix=prefix
        ).run()
    if timing is not None:
        schedule.runtime_seconds = timing.seconds
    if not (cfg.repair and schedule.deadline_misses()):
        return schedule, None
    repair = repair or step3.search_and_repair
    repaired, report = repair(schedule, RepairConfig(max_rounds=cfg.max_repair_rounds), prefix=prefix)
    repaired.provenance = schedule.provenance
    return repaired, report


def eas_base_schedule(ctg: CTG, acg: ACG, config: Optional[EASConfig] = None, **pieces) -> Schedule:
    """EAS without Step 3 (the paper's *EAS-base*).

    The result always satisfies the structural invariants but may miss
    deadlines on tightly constrained inputs.  ``pieces`` go to
    :func:`run_eas`.
    """
    return run_eas(ctg, acg, replace(config or EASConfig(), repair=False), **pieces)[0]


def eas_schedule(ctg: CTG, acg: ACG, config: Optional[EASConfig] = None, **pieces) -> Schedule:
    """The full EAS algorithm (Steps 1-3), as the ``eas`` phase.

    ``pieces`` go to :func:`run_eas`.
    """
    with obs.timed_phase("eas", ctg=ctg.name) as timing:
        schedule, _report = run_eas(ctg, acg, config, **pieces)
    schedule.algorithm = "eas"
    schedule.runtime_seconds = timing.seconds
    return schedule
