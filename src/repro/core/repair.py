"""EAS Step 3: search and repair (paper Sec. 5 Step 3, Fig. 4).

When the level-based schedule misses deadlines, two greedy move kinds
iteratively reduce the misses:

* **Local task swapping (LTS):** a *critical* task swaps execution order
  with a *non-critical* task scheduled earlier on the same PE.  Mapping
  is untouched, so neither computation nor communication energy changes;
  only timing moves.
* **Global task migration (GTM):** a critical task migrates to another
  PE; candidate destinations are tried in increasing order of the
  (computation + incident communication) energy the task would cost
  there, so the cheapest repair in energy terms is found first.

A task is critical when it misses its own deadline or is an ancestor of
a task that does.  A move is accepted only if the miss metric — the pair
``(number of missed deadlines, total tardiness)`` compared
lexicographically — strictly decreases; otherwise it is rolled back
(Fig. 4's accept/reject boxes).  Strict decrease plus a round bound make
the procedure converge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro import obs
from repro.core.comm import incoming_comm_energy, outgoing_comm_energy
from repro.core.increbuild import IncrementalRebuilder
from repro.core.rebuild import NO_PREFIX, FrozenPrefix, MissMetric, miss_metric
from repro.errors import RoutingError
from repro.schedule.schedule import Schedule


@dataclass
class RepairConfig:
    """Bounds and policies of the search-and-repair loop."""

    max_rounds: int = 64
    #: maximum GTM migrations attempted per round before giving up.
    max_migrations_per_round: int = 256
    #: ``None`` keeps the paper-literal deterministic move orderings;
    #: an integer seeds a private RNG that *jitters* the criticality and
    #: destination rankings — the diversification knob the multi-start
    #: portfolio uses.  Never reads global ``random`` state.
    seed: Optional[int] = None


@dataclass
class RepairReport:
    """What the repair loop did (for the Sec. 6.1 runtime discussion)."""

    rounds: int = 0
    swaps_tried: int = 0
    swaps_accepted: int = 0
    migrations_tried: int = 0
    migrations_accepted: int = 0
    initial_misses: int = 0
    final_misses: int = 0
    initial_energy: float = 0.0
    final_energy: float = 0.0

    def __repr__(self) -> str:
        return (
            f"RepairReport(rounds={self.rounds}, swaps={self.swaps_accepted}/"
            f"{self.swaps_tried}, migrations={self.migrations_accepted}/"
            f"{self.migrations_tried}, misses {self.initial_misses}->{self.final_misses})"
        )


def critical_tasks(schedule: Schedule) -> Set[str]:
    """Tasks that miss their deadline or feed a task that does.

    Matches the paper's note that a critical task "may not necessarily
    have a specified deadline, but it causes one of its descendant tasks
    to miss its deadline".
    """
    critical: Set[str] = set()
    for miss in schedule.deadline_misses():
        critical.add(miss)
        critical.update(schedule.ctg.ancestors(miss))
    return critical


def search_and_repair(
    schedule: Schedule,
    config: Optional[RepairConfig] = None,
    prefix: FrozenPrefix = NO_PREFIX,
) -> Tuple[Schedule, RepairReport]:
    """Fig. 4's repair flow: alternate LTS passes and GTM moves.

    Returns the best schedule found (the input schedule itself when no
    move helps) and a :class:`RepairReport`.  The returned schedule may
    still miss deadlines if the instance is simply infeasible.  The
    tasks of ``prefix`` are frozen: never swapped, never migrated and
    never used as a swap partner; every candidate is rebuilt on top of
    the prefix.
    """
    return _repair(schedule, config, prefix, IncrementalRebuilder)


def _repair(
    schedule: Schedule,
    config: Optional[RepairConfig],
    prefix: FrozenPrefix,
    engine_class: Type[IncrementalRebuilder],
) -> Tuple[Schedule, RepairReport]:
    """:func:`search_and_repair` evaluating candidates with ``engine_class``.

    The production engine answers each candidate with the schedule a
    full rebuild would produce, or ``None`` for a candidate it proves
    the caller would reject; the reference oracle subclasses it with a
    literal full rebuild per candidate.
    """
    cfg = config or RepairConfig()
    incumbent = _Incumbent(schedule, engine_class, prefix)
    report = RepairReport()
    report.initial_misses = incumbent.metric[0]
    report.initial_energy = schedule.total_energy()
    rng = random.Random(cfg.seed) if cfg.seed is not None else None
    # Destination rankings per task, valid until a migration is accepted.
    destinations: Dict[str, List[int]] = {}

    ins = obs.get()
    round_counter = ins.metrics.counter("repair.rounds")
    with ins.tracer.span(
        "search_and_repair", ctg=schedule.ctg.name, initial_misses=report.initial_misses
    ) as span:
        while incumbent.metric[0] > 0 and report.rounds < cfg.max_rounds:
            report.rounds += 1
            round_counter.inc()
            lts_improved = _lts_pass(incumbent, report, rng)
            if incumbent.metric[0] == 0:
                break
            gtm_improved = _gtm_pass(incumbent, report, cfg, destinations, rng)
            if not lts_improved and not gtm_improved:
                break  # fixed point: no move helps
        span.set_attribute("rounds", report.rounds)
        span.set_attribute("final_misses", incumbent.metric[0])

    report.final_misses = incumbent.metric[0]
    report.final_energy = incumbent.schedule.total_energy()
    return incumbent.schedule, report


class _Incumbent:
    """The repair loop's current schedule, its mapping, orders and miss metric.

    :meth:`accept` is Fig. 4's accept/reject box for both move kinds:
    the only place the four values change.
    """

    def __init__(
        self,
        schedule: Schedule,
        engine_class: Type[IncrementalRebuilder],
        prefix: FrozenPrefix,
    ) -> None:
        self.schedule = schedule
        self.mapping: Dict[str, int] = dict(schedule.mapping())
        self.orders: Dict[int, List[str]] = {
            pe: list(tasks) for pe, tasks in schedule.pe_order().items()
        }
        self.metric: MissMetric = miss_metric(schedule)
        self.engine = engine_class(
            schedule.ctg, schedule.acg, self.mapping, self.orders,
            algorithm=schedule.algorithm, prefix=prefix,
        )
        self.frozen = prefix.tasks

    def accept(
        self, mapping: Dict[str, int], orders: Dict[int, List[str]], kind: str, **event
    ) -> bool:
        """Adopt the candidate iff its rebuild strictly lowers the miss metric.

        ``kind`` (``"lts"`` or ``"gtm"``) names the ``repair.<kind>_moves``
        counter and the ``repair.<kind>_accept`` event, which carries
        ``event`` plus the new miss count.
        """
        rebuilt = self.engine.evaluate(mapping, orders, self.metric)
        if rebuilt is None:
            return False
        metric = miss_metric(rebuilt)
        if not metric < self.metric:
            return False
        self.engine.promote()
        self.schedule, self.mapping, self.orders, self.metric = rebuilt, mapping, orders, metric
        ins = obs.get()
        ins.metrics.counter(f"repair.{kind}_moves").inc()
        ins.tracer.event(f"repair.{kind}_accept", **event, misses=metric[0])
        return True


# -- multi-start portfolio ------------------------------------------------------


@dataclass(frozen=True)
class StartOutcome:
    """How one seeded start of the portfolio ended."""

    start: int
    seed: Optional[int]
    misses: int
    tardiness: float
    energy: float
    report: RepairReport

    @property
    def feasible(self) -> bool:
        return self.misses == 0


@dataclass
class PortfolioReport:
    """Outcome of :func:`multistart_search_and_repair` across all starts."""

    outcomes: List[StartOutcome] = field(default_factory=list)
    winner: int = 0
    jobs: int = 1

    @property
    def winner_outcome(self) -> StartOutcome:
        return self.outcomes[self.winner]

    def describe(self) -> str:
        w = self.winner_outcome
        seed = "paper-order" if w.seed is None else f"seed {w.seed}"
        return (
            f"repair portfolio: {len(self.outcomes)} start(s) x {self.jobs} job(s), "
            f"winner start {w.start} ({seed}): misses "
            f"{w.report.initial_misses}->{w.misses}, energy {w.energy:.6g} nJ"
        )


def multistart_search_and_repair(
    schedule: Schedule,
    starts: int = 4,
    jobs: Optional[int] = None,
    config: Optional[RepairConfig] = None,
) -> Tuple[Schedule, PortfolioReport]:
    """Run ``starts`` seeded repairs of ``schedule`` and keep the best result.

    Every start runs :func:`search_and_repair` on ``schedule`` itself.
    Start 0 uses the paper-literal deterministic orderings
    (``seed=None``), so it *is* plain repair and the portfolio can never
    do worse; starts ``k >= 1`` jitter the criticality and destination
    rankings with seed ``k``.  ``jobs`` > 1 fans the starts
    out over the shared-nothing process pool, which ships the schedule
    to each worker and the repaired schedule back.  The winner is the
    first deadline-feasible, lowest-energy schedule (ties: fewer misses,
    lower tardiness, lower start index — fully deterministic for fixed
    seeds regardless of worker count).  A schedule that misses no
    deadline gets one in-process start, which returns it unchanged.
    """
    from repro.parallel.pool import pool_map, resolve_jobs

    cfg = config or RepairConfig()
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if schedule.deadline_misses():
        jobs = resolve_jobs(jobs)
    else:
        starts = jobs = 1  # nothing to repair: one no-op start, in-process
    configs = [replace(cfg, seed=None if k == 0 else k) for k in range(starts)]
    ins = obs.get()
    ins.metrics.counter("repair.portfolio_starts").inc(starts)
    results = pool_map(
        partial(search_and_repair, schedule), configs, jobs=jobs, label="repair_portfolio"
    )

    outcomes = []
    for k, (repaired, report) in enumerate(results):
        misses, tardiness = miss_metric(repaired)
        outcomes.append(
            StartOutcome(k, configs[k].seed, misses, tardiness, repaired.total_energy(), report)
        )
    winner = min(
        range(starts),
        key=lambda i: (outcomes[i].misses, outcomes[i].tardiness, outcomes[i].energy, i),
    )
    ins.tracer.event(
        "repair.portfolio_winner",
        start=winner,
        misses=outcomes[winner].misses,
        energy=outcomes[winner].energy,
    )
    return results[winner][0], PortfolioReport(outcomes=outcomes, winner=winner, jobs=jobs)


# -- local task swapping -------------------------------------------------------


def _lts_pass(
    incumbent: _Incumbent, report: RepairReport, rng: Optional[random.Random] = None
) -> bool:
    """One LTS sweep: try to pull every critical task earlier on its PE."""
    improved_any = False
    frozen = incumbent.frozen
    progress = True
    while progress and incumbent.metric[0] > 0:
        progress = False
        critical = critical_tasks(incumbent.schedule)
        for task in _jittered(_criticality_order(incumbent.schedule, critical), rng):
            if task in frozen:
                continue
            pe = incumbent.mapping[task]
            order = incumbent.orders[pe]
            idx = order.index(task)
            # Try swapping with non-critical tasks scheduled earlier,
            # nearest first (smallest perturbation first).
            for j in range(idx - 1, -1, -1):
                other = order[j]
                if other in critical or other in frozen:
                    continue
                report.swaps_tried += 1
                candidate_order = list(order)
                candidate_order[idx], candidate_order[j] = (
                    candidate_order[j],
                    candidate_order[idx],
                )
                candidate_orders = dict(incumbent.orders)
                candidate_orders[pe] = candidate_order
                if incumbent.accept(
                    incumbent.mapping, candidate_orders, "lts", task=task, swapped_with=other, pe=pe
                ):
                    report.swaps_accepted += 1
                    improved_any = True
                    progress = True
                    break  # re-derive criticality from the new schedule
            if progress:
                break
    return improved_any


# -- global task migration ------------------------------------------------------


def _gtm_pass(
    incumbent: _Incumbent,
    report: RepairReport,
    cfg: RepairConfig,
    destinations: Dict[str, List[int]],
    rng: Optional[random.Random] = None,
) -> bool:
    """Attempt one accepted migration (Fig. 4 returns to LTS after it).

    Two sweeps over the candidate space, each bounded by
    ``cfg.max_migrations_per_round`` attempts:

    1. the paper's ordering — critical tasks by urgency, destinations by
       increasing (computation + communication) energy, so the cheapest
       fix in energy terms is found first;
    2. a *load-relief* fallback — candidates re-ranked to move tasks off
       the busiest PEs onto the idlest ones.  Pure energy ordering can
       exhaust its attempt budget on hopeless moves when many tasks are
       critical; the relief ordering targets the capacity bottleneck
       that usually causes the miss (our addition; the paper does not
       specify behaviour when the energy-ordered search fails).

    ``destinations`` caches the energy rankings, which depend only on
    (task, mapping); an accepted migration clears it.
    """
    schedule, mapping = incumbent.schedule, incumbent.mapping
    critical = [
        task
        for task in _jittered(_criticality_order(schedule, critical_tasks(schedule)), rng)
        if task not in incumbent.frozen
    ]

    def ranked(task: str) -> List[int]:
        if task not in destinations:
            destinations[task] = _destinations_by_energy(schedule, task, mapping)
        return destinations[task]

    energy_sweep = (
        (task, dest_pe) for task in critical for dest_pe in _jittered(ranked(task), rng)
    )
    relief_sweep = _load_relief_candidates(schedule, mapping, critical)
    for candidates in (energy_sweep, relief_sweep):
        if _try_migrations(incumbent, report, cfg, candidates):
            destinations.clear()
            return True
    return False


def _try_migrations(
    incumbent: _Incumbent, report: RepairReport, cfg: RepairConfig, candidates
) -> bool:
    """Try candidate (task, dest) migrations; stop at the first acceptance."""
    schedule, mapping, orders = incumbent.schedule, incumbent.mapping, incumbent.orders
    attempts = 0
    for task, dest_pe in candidates:
        source_pe = mapping[task]
        if dest_pe == source_pe:
            continue
        if attempts >= cfg.max_migrations_per_round:
            return False
        attempts += 1
        report.migrations_tried += 1
        candidate_mapping = dict(mapping)
        candidate_mapping[task] = dest_pe
        candidate_orders = {pe: list(names) for pe, names in orders.items()}
        candidate_orders[source_pe].remove(task)
        _insert_by_start(candidate_orders.setdefault(dest_pe, []), task, schedule)
        if incumbent.accept(
            candidate_mapping, candidate_orders, "gtm", task=task, src_pe=source_pe, dst_pe=dest_pe
        ):
            report.migrations_accepted += 1
            return True
    return False


def _load_relief_candidates(
    schedule: Schedule,
    mapping: Dict[str, int],
    critical: List[str],
):
    """(task, dest) pairs moving work from the busiest PEs to the idlest.

    Tasks are grouped by the busy time of their current PE (most loaded
    first, then by criticality order within a PE); destinations are
    ranked by ascending busy time so idle tiles are tried first.
    """
    acg = schedule.acg
    ctg = schedule.ctg
    load: Dict[int, float] = {pe.index: 0.0 for pe in acg.pes}
    for placement in schedule.task_placements.values():
        load[placement.pe] += placement.duration

    # Rank lookup must be O(1): ``critical.index(t)`` inside the sort key
    # is a linear scan, turning this sort quadratic on large critical sets.
    rank = {name: position for position, name in enumerate(critical)}
    ranked_tasks = sorted(critical, key=lambda t: (-load[mapping[t]], rank[t]))
    dest_order = sorted(load, key=lambda pe: load[pe])
    for task in ranked_tasks:
        task_obj = ctg.task(task)
        for dest_pe in dest_order:
            if not acg.pe_available(dest_pe):
                continue
            if task_obj.cost_on(acg.pe(dest_pe).type_name).feasible:
                yield task, dest_pe


def _destinations_by_energy(
    schedule: Schedule, task: str, mapping: Dict[str, int]
) -> List[int]:
    """Candidate PEs in increasing (computation + communication) energy.

    The communication term counts the task's incident edges against the
    current mapping of its neighbours — the paper's "increasing order of
    the execution and communication energy if that task is to be migrated
    onto the corresponding PEs".
    """
    ctg, acg = schedule.ctg, schedule.acg
    task_obj = ctg.task(task)
    ranked: List[Tuple[float, int]] = []
    for pe in acg.pes:
        if not acg.pe_available(pe.index):
            continue
        cost = task_obj.cost_on(pe.type_name)
        if not cost.feasible:
            continue
        try:
            energy = (
                cost.energy
                + incoming_comm_energy(ctg, acg, task, pe.index, mapping)
                + outgoing_comm_energy(ctg, acg, task, pe.index, mapping)
            )
        except RoutingError:
            # Degraded platform: a partition leaves no route between this
            # PE and a mapped neighbour — the migration cannot be built.
            continue
        ranked.append((energy, pe.index))
    ranked.sort()
    return [pe_index for _energy, pe_index in ranked]


def _insert_by_start(order: List[str], task: str, schedule: Schedule) -> None:
    """Insert a migrated task into a PE order at its old temporal position."""
    start = schedule.placement(task).start
    for i, name in enumerate(order):
        if schedule.placement(name).start > start:
            order.insert(i, task)
            return
    order.append(task)


def _jittered(ranked: Sequence, rng: Optional[random.Random]) -> List:
    """A lightly shaken copy of a ranked list (identity when ``rng`` is None).

    Each element's rank gets a uniform [0, 2) bump before re-sorting, so
    neighbours may swap but the heuristic's head stays near the front —
    enough diversification for a multi-start portfolio without degrading
    any single start into a random walk.
    """
    ranked = list(ranked)
    if rng is None or len(ranked) < 2:
        return ranked
    keys = [index + rng.uniform(0.0, 2.0) for index in range(len(ranked))]
    return [ranked[index] for index in sorted(range(len(ranked)), key=keys.__getitem__)]


def _criticality_order(schedule: Schedule, critical: Set[str]) -> List[str]:
    """Critical tasks, most urgent first.

    Urgency is the tardiness of the worst descendant miss the task
    contributes to; direct misses come before mere ancestors, bigger
    tardiness before smaller.
    """
    misses = schedule.deadline_misses()
    tardiness = {
        name: schedule.placement(name).finish - schedule.ctg.task(name).deadline
        for name in misses
    }
    miss_ancestors = {m: schedule.ctg.ancestors(m) for m in misses}

    def urgency(name: str) -> Tuple[int, float, str]:
        own = tardiness.get(name)
        if own is not None:
            return (0, -own, name)
        worst = max(
            (tardiness[m] for m in misses if name in miss_ancestors[m]),
            default=0.0,
        )
        return (1, -worst, name)

    return sorted(critical, key=urgency)

