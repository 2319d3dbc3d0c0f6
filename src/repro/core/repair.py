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
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro import obs
from repro.core.comm import incoming_comm_energy, outgoing_comm_energy
from repro.core.increbuild import IncrementalRebuilder
from repro.core.rebuild import NO_PREFIX, FrozenPrefix, MissMetric, miss_metric, rebuild_schedule
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

    @property
    def fixed_all(self) -> bool:
        return self.final_misses == 0

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
    report = RepairReport()
    current = schedule
    metric = miss_metric(current)
    report.initial_misses = metric[0]
    report.initial_energy = current.total_energy()

    mapping = dict(current.mapping())
    orders = {pe: list(tasks) for pe, tasks in current.pe_order().items()}
    rng = random.Random(cfg.seed) if cfg.seed is not None else None
    engine = engine_class(
        current.ctg, current.acg, mapping, orders, algorithm=current.algorithm, prefix=prefix
    )
    # Destination rankings per task, valid until a migration is accepted.
    destinations: Dict[str, List[int]] = {}

    ins = obs.get()
    round_counter = ins.metrics.counter("repair.rounds")
    with ins.tracer.span(
        "search_and_repair", ctg=schedule.ctg.name, initial_misses=report.initial_misses
    ) as span:
        while metric[0] > 0 and report.rounds < cfg.max_rounds:
            report.rounds += 1
            round_counter.inc()
            current, mapping, orders, metric, lts_improved = _lts_pass(
                current, mapping, orders, metric, report, engine, rng
            )
            if metric[0] == 0:
                break
            current, mapping, orders, metric, gtm_improved = _gtm_pass(
                current, mapping, orders, metric, report, cfg, engine, destinations, rng
            )
            if not lts_improved and not gtm_improved:
                break  # fixed point: no move helps
        span.set_attribute("rounds", report.rounds)
        span.set_attribute("final_misses", metric[0])

    report.final_misses = metric[0]
    report.final_energy = current.total_energy()
    return current, report


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

    @property
    def winner_report(self) -> RepairReport:
        return self.winner_outcome.report

    def describe(self) -> str:
        w = self.winner_outcome
        seed = "paper-order" if w.seed is None else f"seed {w.seed}"
        return (
            f"repair portfolio: {len(self.outcomes)} start(s) x {self.jobs} job(s), "
            f"winner start {w.start} ({seed}): misses "
            f"{w.report.initial_misses}->{w.misses}, energy {w.energy:.6g} nJ"
        )


@dataclass(frozen=True)
class _StartPayload:
    """Picklable description of one portfolio start (shared-nothing)."""

    ctg: object
    acg: object
    mapping: Dict[str, int]
    orders: Dict[int, List[str]]
    algorithm: str
    config: RepairConfig
    start: int


def _portfolio_start(payload: "_StartPayload") -> Dict[str, object]:
    """Worker entry: rebuild the base schedule, repair it, ship the outcome.

    Runs inside a fresh disabled bundle so worker-side counters never
    race the parent registry; the registry travels home in the result
    and is merged by the parent in start order.
    """
    bundle = obs.Instrumentation.disabled()
    with obs.activate(bundle):
        schedule = rebuild_schedule(
            payload.ctg, payload.acg, payload.mapping, payload.orders,
            algorithm=payload.algorithm,
        )
        repaired, report = search_and_repair(schedule, payload.config)
        metric = miss_metric(repaired)
    return {
        "start": payload.start,
        "seed": payload.config.seed,
        "mapping": repaired.mapping(),
        "orders": repaired.pe_order(),
        "misses": metric[0],
        "tardiness": metric[1],
        "energy": repaired.total_energy(),
        "report": report,
        "metrics": bundle.metrics,
    }


def multistart_search_and_repair(
    schedule: Schedule,
    starts: int = 4,
    jobs: Optional[int] = None,
    config: Optional[RepairConfig] = None,
    base_seed: int = 0,
) -> Tuple[Schedule, PortfolioReport]:
    """Run ``starts`` seeded repair portfolios and keep the best schedule.

    Start 0 always uses the paper-literal deterministic orderings
    (``seed=None``), so the portfolio can never do worse than plain
    :func:`search_and_repair`; starts ``k >= 1`` jitter the criticality
    and destination rankings with seed ``base_seed + k``.  ``jobs`` > 1
    fans the starts out over the shared-nothing process pool.  The
    winner is the first deadline-feasible, lowest-energy schedule
    (ties: fewer misses, lower tardiness, lower start index — fully
    deterministic for fixed seeds regardless of worker count).
    """
    from repro.parallel.pool import pool_map, resolve_jobs

    cfg = config or RepairConfig()
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if not schedule.deadline_misses():
        # Nothing to repair: the portfolio is a no-op, as search_and_repair is.
        report = RepairReport()
        report.initial_energy = report.final_energy = schedule.total_energy()
        outcome = StartOutcome(
            start=0, seed=None, misses=0, tardiness=0.0,
            energy=schedule.total_energy(), report=report,
        )
        return schedule, PortfolioReport(outcomes=[outcome], winner=0, jobs=1)

    mapping = dict(schedule.mapping())
    orders = {pe: list(tasks) for pe, tasks in schedule.pe_order().items()}
    payloads = [
        _StartPayload(
            ctg=schedule.ctg,
            acg=schedule.acg,
            mapping=mapping,
            orders=orders,
            algorithm=schedule.algorithm,
            config=replace(cfg, seed=None if k == 0 else base_seed + k),
            start=k,
        )
        for k in range(starts)
    ]
    jobs = resolve_jobs(jobs)
    ins = obs.get()
    ins.metrics.counter("repair.portfolio_starts").inc(starts)
    raw = pool_map(
        _portfolio_start,
        payloads,
        jobs=jobs,
        label="repair_portfolio",
        finalize=lambda result: ins.metrics.merge(result["metrics"]),
    )

    outcomes = [
        StartOutcome(
            start=result["start"],
            seed=result["seed"],
            misses=result["misses"],
            tardiness=result["tardiness"],
            energy=result["energy"],
            report=result["report"],
        )
        for result in raw
    ]
    winner = min(
        range(len(outcomes)),
        key=lambda i: (
            outcomes[i].misses,
            outcomes[i].tardiness,
            outcomes[i].energy,
            outcomes[i].start,
        ),
    )
    portfolio = PortfolioReport(outcomes=outcomes, winner=winner, jobs=jobs)
    ins.tracer.event(
        "repair.portfolio_winner",
        start=outcomes[winner].start,
        misses=outcomes[winner].misses,
        energy=outcomes[winner].energy,
    )
    # Rebuild the winner locally: rebuild is deterministic in
    # (mapping, orders), so the parent-side schedule is exactly the
    # worker's, whatever process produced it.
    best = rebuild_schedule(
        schedule.ctg, schedule.acg,
        raw[winner]["mapping"], raw[winner]["orders"],
        algorithm=schedule.algorithm,
    )
    best.runtime_seconds = schedule.runtime_seconds
    return best, portfolio


# -- local task swapping -------------------------------------------------------


def _lts_pass(
    schedule: Schedule,
    mapping: Dict[str, int],
    orders: Dict[int, List[str]],
    metric: MissMetric,
    report: RepairReport,
    engine: IncrementalRebuilder,
    rng: Optional[random.Random] = None,
) -> Tuple[Schedule, Dict[str, int], Dict[int, List[str]], MissMetric, bool]:
    """One LTS sweep: try to pull every critical task earlier on its PE."""
    improved_any = False
    frozen = engine.prefix.tasks
    progress = True
    while progress and metric[0] > 0:
        progress = False
        critical = critical_tasks(schedule)
        for task in _jittered(_criticality_order(schedule, critical), rng):
            if task in frozen:
                continue
            pe = mapping[task]
            order = orders[pe]
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
                candidate_orders = dict(orders)
                candidate_orders[pe] = candidate_order
                rebuilt = engine.evaluate(mapping, candidate_orders, metric)
                if rebuilt is None:
                    continue
                candidate_metric = miss_metric(rebuilt)
                if candidate_metric < metric:
                    engine.promote()
                    orders[pe] = candidate_order
                    schedule = rebuilt
                    metric = candidate_metric
                    report.swaps_accepted += 1
                    ins = obs.get()
                    ins.metrics.counter("repair.lts_moves").inc()
                    ins.tracer.event(
                        "repair.lts_accept",
                        task=task,
                        swapped_with=other,
                        pe=pe,
                        misses=candidate_metric[0],
                    )
                    improved_any = True
                    progress = True
                    break  # re-derive criticality from the new schedule
            if progress:
                break
    return schedule, mapping, orders, metric, improved_any


# -- global task migration ------------------------------------------------------


def _gtm_pass(
    schedule: Schedule,
    mapping: Dict[str, int],
    orders: Dict[int, List[str]],
    metric: MissMetric,
    report: RepairReport,
    cfg: RepairConfig,
    engine: IncrementalRebuilder,
    destinations: Dict[str, List[int]],
    rng: Optional[random.Random] = None,
) -> Tuple[Schedule, Dict[str, int], Dict[int, List[str]], MissMetric, bool]:
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
    frozen = engine.prefix.tasks
    critical = [
        task
        for task in _jittered(_criticality_order(schedule, critical_tasks(schedule)), rng)
        if task not in frozen
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
        result = _try_migrations(
            schedule, mapping, orders, metric, report, cfg, engine, candidates
        )
        if result is not None:
            destinations.clear()
            return result
    return schedule, mapping, orders, metric, False


def _try_migrations(
    schedule: Schedule,
    mapping: Dict[str, int],
    orders: Dict[int, List[str]],
    metric: MissMetric,
    report: RepairReport,
    cfg: RepairConfig,
    engine: IncrementalRebuilder,
    candidates,
) -> Optional[Tuple[Schedule, Dict[str, int], Dict[int, List[str]], MissMetric, bool]]:
    """Try candidate (task, dest) migrations; return on first acceptance."""
    attempts = 0
    for task, dest_pe in candidates:
        source_pe = mapping[task]
        if dest_pe == source_pe:
            continue
        if attempts >= cfg.max_migrations_per_round:
            return None
        attempts += 1
        report.migrations_tried += 1
        candidate_mapping = dict(mapping)
        candidate_mapping[task] = dest_pe
        candidate_orders = {pe: list(names) for pe, names in orders.items()}
        candidate_orders[source_pe].remove(task)
        _insert_by_start(candidate_orders.setdefault(dest_pe, []), task, schedule)
        rebuilt = engine.evaluate(candidate_mapping, candidate_orders, metric)
        if rebuilt is None:
            continue
        candidate_metric = miss_metric(rebuilt)
        if candidate_metric < metric:
            engine.promote()
            report.migrations_accepted += 1
            ins = obs.get()
            ins.metrics.counter("repair.gtm_moves").inc()
            ins.tracer.event(
                "repair.gtm_accept",
                task=task,
                src_pe=source_pe,
                dst_pe=dest_pe,
                misses=candidate_metric[0],
            )
            return rebuilt, candidate_mapping, candidate_orders, candidate_metric, True
    return None


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

