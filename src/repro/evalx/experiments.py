"""Experiment runners regenerating every table and figure of the paper.

Each ``run_*`` function reproduces one evaluation artefact:

========  =============================================================
FIG5      energy of EAS-base / EAS / EDF on 10 category-I random graphs
FIG6      same on 10 category-II random graphs (tighter deadlines)
TAB1-3    A/V encoder / decoder / integrated MSB energies per clip
FIG7      energy vs unified performance ratio on the integrated MSB
TXT-RT    search-and-repair runtime overhead
========  =============================================================

Absolute joules differ from the paper (different profiled constants);
the reproduced quantities are the *relationships*: who wins, by what
factor, and how the gap moves with deadline tightness.

Scale: the paper's random graphs have ~500 tasks.  The default here is
150 tasks (minutes-to-seconds difference under pytest); set the
environment variable ``REPRO_FULL=1`` — or pass ``n_tasks=500`` — to run
the paper-scale configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.eas import EASConfig, eas_base_schedule
from repro.core.repair import RepairReport, search_and_repair
from repro.ctg.multimedia import CLIP_NAMES
from repro.obs.decisions import DecisionLog
from repro.parallel.pool import pool_map
from repro.parallel.spec import (
    MSB_SYSTEMS,
    RunResult,
    RunSpec,
    execute_spec,
    paper_benchmark,
)
from repro.schedule.schedule import Schedule

#: Number of random benchmarks per category, as in the paper.
N_RANDOM_BENCHMARKS = 10


def default_n_tasks() -> int:
    """150 tasks by default, 500 (paper scale) under ``REPRO_FULL=1``."""
    return 500 if os.environ.get("REPRO_FULL") == "1" else 150


@dataclass
class ExperimentRow:
    """One benchmark's outcome across the compared schedulers."""

    benchmark: str
    energies: Dict[str, float]
    misses: Dict[str, int]
    runtimes: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    #: per-scheduler observability counters (e.g. ``"eas:evals"``),
    #: captured as deltas of the active obs metrics registry per run.
    metrics: Dict[str, float] = field(default_factory=dict)

    def ratio(self, numerator: str, denominator: str) -> float:
        return self.energies[numerator] / self.energies[denominator]

    def savings_pct(self, better: str, worse: str) -> float:
        """Paper-style savings: 100 * (worse - better) / worse."""
        return 100.0 * (self.energies[worse] - self.energies[better]) / self.energies[worse]


@dataclass
class FigureSeries:
    """An x-axis plus one named y-series per scheduler (a line plot)."""

    x_label: str
    x_values: List[float]
    series: Dict[str, List[float]]


# -- Fig. 5 / Fig. 6: random benchmark suites -----------------------------------


def run_random_category(
    category: int,
    n_benchmarks: int = N_RANDOM_BENCHMARKS,
    n_tasks: Optional[int] = None,
    schedulers: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    eas_config: Optional[EASConfig] = None,
    jobs: Optional[int] = None,
) -> List[ExperimentRow]:
    """The Sec. 6.1 experiment for one category of random benchmarks.

    Compares ``eas-base`` (no repair), ``eas`` (with repair) and ``edf``
    on a 4x4 heterogeneous mesh, exactly the paper's setup.
    ``eas_config`` overrides the EAS knobs (e.g. ``repair=False``).
    ``jobs`` > 1 fans the (benchmark x scheduler) grid out over a process
    pool (``None``/``0`` defers to ``REPRO_JOBS``; 1 runs it in-process);
    rows come back in grid order with identical contents either way.
    """
    n_tasks = n_tasks if n_tasks is not None else default_n_tasks()
    wanted = tuple(schedulers) if schedulers else ("eas-base", "eas", "edf")
    specs = [
        RunSpec(
            scheduler=name,
            benchmark=paper_benchmark("random", category=category, index=index, n_tasks=n_tasks),
            eas_config=eas_config,
            tag=f"cat{category}[{index}]:{name}",
        )
        for index in range(n_benchmarks)
        for name in wanted
    ]
    rows = _rows_from_results(pool_map(execute_spec, specs, jobs=jobs), wanted)
    if progress is not None:
        for index, row in enumerate(rows):
            progress(f"cat{category} benchmark {index}: " + _row_brief(row))
    return rows


def run_fig5(**kwargs) -> List[ExperimentRow]:
    """Fig. 5: category-I comparison (loose deadlines)."""
    return run_random_category(1, **kwargs)


def run_fig6(**kwargs) -> List[ExperimentRow]:
    """Fig. 6: category-II comparison (tight deadlines)."""
    return run_random_category(2, **kwargs)


# -- Tables 1-3: multimedia system benchmarks ----------------------------------

def run_msb_table(
    system: str,
    clips: Sequence[str] = CLIP_NAMES,
    schedulers: Sequence[str] = ("eas", "edf"),
    jobs: Optional[int] = None,
) -> List[ExperimentRow]:
    """Tables 1-3: one row per clip for the chosen multimedia system.

    ``system`` is ``"encoder"`` (Table 1, 24 tasks, 2x2), ``"decoder"``
    (Table 2, 16 tasks, 2x2) or ``"integrated"`` (Table 3, 40 tasks,
    3x3).  Rows carry the computation/communication split and average
    hops per packet, reproducing the Sec. 6.2 textual statistics.
    ``jobs`` > 1 pools the (clip x scheduler) grid; 1 (the default
    resolution) runs it in-process.
    """
    if system not in MSB_SYSTEMS:
        raise ValueError(f"unknown MSB system {system!r}; known: {sorted(MSB_SYSTEMS)}")
    wanted = tuple(schedulers)
    specs = [
        RunSpec(
            scheduler=name,
            benchmark=paper_benchmark(system, clip=clip),
            tag=f"{system}[{clip}]:{name}",
        )
        for clip in clips
        for name in wanted
    ]
    return _rows_from_results(
        pool_map(execute_spec, specs, jobs=jobs), wanted, row_names=list(clips)
    )


# -- Fig. 7: performance/energy trade-off ----------------------------------------


def run_fig7(
    ratios: Sequence[float] = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6),
    clip: str = "foreman",
    schedulers: Sequence[str] = ("eas", "edf"),
) -> FigureSeries:
    """Fig. 7: energy vs required performance on the integrated MSB.

    A unified performance ratio ``r`` raises both the encoding and the
    decoding rate by ``r`` — i.e. divides every deadline by ``r`` — and
    the schedule energy is recorded per scheduler.  A ``float('nan')``
    entry marks a point where a scheduler could not meet the deadlines
    even after repair.  The (ratio x scheduler) grid is pooled like every
    other grid, with the worker count taken from ``REPRO_JOBS``.
    """
    specs = [
        RunSpec(
            scheduler=name,
            benchmark=paper_benchmark("integrated", clip=clip, deadline_scale=1.0 / ratio),
            tag=f"fig7[{ratio:g}]:{name}",
        )
        for ratio in ratios
        for name in schedulers
    ]
    series: Dict[str, List[float]] = {name: [] for name in schedulers}
    for result in pool_map(execute_spec, specs):
        series[result.scheduler].append(float("nan") if result.misses else result.energy)
    return FigureSeries(
        x_label="unified performance ratio",
        x_values=list(ratios),
        series=series,
    )


# -- Sec. 6.1 runtime discussion ---------------------------------------------------


def run_repair_runtime(
    category: int = 2,
    n_benchmarks: int = N_RANDOM_BENCHMARKS,
    n_tasks: Optional[int] = None,
    deadline_scale: float = 1.0,
    repair: Callable[[Schedule], Tuple[Schedule, RepairReport]] = search_and_repair,
) -> List[ExperimentRow]:
    """Runtime overhead of search-and-repair on the miss-y benchmarks.

    Reproduces the Sec. 6.1 observation that repair fixes all misses at
    negligible energy cost but measurably longer scheduler runtime.
    Only benchmarks where EAS-base actually misses produce a row.

    ``deadline_scale`` < 1 tightens every deadline by that factor — the
    guaranteed-miss preset knob (at the default scale whole suites can
    be schedulable, and this experiment silently produces no rows).
    ``repair`` replaces :func:`~repro.core.repair.search_and_repair`
    (e.g. with :func:`repro.core.reference.full_rebuild_repair`), so
    callers can A/B repair engines on identical inputs.
    """
    n_tasks = n_tasks if n_tasks is not None else default_n_tasks()
    rows: List[ExperimentRow] = []
    for index in range(n_benchmarks):
        ctg, acg = paper_benchmark(
            "random",
            category=category,
            index=index,
            n_tasks=n_tasks,
            deadline_scale=deadline_scale,
        ).build()
        base = eas_base_schedule(ctg, acg)
        if not base.deadline_misses():
            continue
        with obs.timed_phase("repair_runtime.repair", ctg=ctg.name) as timing:
            repaired, report = repair(base)
        repair_seconds = timing.seconds
        rows.append(
            ExperimentRow(
                benchmark=ctg.name,
                energies={"eas-base": base.total_energy(), "eas": repaired.total_energy()},
                misses={
                    "eas-base": len(base.deadline_misses()),
                    "eas": len(repaired.deadline_misses()),
                },
                runtimes={
                    "eas-base": base.runtime_seconds,
                    "eas": base.runtime_seconds + repair_seconds,
                },
                extras={
                    "swaps_accepted": report.swaps_accepted,
                    "migrations_accepted": report.migrations_accepted,
                },
            )
        )
    return rows


# -- diff support ---------------------------------------------------------------------


def schedules_for_specs(
    specs: Sequence[RunSpec], jobs: Optional[int] = None
) -> List[Schedule]:
    """Run ``specs`` (pooled via ``jobs``) and return the full schedules.

    The engine behind in-process ``repro-noc diff`` endpoints: each spec
    ships its committed schedule home as a serialized document and the
    parent rebuilds it against a locally-built CTG/ACG pair.  The map
    runs under a decision-recording bundle, so the pool's workers record
    provenance and the v2 document carries it even without ``--trace``.
    The serialize/rebuild roundtrip is float-exact and the rebuild order
    is spec order, so ``jobs=2`` yields schedules identical to ``jobs=1``.
    """
    from repro.schedule.serialization import schedule_from_dict

    prepared = [replace(spec, return_schedule=True) for spec in specs]
    ins = obs.get()
    if not ins.decisions.enabled:
        ins = replace(ins, decisions=DecisionLog(enabled=True))
    with obs.activate(ins):
        results = pool_map(execute_spec, prepared, jobs=jobs)
    schedules: List[Schedule] = []
    for spec, result in zip(prepared, results):
        if result.schedule_doc is None:
            raise ValueError(f"spec {spec.tag!r} returned no schedule document")
        ctg, acg = spec.benchmark.build()
        schedules.append(schedule_from_dict(result.schedule_doc, ctg, acg))
    return schedules


# -- shared helpers -------------------------------------------------------------------


def _rows_from_results(
    results: Sequence[RunResult],
    schedulers: Tuple[str, ...],
    row_names: Optional[Sequence[str]] = None,
) -> List[ExperimentRow]:
    """Reassemble per-cell results into table rows.

    ``results`` is the flat grid in (benchmark-major, scheduler-minor)
    spec order; every group of ``len(schedulers)`` cells becomes one
    :class:`ExperimentRow`, its dicts keyed in scheduler order.
    ``row_names`` overrides the benchmark label per row (the MSB tables
    label rows by clip, not by CTG name).
    """
    width = len(schedulers)
    if width == 0 or len(results) % width:
        raise ValueError(
            f"result grid of {len(results)} cells does not tile {width} schedulers"
        )
    rows: List[ExperimentRow] = []
    for start in range(0, len(results), width):
        cells = results[start : start + width]
        energies: Dict[str, float] = {}
        misses: Dict[str, int] = {}
        runtimes: Dict[str, float] = {}
        extras: Dict[str, float] = {}
        metrics: Dict[str, float] = {}
        for name, cell in zip(schedulers, cells):
            if cell.scheduler != name:
                raise ValueError(
                    f"grid cell {cell.tag!r} is {cell.scheduler!r}, expected {name!r}"
                )
            energies[name] = cell.energy
            misses[name] = cell.misses
            runtimes[name] = cell.runtime_seconds
            extras[f"{name}:comp"] = cell.comp_energy
            extras[f"{name}:comm"] = cell.comm_energy
            extras[f"{name}:hops"] = cell.hops
            metrics.update(_headline_metrics(name, cell.headline_counters))
            metrics[f"{name}:peakpe"] = cell.peakpe
            metrics[f"{name}:cwait"] = cell.cwait
        benchmark = cells[0].benchmark
        if row_names is not None:
            benchmark = row_names[start // width]
        rows.append(
            ExperimentRow(
                benchmark=benchmark,
                energies=energies,
                misses=misses,
                runtimes=runtimes,
                extras=extras,
                metrics=metrics,
            )
        )
    return rows


def _headline_metrics(scheduler: str, counters: Dict[str, float]) -> Dict[str, float]:
    """One cell's counters condensed to the reporting columns.

    ``<scheduler>:evals`` sums every ``*.evaluations`` counter the run
    incremented; ``<scheduler>:moves`` sums accepted repair moves;
    ``<scheduler>:hits`` is the evaluation-cache hit count (0 for the
    naive path and non-EAS schedulers).
    """
    return {
        f"{scheduler}:evals": sum(
            value for key, value in counters.items() if key.endswith(".evaluations")
        ),
        f"{scheduler}:moves": counters.get("repair.lts_moves", 0.0)
        + counters.get("repair.gtm_moves", 0.0),
        f"{scheduler}:hits": counters.get("eas.cache_hits", 0.0),
    }


def _row_brief(row: ExperimentRow) -> str:
    parts = [f"{name}={energy:.3e}" for name, energy in row.energies.items()]
    miss = ", ".join(f"{name}:{n}" for name, n in row.misses.items() if n)
    return " ".join(parts) + (f" misses[{miss}]" if miss else "")


def average_extra_energy_pct(rows: Sequence[ExperimentRow], worse: str, better: str) -> float:
    """Paper headline metric: mean of ``(worse/better - 1) * 100`` over rows."""
    ratios = [row.ratio(worse, better) for row in rows]
    return 100.0 * (sum(ratios) / len(ratios) - 1.0)
