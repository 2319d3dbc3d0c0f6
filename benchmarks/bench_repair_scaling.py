"""REPAIR — incremental dirty-cone repair vs paper-literal full rebuilds.

Every Step-3 candidate move used to cost a full ``rebuild_schedule``
(all tasks list-scheduled, all transactions replayed from empty tables).
The incremental engine (``src/repro/core/increbuild.py``) shares the
incumbent's clean commit prefix, replays only the dirty cone, rejects
deadlocking candidates and candidates whose admissible metric bound
cannot win before any replay, aborts replays that provably cannot win,
and memoizes rejected move signatures.  This bench runs whole repair
loops both ways — the full-rebuild oracle ``repro.core.reference.full_rebuild_repair`` and
``search_and_repair`` — on the repair-heavy category-2 / mesh_5x5
presets, asserts the two modes are
bit-identical (schedule serialization and ``RepairReport``), and reports
the reduction trajectory.

Accounting: a full-mode candidate replays every task
(``rebuild.tasks_scheduled``); the incremental mode's replayed work is
``repair.replayed_tasks`` plus its one traced incumbent rebuild per
repair run (also counted under ``rebuild.tasks_scheduled``), so the
ratio charges the engine for its amortized setup.

The incremental mode's probes per commit are ``rebuild.probes`` over the
same commits (``rebuild.tasks_scheduled`` plus ``repair.replayed_tasks``):
the probe cache of ``rebuild.commit_steps`` re-probes only the tasks a
commit may have moved, where a cacheless loop probes every eligible task
at every step.

Gates (CI runs ``test_repair``):

* replayed tasks per candidate must drop >= ``MIN_REPLAY_RATIO`` (3x) —
  never waived;
* incremental probes per commit must stay <= ``MAX_PROBES_PER_COMMIT``
  (2.0) — never waived;
* the pre-replay filters must fire: ``repair.bound_rejects`` plus
  ``repair.deadlock_rejects`` must be > 0 at every point — never waived,
  so a filter that silently stops rejecting fails the build;
* repair wall time must improve >= ``MIN_WALL_SPEEDUP`` (2x) — waived on
  single-CPU hosts, where timing is too noisy to gate.
"""

import os
from typing import Any, Dict

from repro import obs
from repro.arch.presets import mesh_5x5
from repro.core.eas import EASConfig, eas_schedule
from repro.core.reference import full_rebuild_repair
from repro.core.repair import search_and_repair
from repro.ctg.generator import generate_category
from repro.schedule.serialization import schedule_to_json

from benchmarks.conftest import run_once, warm_ab

#: (label, benchmark index, task count, deadline tightening factor).
#: Factors chosen so EAS-base reliably misses and repair has real work.
POINTS = [
    ("cat2-0", 0, 120, 0.5),
    ("cat2-4", 4, 120, 0.5),
]

SMOKE_POINT = ("cat2-0-smoke", 0, 60, 0.5)

MIN_REPLAY_RATIO = 3.0
MAX_PROBES_PER_COMMIT = 2.0
MIN_WALL_SPEEDUP = 2.0


def _run_repair(base, repair):
    """One full repair loop; returns (schedule, report, metrics)."""
    bundle = obs.Instrumentation.disabled()
    with obs.activate(bundle):
        repaired, report = repair(base)
    return repaired, report, bundle.metrics


def _repair_point(index: int, n_tasks: int, factor: float) -> Dict[str, Any]:
    ctg = generate_category(2, index, n_tasks=n_tasks).with_scaled_deadlines(factor)
    # Unshuffled type cycle: the shuffled variants shift load off the
    # congested tiles and shrink the dirty cones the gates are sized for.
    acg = mesh_5x5()
    base = eas_schedule(ctg, acg, EASConfig(repair=False))
    assert base.deadline_misses(), "preset must miss, or repair has nothing to do"

    ab = warm_ab(
        lambda: _run_repair(base, full_rebuild_repair),
        lambda: _run_repair(base, search_and_repair),
        pairs=0,
    )
    (full, full_report, full_metrics), (inc, inc_report, inc_metrics) = ab.result_a, ab.result_b

    # Exactness before speed: both modes must agree bit-for-bit.
    assert schedule_to_json(inc) == schedule_to_json(full), (
        "incremental repair diverged from full rebuild"
    )
    assert repr(inc_report) == repr(full_report), "RepairReport diverged between modes"

    candidates = full_report.swaps_tried + full_report.migrations_tried
    replayed_full = full_metrics.counter("rebuild.tasks_scheduled").value
    replayed_inc = (
        inc_metrics.counter("repair.replayed_tasks").value
        + inc_metrics.counter("rebuild.tasks_scheduled").value
    )
    probes_per_commit = inc_metrics.counter("rebuild.probes").value / replayed_inc
    return {
        "tasks": n_tasks,
        "deadline_scale": factor,
        "candidates": candidates,
        "rounds": full_report.rounds,
        "misses_before": full_report.initial_misses,
        "misses_after": full_report.final_misses,
        "replayed_full": replayed_full,
        "replayed_incremental": replayed_inc,
        "replay_ratio": round(replayed_full / replayed_inc, 2),
        "prefix_reused": inc_metrics.counter("repair.prefix_reused_tasks").value,
        "frontier_probes": inc_metrics.counter("repair.frontier_probes").value,
        "probes_per_commit": round(probes_per_commit, 2),
        "aborts": inc_metrics.counter("repair.incremental_aborts").value,
        "bound_rejects": inc_metrics.counter("repair.bound_rejects").value,
        "deadlock_rejects": inc_metrics.counter("repair.deadlock_rejects").value,
        **{
            f"replayed_{outcome}": inc_metrics.counter(f"repair.replayed_tasks.{outcome}").value
            for outcome in ("deadlock", "abort", "completed")
        },
        "memo_skips": inc_metrics.counter("repair.memo_skips").value,
        "wall_full_s": round(ab.best_a, 4),
        "wall_incremental_s": round(ab.best_b, 4),
        "wall_speedup": round(ab.speedup, 2),
        "misses": full_report.final_misses,
    }


def _describe(points: Dict[str, Dict[str, Any]]) -> str:
    lines = ["REPAIR: incremental dirty-cone replay vs full rebuild per candidate"]
    for label, p in points.items():
        lines.append(
            f"  {label}: {p['candidates']} candidates over {p['rounds']} rounds "
            f"(misses {p['misses_before']}->{p['misses_after']}), replayed "
            f"{p['replayed_full']:.0f} -> {p['replayed_incremental']:.0f} tasks "
            f"(x{p['replay_ratio']:.2f}), wall {p['wall_full_s']:.2f} -> "
            f"{p['wall_incremental_s']:.2f} s (x{p['wall_speedup']:.2f}), "
            f"{p['probes_per_commit']:.2f} probes/commit, "
            f"{p['aborts']:.0f} aborts ({p['bound_rejects']:.0f} by the bound before any replay), "
            f"{p['deadlock_rejects']:.0f} deadlock rejects, {p['memo_skips']:.0f} memo skips; "
            f"replayed commits deadlock/abort/completed {p['replayed_deadlock']:.0f}/"
            f"{p['replayed_abort']:.0f}/{p['replayed_completed']:.0f}"
        )
    return "\n".join(lines)


def _check_count_gates(point: Dict[str, Any]) -> None:
    # Operation counts are deterministic — never waived.
    assert point["replay_ratio"] >= MIN_REPLAY_RATIO, (
        f"replayed-task reduction {point['replay_ratio']}x below "
        f"{MIN_REPLAY_RATIO}x floor"
    )
    assert point["probes_per_commit"] <= MAX_PROBES_PER_COMMIT, (
        f"{point['probes_per_commit']} incremental probes per commit above "
        f"{MAX_PROBES_PER_COMMIT} ceiling"
    )
    assert point["bound_rejects"] + point["deadlock_rejects"] > 0, (
        "no candidate was rejected before its replay: the pre-replay filters stopped firing"
    )


def _check_gates(point: Dict[str, Any]) -> None:
    _check_count_gates(point)
    # The wall gate needs believable timing; waive on 1-CPU runners.
    if (os.cpu_count() or 1) > 1:
        assert point["wall_speedup"] >= MIN_WALL_SPEEDUP, (
            f"repair wall speedup {point['wall_speedup']}x below "
            f"{MIN_WALL_SPEEDUP}x floor"
        )


def test_repair(benchmark, show):
    """Both category-2 / mesh_5x5 presets, gates enforced on each."""

    def experiment():
        points = {
            label: _repair_point(index, n, factor)
            for label, index, n, factor in POINTS
        }
        show(_describe(points))
        for point in points.values():
            _check_gates(point)
        flat: Dict[str, Any] = {
            f"{label}.{k}": v for label, p in points.items() for k, v in p.items()
        }
        flat["misses"] = points[POINTS[0][0]]["misses"]
        return flat

    run_once(benchmark, experiment)


def test_repair_smoke(benchmark, show):
    """Small fast point for quick local runs; the count gates still apply."""

    def experiment():
        label, index, n_tasks, factor = SMOKE_POINT
        point = _repair_point(index, n_tasks, factor)
        show(_describe({label: point}))
        _check_count_gates(point)
        return point

    run_once(benchmark, experiment)
