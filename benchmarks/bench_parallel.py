"""PARALLEL — serial vs process-pool wall time on the evalx grids.

``test_parallel`` regenerates the full Fig 5 + Fig 6 grid (10 random
graphs x 3 schedulers x 2 categories, default 150-task scale) twice —
``jobs=1`` (the same spec grid run in-process) and ``jobs=8`` — asserts
the two produce identical rows, and reports both wall times plus the
speedup.  On machines exposing >= 4 CPUs the speedup must clear
:data:`MIN_SPEEDUP`; on smaller boxes (CI containers are often 1-2
cores, where a process pool can only timeshare) the number is reported
but not gated, so the benchmark stays honest instead of failing on
hardware that cannot show parallelism.

``test_parallel_smoke`` is the CI point: a 2-benchmark, 2-worker grid
whose serial/pooled equality always gates.
"""

import os
from typing import Any, Dict, List

from repro.evalx.experiments import ExperimentRow, run_fig5, run_fig6
from repro.evalx.reporting import format_table

from benchmarks.conftest import run_once, warm_ab

#: required Fig 5+6 grid speedup at jobs=8 (only gated with >= MIN_CPUS).
MIN_SPEEDUP = 2.5
MIN_CPUS = 4

#: worker count of the full sweep's parallel leg.
FULL_JOBS = 8


def _grid(jobs: int, n_benchmarks: int, n_tasks) -> List[ExperimentRow]:
    return run_fig5(n_benchmarks=n_benchmarks, n_tasks=n_tasks, jobs=jobs) + run_fig6(
        n_benchmarks=n_benchmarks, n_tasks=n_tasks, jobs=jobs
    )


def assert_rows_equal(serial: List[ExperimentRow], pooled: List[ExperimentRow]) -> None:
    """Pooled rows must match serial ones in everything but wall times."""
    assert len(serial) == len(pooled)
    for left, right in zip(serial, pooled):
        assert left.benchmark == right.benchmark
        assert left.energies == right.energies
        assert left.misses == right.misses
        assert left.extras == right.extras
        assert left.metrics == right.metrics
        assert set(left.runtimes) == set(right.runtimes)
    assert format_table(serial, "grid") == format_table(pooled, "grid")


def _sweep(n_benchmarks: int, n_tasks, jobs: int) -> Dict[str, Any]:
    ab = warm_ab(
        lambda: _grid(1, n_benchmarks, n_tasks),
        lambda: _grid(jobs, n_benchmarks, n_tasks),
        pairs=0,
    )
    serial_rows, pooled_rows = ab.result_a, ab.result_b
    assert_rows_equal(serial_rows, pooled_rows)
    energy = sum(row.energies["eas"] for row in serial_rows)
    misses = sum(row.misses["eas"] for row in serial_rows)
    return {
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "rows": len(serial_rows),
        "serial_wall_s": round(ab.best_a, 4),
        "parallel_wall_s": round(ab.best_b, 4),
        "speedup": round(ab.speedup, 3),
        "identical": True,  # assert_rows_equal passed
        "energy_nJ": energy,
        "misses": misses,
    }


def _describe(point: Dict[str, Any]) -> str:
    return (
        f"PARALLEL: fig5+6 grid ({point['rows']} rows) serial "
        f"{point['serial_wall_s'] * 1e3:.0f} ms -> jobs={point['jobs']} "
        f"{point['parallel_wall_s'] * 1e3:.0f} ms (x{point['speedup']:.2f} "
        f"on {point['cpus']} CPU(s)); pooled output identical to serial"
    )


def test_parallel(benchmark, show):
    """Full Fig 5+6 grid, jobs=1 vs jobs=8, identity + speedup."""

    def experiment():
        point = _sweep(n_benchmarks=10, n_tasks=None, jobs=FULL_JOBS)
        show(_describe(point))
        if (os.cpu_count() or 1) >= MIN_CPUS:
            assert point["speedup"] >= MIN_SPEEDUP, (
                f"jobs={FULL_JOBS} speedup x{point['speedup']} below x{MIN_SPEEDUP} "
                f"on {point['cpus']} CPUs"
            )
        return point

    run_once(benchmark, experiment)


def test_parallel_smoke(benchmark, show):
    """CI gate: tiny grid, 2 workers, serial/pooled equality always on."""

    def experiment():
        point = _sweep(n_benchmarks=2, n_tasks=40, jobs=2)
        show(_describe(point))
        return point

    run_once(benchmark, experiment)
