"""repro.parallel — shared-nothing process-pool execution engine.

The engine turns the repo's embarrassingly parallel workloads — the
evalx (benchmark x scheduler) grids, multi-start repair portfolios,
benchmark sweeps — into grids of picklable :class:`RunSpec` jobs fanned
out over a ``ProcessPoolExecutor`` and reassembled in deterministic
order, so ``jobs=N`` output is byte-identical to ``jobs=1``, which runs
the same grid in-process.  :func:`pool_map` runs every item inside one
worker envelope and folds its telemetry home in item order.  See
DESIGN.md ("Parallel execution engine") for the determinism contract
and the telemetry merge semantics.

Typical use::

    from repro.parallel import RunSpec, execute_spec, paper_benchmark, pool_map

    specs = [
        RunSpec(scheduler=s, benchmark=paper_benchmark("random", index=i))
        for i in range(10) for s in ("eas-base", "eas", "edf")
    ]
    results = pool_map(execute_spec, specs, jobs=8)   # spec order preserved
"""

from repro.parallel.pool import JOBS_ENV_VAR, pool_map, resolve_jobs
from repro.parallel.spec import (
    ACG_PRESETS,
    MSB_SYSTEMS,
    BenchmarkSpec,
    RunResult,
    RunSpec,
    execute_spec,
    paper_benchmark,
    run_scheduler,
)

__all__ = [
    "ACG_PRESETS",
    "BenchmarkSpec",
    "JOBS_ENV_VAR",
    "MSB_SYSTEMS",
    "RunResult",
    "RunSpec",
    "execute_spec",
    "paper_benchmark",
    "pool_map",
    "resolve_jobs",
    "run_scheduler",
]
