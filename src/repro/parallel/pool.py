"""Process-pool fan-out with telemetry merge and an in-process loop.

Two layers:

* :func:`pool_map` — a generic ordered map over a
  ``concurrent.futures.ProcessPoolExecutor``: results come back in item
  order regardless of completion order, the dispatch shows up as a
  ``parallel_map`` span plus ``jobs.workers`` / ``jobs.dispatched`` /
  ``jobs.wall_saved_s`` metrics.  One worker runs the same map
  in-process, and a pool that cannot start (no ``fork``/semaphores in
  the sandbox, broken pickling of the target) degrades to that loop
  rather than failing the experiment.
* :func:`parallel_map` — :func:`pool_map` specialised to the
  :class:`~repro.parallel.spec.RunSpec` protocol, and the only engine
  the evalx grids run on: it toggles worker-side recording to match the
  parent bundle and folds every cell's telemetry back into the active
  bundle **in spec order**, which is what makes counter totals,
  last-writer-wins gauges and trace contents independent of the worker
  count.

Worker count resolution (:func:`resolve_jobs`): an explicit ``jobs``
argument wins; ``None``/``0`` defers to the ``REPRO_JOBS`` environment
variable; absent both, one in-process worker is used.  Negative values
mean "all visible CPUs".
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from repro import obs
from repro.obs import heartbeat as heartbeat_module
from repro.parallel.spec import RunResult, RunSpec, execute_spec

T = TypeVar("T")
R = TypeVar("R")

#: environment override consulted when no explicit worker count is given.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit arg > ``REPRO_JOBS`` env > 1.

    ``None`` and ``0`` mean "not specified"; negative values (argument
    or env) resolve to ``os.cpu_count()``.  The result is always >= 1,
    and 1 runs the map in-process.
    """
    if jobs in (None, 0):
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            return 1
        if jobs == 0:
            return 1
    if jobs < 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def pool_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
    label: str = "parallel_map",
    finalize: Optional[Callable[[R], None]] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` with up to ``jobs`` worker processes.

    Results are returned in item order.  ``fn`` and every item must be
    picklable (``fn`` by reference: a module-level function).  With a
    resolved worker count of 1 — or a single item — the map runs
    in-process, with identical semantics.  A pool that cannot start at
    all falls back to the in-process loop and counts the failure in
    ``jobs.pool_failures``; exceptions raised *by ``fn``* are never
    swallowed, in either mode.  ``finalize`` runs once per result, in
    item order, inside the dispatch span — the hook telemetry merging
    uses so absorbed worker spans re-parent under ``label`` (in-process
    at one worker there is no dispatch span, and they keep the caller's).
    """
    items = list(items)
    workers = min(resolve_jobs(jobs), len(items)) if items else 1
    ins = obs.get()
    monitor = heartbeat_module.active()
    if monitor is not None:
        monitor.grid_started(len(items), workers=workers)
    if workers <= 1:
        return _map_in_process(fn, items, monitor, finalize)

    started = time.perf_counter()
    with ins.tracer.span(label, jobs=workers, dispatched=len(items)):
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # submit + per-future callbacks rather than pool.map: the
                # callbacks fire on completion (any order), which is what
                # feeds the heartbeat live progress/ETA; collecting
                # ``result()`` in submit order keeps the map ordered.
                futures = [pool.submit(fn, item) for item in items]
                if monitor is not None:
                    for future in futures:
                        future.add_done_callback(_make_progress_callback(monitor))
                results = [future.result() for future in futures]
        except (BrokenProcessPool, OSError, ImportError) as exc:
            # The *pool* failed (sandboxed semaphores, fork bombs-proof
            # environments, ...), not the work: run the map in-process.
            ins.metrics.counter("jobs.pool_failures").inc()
            ins.tracer.event("pool_fallback", label=label, error=f"{type(exc).__name__}: {exc}")
            results = _map_in_process(fn, items, monitor, finalize)
        else:
            if finalize is not None:
                for result in results:
                    finalize(result)
    elapsed = time.perf_counter() - started

    ins.metrics.gauge("jobs.workers").set(workers)
    ins.metrics.counter("jobs.dispatched").inc(len(items))
    worker_wall = sum(
        r.wall_seconds for r in results if isinstance(r, RunResult)
    )
    if worker_wall:
        ins.metrics.counter("jobs.wall_saved_s").inc(max(0.0, worker_wall - elapsed))
    return results


def _map_in_process(
    fn: Callable[[T], R],
    items: List[T],
    monitor: Optional[Any],
    finalize: Optional[Callable[[R], None]],
) -> List[R]:
    """The one-worker map: run, notify and finalize each item in order."""
    results = []
    for item in items:
        results.append(fn(item))
        _notify_cell_done(monitor, results[-1])
    if finalize is not None:
        for result in results:
            finalize(result)
    return results


def _notify_cell_done(monitor: Optional[Any], result: Any) -> None:
    """Report one finished cell (and its worker-measured wall) upstream."""
    if monitor is None:
        return
    wall = result.wall_seconds if isinstance(result, RunResult) else None
    monitor.cell_done(wall)


def _make_progress_callback(monitor: Any) -> Callable[["Future"], None]:
    """A future callback feeding the heartbeat as completions land.

    Runs on the executor's completion threads, so it only touches the
    heartbeat (which locks internally); futures that failed are left for
    the collection loop / fallback path to account for.
    """

    def _on_done(future: "Future") -> None:
        if future.cancelled() or future.exception() is not None:
            return
        _notify_cell_done(monitor, future.result())

    return _on_done


def parallel_map(specs: Sequence[RunSpec], jobs: Optional[int] = None) -> List[RunResult]:
    """Execute a grid of :class:`RunSpec` jobs and merge their telemetry.

    Worker-side recording mirrors the parent: when the active bundle's
    tracer records, workers run fully instrumented and ship spans,
    events and decision provenance home.  Each worker's registry is
    folded into the active one via ``MetricsRegistry.merge`` in **spec
    order** — counters and histograms are associative so totals match a
    serial run exactly, and last-writer-wins gauges see the same final
    writer a serial loop would.
    """
    ins = obs.get()
    record = bool(ins.recording)
    ledger = ins.ledger
    run_id = ledger.run_id if ledger is not None else None
    # A spec that explicitly asked for recording keeps it (``repro-noc
    # diff`` needs decision provenance even without global --decisions).
    prepared = [
        replace(spec, record=record or spec.record, ledger_run_id=run_id)
        for spec in specs
    ]

    def _merge(result: RunResult) -> None:
        ins.metrics.merge(result.metrics)
        if result.trace is not None:
            ins.tracer.absorb(result.trace)
        for decision in result.decisions:
            ins.decisions.record(decision)
        if ledger is not None:
            ledger.absorb(result.ledger_records)

    return pool_map(execute_spec, prepared, jobs=jobs, label="parallel_map", finalize=_merge)
