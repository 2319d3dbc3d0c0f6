"""Process-pool fan-out: one worker envelope, one ordered telemetry merge.

:func:`pool_map` is the one engine every pooled campaign runs on — the
evalx grids (``pool_map(execute_spec, specs)``), fault sweeps and the
repair portfolio.  It owns the *worker envelope*: each item runs under
a fresh :class:`~repro.obs.Instrumentation` bundle that records iff the
parent records and, when the parent has a run ledger, buffers ledger
records under the parent's run id (``RunLedger(path=None)``).  The call
is timed once; the result travels home with the bundle's metrics,
trace, decisions and buffered ledger records, and the parent folds all
of it in **item order**, which is what makes counter totals,
last-writer-wins gauges, traces and the ledger independent of the
worker count.  The same envelope wraps every item at one worker
(in-process) and at N, so the mapped function never manages telemetry.

Results come back in item order regardless of completion order; the
dispatch shows up as a ``label`` span (``parallel_map`` by default)
plus ``jobs.workers`` / ``jobs.dispatched`` / ``jobs.wall_saved_s``
metrics.  A pool that cannot start (no ``fork``/semaphores in the
sandbox, broken pickling of the target) degrades to the in-process loop
rather than failing the experiment.

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
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro import obs
from repro.obs import heartbeat as heartbeat_module
from repro.obs.decisions import TaskDecision
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry

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


@dataclass
class _Shipment:
    """One item's result plus everything its envelope bundle collected."""

    result: Any
    wall_seconds: float
    metrics: MetricsRegistry
    #: ``Tracer.export_records`` payload; None when the parent does not record.
    trace: Optional[Dict[str, List[Dict[str, Any]]]]
    decisions: List[TaskDecision]
    ledger_records: List[Dict[str, Any]]


@dataclass(frozen=True)
class _Envelope:
    """Runs ``fn`` on one item inside a fresh bundle (picklable by reference)."""

    fn: Callable[[Any], Any]
    record: bool
    run_id: Optional[str]

    def __call__(self, item: Any) -> _Shipment:
        bundle = obs.Instrumentation.enabled() if self.record else obs.Instrumentation.disabled()
        if self.run_id is not None:
            bundle.ledger = RunLedger(None, run_id=self.run_id)
        started = time.perf_counter()
        with obs.activate(bundle):
            result = self.fn(item)
        return _Shipment(
            result=result,
            wall_seconds=time.perf_counter() - started,
            metrics=bundle.metrics,
            trace=bundle.tracer.export_records() if self.record else None,
            decisions=list(bundle.decisions),
            ledger_records=bundle.ledger.buffered if bundle.ledger is not None else [],
        )


def pool_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
    label: str = "parallel_map",
) -> List[R]:
    """Map ``fn`` over ``items`` with up to ``jobs`` worker processes.

    Results are returned in item order.  ``fn`` and every item must be
    picklable (``fn`` by reference: a module-level function).  With a
    resolved worker count of 1 — or a single item — the map runs
    in-process, with identical semantics.  A pool that cannot start at
    all falls back to the in-process loop and counts the failure in
    ``jobs.pool_failures``; exceptions raised *by ``fn``* are never
    swallowed, in either mode.  Every item's telemetry is folded into
    the active bundle in item order, inside the ``label`` span (at one
    worker there is no dispatch span, and absorbed worker spans keep
    the caller's).
    """
    items = list(items)
    workers = min(resolve_jobs(jobs), len(items)) if items else 1
    ins = obs.get()
    envelope = _Envelope(
        fn, record=ins.recording, run_id=ins.ledger.run_id if ins.ledger is not None else None
    )
    monitor = heartbeat_module.active()
    if monitor is not None:
        monitor.grid_started(len(items), workers=workers)
    if workers <= 1:
        return [_fold(ins, shipment) for shipment in _map_in_process(envelope, items, monitor)]

    started = time.perf_counter()
    with ins.tracer.span(label, jobs=workers, dispatched=len(items)):
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # submit + per-future callbacks rather than pool.map: the
                # callbacks fire on completion (any order), which is what
                # feeds the heartbeat live progress/ETA; collecting
                # ``result()`` in submit order keeps the map ordered.
                futures = [pool.submit(envelope, item) for item in items]
                if monitor is not None:
                    for future in futures:
                        future.add_done_callback(_make_progress_callback(monitor))
                shipments = [future.result() for future in futures]
        except (BrokenProcessPool, OSError, ImportError) as exc:
            # The *pool* failed (sandboxed semaphores, fork bombs-proof
            # environments, ...), not the work: run the map in-process.
            ins.metrics.counter("jobs.pool_failures").inc()
            ins.tracer.event("pool_fallback", label=label, error=f"{type(exc).__name__}: {exc}")
            shipments = _map_in_process(envelope, items, monitor)
        results = [_fold(ins, shipment) for shipment in shipments]
    elapsed = time.perf_counter() - started

    ins.metrics.gauge("jobs.workers").set(workers)
    ins.metrics.counter("jobs.dispatched").inc(len(items))
    worker_wall = sum(shipment.wall_seconds for shipment in shipments)
    ins.metrics.counter("jobs.wall_saved_s").inc(max(0.0, worker_wall - elapsed))
    return results


def _map_in_process(
    envelope: _Envelope, items: List[Any], monitor: Optional[Any]
) -> List[_Shipment]:
    """The one-worker map: run and notify each item in order."""
    shipments = []
    for item in items:
        shipments.append(envelope(item))
        _notify_cell_done(monitor, shipments[-1])
    return shipments


def _fold(ins: obs.Instrumentation, shipment: _Shipment) -> Any:
    """Merge one item's telemetry into the parent bundle; return its result."""
    ins.metrics.merge(shipment.metrics)
    if shipment.trace is not None:
        ins.tracer.absorb(shipment.trace)
    for decision in shipment.decisions:
        ins.decisions.record(decision)
    if ins.ledger is not None:
        ins.ledger.absorb(shipment.ledger_records)
    return shipment.result


def _notify_cell_done(monitor: Optional[Any], shipment: _Shipment) -> None:
    """Report one finished cell and its envelope-measured wall upstream."""
    if monitor is not None:
        monitor.cell_done(shipment.wall_seconds)


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
