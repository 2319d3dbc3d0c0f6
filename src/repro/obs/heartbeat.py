"""Live heartbeat telemetry for long runs: progress, ETA, watchdog.

Opt-in (``--heartbeat SECS`` on every subcommand, or the
``REPRO_HEARTBEAT`` environment variable): a daemon monitor thread in
the *parent* process that, once per interval,

* prints a one-line progress report to **stderr** (stdout stays
  reserved for tables and ``--trace -`` JSONL): grid cells done/total,
  an ETA extrapolated from worker-measured cell runtimes, and the
  innermost open span of the active tracer ("what phase is the run in
  right now"),
* appends a ``heartbeat`` record to the active run ledger, so a hung
  run's last ledger line shows exactly how far it got, and
* watches for stalls: when no cell completes within the stall window
  (10x the interval, at least 30 s, unless the monitor is given one) it
  escalates the line to a warning and flags the ledger record —
  the first sign of a wedged worker pool or a pathological cell.

The process pool (:func:`repro.parallel.pool.pool_map`) reports grid
size and per-cell completions to the active heartbeat via
:func:`active` / :meth:`Heartbeat.grid_started` /
:meth:`Heartbeat.cell_done`; completions arrive on executor callback
threads, so all progress state is guarded by one lock.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, TextIO

from repro.obs import context as obs_context

#: environment override for the heartbeat interval in seconds.
HEARTBEAT_ENV_VAR = "REPRO_HEARTBEAT"

#: floor for the default stall window.
MIN_STALL_SECONDS = 30.0

_active_lock = threading.Lock()
_active: Optional["Heartbeat"] = None


def active() -> Optional["Heartbeat"]:
    """The heartbeat currently monitoring this process, if any."""
    return _active


def resolve_interval(override: Optional[float] = None) -> Optional[float]:
    """Effective heartbeat interval: CLI flag > ``REPRO_HEARTBEAT`` env.

    Returns None (disabled) without either, or when the value is not a
    positive number.
    """
    value = override
    if value is None:
        raw = os.environ.get(HEARTBEAT_ENV_VAR, "").strip()
        if not raw:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
    return value if value and value > 0 else None


class Heartbeat:
    """The monitor: a context manager owning one daemon thread.

    While entered it is the process-wide :func:`active` heartbeat; the
    pool feeds it grid progress, the thread emits stderr lines and
    ledger records.  Emission also happens synchronously on exit so even
    a run shorter than one interval leaves a final heartbeat.
    """

    def __init__(
        self,
        interval: float,
        ledger: Optional[Any] = None,
        stream: Optional[TextIO] = None,
        stall_window: Optional[float] = None,
        clock: Any = time.monotonic,
    ) -> None:
        self.interval = float(interval)
        self.ledger = ledger
        self.stream = stream if stream is not None else sys.stderr
        self.stall_window = (
            stall_window if stall_window is not None else max(MIN_STALL_SECONDS, 10.0 * self.interval)
        )
        self._clock = clock
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0
        self._beats = 0
        # grid progress (guarded by _lock; written from callback threads)
        self._total = 0
        self._done = 0
        self._workers = 1
        self._cell_walls: List[float] = []
        self._last_progress_at = 0.0
        self._stall_warned = False

    # -- progress feed (called by the pool / serial loops) -------------------

    def grid_started(self, total: int, workers: int = 1) -> None:
        """A grid of ``total`` cells is about to run on ``workers`` lanes."""
        with self._lock:
            self._total += int(total)
            self._workers = max(1, int(workers))
            self._last_progress_at = self._clock()
            self._stall_warned = False

    def cell_done(self, wall_seconds: Optional[float] = None) -> None:
        """One grid cell finished (worker-measured wall when known)."""
        with self._lock:
            self._done += 1
            if wall_seconds is not None and wall_seconds >= 0:
                self._cell_walls.append(float(wall_seconds))
            self._last_progress_at = self._clock()
            self._stall_warned = False

    # -- snapshot & emission -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One heartbeat's worth of state (also the ledger record body)."""
        now = self._clock()
        with self._lock:
            done, total, workers = self._done, self._total, self._workers
            walls = list(self._cell_walls)
            idle = now - self._last_progress_at if self._last_progress_at else 0.0
        eta: Optional[float] = None
        if total > done:
            # Only finite samples extrapolate; a poisoned (inf/nan) wall
            # must not produce a non-JSON ETA that kills the ledger append.
            finite = [w for w in walls if math.isfinite(w)]
            if finite:
                eta = (sum(finite) / len(finite)) * (total - done) / workers
                if not math.isfinite(eta):
                    eta = None
        phases = obs_context.get().tracer.open_span_names()
        stalled = bool(total > done and self.stall_window and idle > self.stall_window)
        return {
            "elapsed": now - self._started_at if self._started_at else 0.0,
            "cells_done": done,
            "cells_total": total,
            "eta_seconds": round(eta, 3) if eta is not None else None,
            "phase": ">".join(phases) if phases else "",
            "idle_seconds": round(idle, 3),
            "stalled": stalled,
        }

    def describe(self, snap: Dict[str, Any]) -> str:
        parts = [f"heartbeat: elapsed {snap['elapsed']:.1f}s"]
        if snap["cells_total"]:
            parts.append(f"cells {snap['cells_done']}/{snap['cells_total']}")
        if snap["eta_seconds"] is not None:
            parts.append(f"eta {snap['eta_seconds']:.0f}s")
        elif snap["cells_total"] and snap["cells_done"] < snap["cells_total"]:
            # Grid running but no completed cell to extrapolate from yet.
            parts.append("eta ?")
        if snap["phase"]:
            parts.append(f"phase {snap['phase']}")
        line = ", ".join(parts)
        if snap["stalled"]:
            line += (
                f" [WARNING: no cell completed in {snap['idle_seconds']:.0f}s,"
                f" stall window {self.stall_window:.0f}s]"
            )
        return line

    def beat(self) -> Dict[str, Any]:
        """Emit one heartbeat now: stderr line + ledger record."""
        snap = self.snapshot()
        try:
            print(self.describe(snap), file=self.stream, flush=True)
        except (OSError, ValueError):
            pass  # a closed stderr must not kill the monitor
        if self.ledger is not None:
            self.ledger.heartbeat(**snap)
        self._beats += 1
        if snap["stalled"]:
            self._stall_warned = True
        return snap

    # -- thread lifecycle ----------------------------------------------------

    def __enter__(self) -> "Heartbeat":
        global _active
        self._started_at = self._clock()
        self._last_progress_at = self._started_at
        with _active_lock:
            _active = self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, 2 * self.interval))
            self._thread = None
        with _active_lock:
            if _active is self:
                _active = None
        # Final synchronous beat: short runs still leave one record, and
        # the last line shows the terminal done/total state.
        self.beat()
        return False

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()
