"""The run ledger: a crash-safe, append-only JSONL flight recorder.

Every ``repro-noc`` invocation appends its lifecycle to one shared
ledger file (``RUN_LEDGER.jsonl`` in the repository root by default;
``REPRO_LEDGER`` overrides the path, ``REPRO_LEDGER=off`` disables
recording, ``--ledger FILE`` overrides both).  One JSON object per
line, every line stamped with ``type``, ``schema_version``, ``run_id``
and ``t`` (Unix time):

=============== ============================================================
``run_started``  argv, command, resolved parameters (seeds, preset,
                 EASConfig, jobs), git rev, host, ``cpu_count``, pid
``phase``        a named progress point; grid runners emit one
                 ``name="cell"`` record per (benchmark, scheduler) cell
                 with the cell's spec seeds and worker-measured runtime
``heartbeat``    live progress from the heartbeat monitor thread
                 (cells done/total, ETA, open tracer phase, stall flag)
``run_finished`` terminal success: wall seconds, final counter snapshot,
                 slowest tracer phases by self-time (when tracing)
``run_failed``   terminal failure: exception type/message, formatted
                 traceback, and the partial counter snapshot at death
=============== ============================================================

Durability model: every record is appended, flushed and fsync'd
immediately under a cross-process lockfile (:func:`exclusive_lock`),
so concurrent CLI invocations and pooled workers interleave whole
lines, never fragments — and a run that is SIGKILLed mid-grid still
leaves its ``run_started`` and every completed ``phase`` on disk.  The
terminal record is written from the CLI's ``finally`` path
(``SchedulingError`` and ordinary crashes) with an ``atexit`` fallback
that marks still-open runs as failed, so *some* terminal record exists
for anything short of a hard kill.

Worker processes never write the file: the worker envelope of
:func:`repro.parallel.pool.pool_map` gives each pooled item a buffered
``RunLedger(path=None)`` under the parent's run id, ships its records
home, and the parent appends them in deterministic item order via
:meth:`RunLedger.absorb`.
"""

from __future__ import annotations

import atexit
import json
import os
import socket
import subprocess
import sys
import traceback as traceback_module
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import LedgerError

#: bump when the record layout changes incompatibly.
RUN_LEDGER_SCHEMA_VERSION = 1

#: default ledger filename (created in the repository root).
LEDGER_FILENAME = "RUN_LEDGER.jsonl"

#: environment override for the ledger path (``off``/``0`` disables).
LEDGER_ENV_VAR = "REPRO_LEDGER"

#: how many traceback characters a ``run_failed`` record retains.
MAX_TRACEBACK_CHARS = 8000

#: how long :func:`exclusive_lock` waits for a concurrent writer before
#: giving up; a lock twice this old is treated as stale and broken.
LOCK_TIMEOUT_SECONDS = 10.0


@contextmanager
def exclusive_lock(path: Path, timeout: float = LOCK_TIMEOUT_SECONDS) -> Iterator[None]:
    """Hold ``path``'s sibling lockfile for the duration of the block.

    The cross-process mutual-exclusion primitive of every ledger append
    and rewrite: an ``O_CREAT | O_EXCL`` lockfile next to ``path``.
    Waits up to ``timeout`` for a live writer; a lock older than
    ``2 * timeout`` is treated as leaked by a dead process and broken.
    """
    lock_path = path.with_suffix(path.suffix + ".lock")
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            try:
                if time.time() - lock_path.stat().st_mtime > 2 * timeout:
                    lock_path.unlink()  # stale lock from a dead writer
                    continue
            except OSError:
                continue  # holder released (or broke) it; retry at once
            if time.monotonic() >= deadline:
                raise TimeoutError(f"lock {lock_path} still held after {timeout:.0f}s")
            time.sleep(0.002)
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        try:
            lock_path.unlink()
        except OSError:
            pass


_GIT_REV_CACHE: Dict[str, str] = {}


def current_git_rev(cwd: Union[str, Path, None] = None) -> str:
    """Short git revision of ``cwd``'s repository, or ``"unknown"``."""
    key = str(cwd or ".")
    cached = _GIT_REV_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    _GIT_REV_CACHE[key] = rev or "unknown"
    return _GIT_REV_CACHE[key]


def new_run_id() -> str:
    """A unique, sortable run identifier: ``<ms-hex>-<pid>-<random>``."""
    return f"{int(time.time() * 1000):x}-{os.getpid()}-{os.urandom(3).hex()}"


def default_ledger_path() -> Path:
    """The repository-root ledger file."""
    return Path(__file__).resolve().parents[3] / LEDGER_FILENAME


def resolve_ledger_path(override: Optional[str] = None) -> Optional[Path]:
    """Effective ledger path: CLI override > ``REPRO_LEDGER`` env > default.

    Returns None when recording is disabled (override or env set to
    ``off``/``0``).
    """
    configured = override if override is not None else os.environ.get(LEDGER_ENV_VAR)
    if configured in ("off", "0"):
        return None
    if configured:
        return Path(configured)
    return default_ledger_path()


class RunLedger:
    """One run's view of the shared JSONL ledger.

    File-backed (``path`` given): every record is appended durably at
    call time.  Buffered (``path=None``): records accumulate in
    ``self.buffered`` for a worker to ship home.  A ledger that hits an
    unwritable path degrades to a no-op after the first failure rather
    than crashing the run it is supposed to flight-record (the failure
    count is kept in ``io_errors``).
    """

    def __init__(self, path: Union[str, Path, None], run_id: Optional[str] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.run_id = run_id or new_run_id()
        self.io_errors = 0
        self.buffered: List[Dict[str, Any]] = []
        self._closed = False
        self._started = False
        self._disabled = False

    @property
    def closed(self) -> bool:
        """True once a terminal (finished/failed) record was written."""
        return self._closed

    def ensure_writable(self) -> None:
        """Raise :class:`LedgerError` when the ledger path cannot take appends.

        Called for *explicitly requested* ledger paths (``--ledger``),
        where silent degradation would hide a user error; the default
        best-effort path stays degrade-only.
        """
        if self.path is None:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a"):
                pass
        except OSError as exc:
            raise LedgerError(f"cannot write run ledger {self.path}: {exc}") from exc

    # -- record emission ----------------------------------------------------

    def record(self, type_: str, **fields: Any) -> Dict[str, Any]:
        """Append one record of ``type_`` (see the module record table)."""
        record: Dict[str, Any] = {
            "type": type_,
            "schema_version": RUN_LEDGER_SCHEMA_VERSION,
            "run_id": self.run_id,
            "t": time.time(),
        }
        record.update(fields)
        self._append(record)
        return record

    def run_started(
        self,
        command: str,
        argv: Optional[List[str]] = None,
        params: Optional[Dict[str, Any]] = None,
        jobs: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Open the run: provenance header every later record hangs off."""
        self._started = True
        atexit.register(self._atexit_close)
        return self.record(
            "run_started",
            command=command,
            argv=list(argv) if argv is not None else [],
            params=dict(params or {}),
            jobs=jobs,
            pid=os.getpid(),
            host=socket.gethostname(),
            cpu_count=os.cpu_count(),
            python=sys.version.split()[0],
            git_rev=current_git_rev(self.path.parent if self.path else None),
        )

    def phase(self, name: str, **fields: Any) -> Dict[str, Any]:
        """A named progress point (grid cell, repair pass, export, ...)."""
        return self.record("phase", name=name, **fields)

    def heartbeat(self, **fields: Any) -> Dict[str, Any]:
        """A liveness snapshot from the heartbeat monitor thread."""
        return self.record("heartbeat", **fields)

    def run_finished(self, **fields: Any) -> Dict[str, Any]:
        """Terminal success record; later terminal calls are ignored."""
        if self._closed:
            return {}
        record = self.record("run_finished", **fields)
        self._terminate()
        return record

    def run_failed(
        self, exc: Optional[BaseException] = None, reason: str = "", **fields: Any
    ) -> Dict[str, Any]:
        """Terminal failure record carrying the exception + traceback."""
        if self._closed:
            return {}
        error = ""
        trace = ""
        if exc is not None:
            error = f"{type(exc).__name__}: {exc}"
            trace = "".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            )[-MAX_TRACEBACK_CHARS:]
        record = self.record(
            "run_failed", error=error, reason=reason, traceback=trace, **fields
        )
        self._terminate()
        return record

    def absorb(self, records: List[Dict[str, Any]]) -> None:
        """Append records a worker buffered and shipped home, verbatim."""
        for record in records:
            self._append(dict(record))

    # -- plumbing -----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        if self._disabled:
            return
        if self.path is None:
            self.buffered.append(record)
            return
        line = json.dumps(record, allow_nan=False, default=str) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with exclusive_lock(self.path):
                with open(self.path, "a") as handle:
                    handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
        except TimeoutError:
            # Lock contention: drop this record but keep recording.
            self.io_errors += 1
        except OSError:
            # A flight recorder must never take down the flight: degrade
            # to a no-op and count the failure for the caller to report.
            self.io_errors += 1
            self._disabled = True

    def _terminate(self) -> None:
        self._closed = True
        try:
            atexit.unregister(self._atexit_close)
        except Exception:  # pragma: no cover - unregister never raises today
            pass

    def _atexit_close(self) -> None:
        """Last-chance terminal record for runs abandoned without one."""
        if self._started and not self._closed:
            self.run_failed(reason="process exited without a terminal record")


def prune_ledger(
    path: Union[str, Path], keep: int, preserve: Iterable[str] = ()
) -> Dict[str, int]:
    """Rotate the ledger: keep only the last ``keep`` runs' records.

    Rewrites the file atomically (temp file + ``os.replace``) under the
    same cross-process lockfile the writers use, so a concurrent append
    either lands before the rewrite (and is subject to pruning) or after
    it (and survives) — never inside a torn file.  Unparseable lines are
    dropped (they are invisible to every reader anyway).  Run ids in
    ``preserve`` (e.g. the still-open run doing the pruning) always
    survive and do not consume the ``keep`` budget or appear in the
    returned statistics.

    Returns ``{"runs_before", "runs_kept", "records_before",
    "records_kept"}``, counted over the prunable (non-preserved) runs.

    Raises:
        LedgerError: ``keep`` is negative or the rewrite fails.
    """
    if keep < 0:
        raise LedgerError(f"--prune-ledger expects a non-negative count, got {keep}")
    path = Path(path)
    preserved = {str(run_id) for run_id in preserve}
    try:
        with exclusive_lock(path):
            records = read_ledger(path)
            order: List[str] = []
            for record in records:
                run_id = str(record.get("run_id", "?"))
                if run_id not in preserved and run_id not in order:
                    order.append(run_id)
            kept_ids = set(order[-keep:]) if keep else set()
            prunable = [
                r for r in records if str(r.get("run_id", "?")) not in preserved
            ]
            kept_prunable = [
                r for r in prunable if str(r.get("run_id", "?")) in kept_ids
            ]
            kept = [
                r
                for r in records
                if str(r.get("run_id", "?")) in kept_ids
                or str(r.get("run_id", "?")) in preserved
            ]
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "w") as handle:
                for record in kept:
                    handle.write(json.dumps(record, allow_nan=False, default=str) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
    except (OSError, TimeoutError, ValueError) as exc:
        raise LedgerError(f"cannot prune run ledger {path}: {exc}") from exc
    return {
        "runs_before": len(order),
        "runs_kept": len(kept_ids),
        "records_before": len(prunable),
        "records_kept": len(kept_prunable),
    }


def ledger_size_bytes(path: Union[str, Path]) -> int:
    """On-disk ledger size (0 when absent) — feeds the report warning."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _reject_constant(token: str) -> None:
    raise ValueError(f"{token} is not JSON")


def read_ledger(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every parseable record of ``path``, in file order.

    Torn or corrupt lines (a writer killed mid-append, disk-full
    truncation, bytes that are not UTF-8, a ``NaN`` the writer never
    emits) are skipped, not fatal — a postmortem tool must read exactly
    the ledgers crashes leave behind.
    """
    records: List[Dict[str, Any]] = []
    try:
        handle = open(path, "rb")
    except OSError:
        return records
    with handle:
        for line in handle:
            try:
                record = json.loads(line.decode("utf-8"), parse_constant=_reject_constant)
            except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError too
                continue
            if isinstance(record, dict) and "type" in record:
                records.append(record)
    return records


def typed_field(record: Dict[str, Any], key: str, types: Any, default: Any) -> Any:
    """``record[key]`` if it has one of the JSON ``types``, else ``default``.

    The readers' policy for a field of the wrong type: skip it, as
    :func:`read_ledger` skips a corrupt line.
    """
    value = record.get(key, default)
    return value if isinstance(value, types) else default


def group_runs(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Records grouped per ``run_id``: the postmortem unit of account.

    Returns ``{run_id: {"started": record|None, "phases": [...],
    "heartbeats": [...], "terminal": record|None}}`` preserving ledger
    order (Python dicts iterate in insertion order).
    """
    runs: Dict[str, Dict[str, Any]] = {}
    for record in records:
        run = runs.setdefault(
            typed_field(record, "run_id", str, "?"),
            {"started": None, "phases": [], "heartbeats": [], "terminal": None},
        )
        kind = record.get("type")
        if kind == "run_started":
            run["started"] = record
        elif kind == "phase":
            run["phases"].append(record)
        elif kind == "heartbeat":
            run["heartbeats"].append(record)
        elif kind in ("run_finished", "run_failed"):
            run["terminal"] = record
    return runs


def iter_failures(records: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """``run_failed`` records joined with their run's start context."""
    runs = group_runs(records)
    for run_id, run in runs.items():
        terminal = run["terminal"]
        if terminal is None or terminal.get("type") != "run_failed":
            continue
        started = run["started"] or {}
        yield {
            "run_id": run_id,
            "t": typed_field(terminal, "t", (int, float), None),
            "command": typed_field(started, "command", str, "?"),
            "argv": typed_field(started, "argv", list, []),
            "error": typed_field(terminal, "error", str, "") or typed_field(terminal, "reason", str, ""),
            "traceback": typed_field(terminal, "traceback", str, ""),
        }
