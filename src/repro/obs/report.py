"""The postmortem reporter behind ``repro-noc report``.

Synthesizes the ``RUN_LEDGER.jsonl`` flight recorder into one report;
:func:`report_view` lays it out for :func:`repro.render.render` as
text, markdown or JSON:

* **recent failures** — ``run_failed`` ledger records joined with their
  run's command/argv, traceback included (most recent first).
* **slowest phases** — tracer span self-times from the ``top_phases``
  snapshot of every ``run_finished`` record, aggregated by span name;
  plus the slowest individual grid cells from ``phase`` records.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.diff import delta_section, run_delta
from repro.obs.ledger import group_runs, iter_failures, ledger_size_bytes, read_ledger, typed_field
from repro.render import Section, View, cell

#: how many failures / phases / cells a bounded section keeps.
DEFAULT_LIMIT = 10

#: ledger size above which the report suggests ``--prune-ledger``.
LEDGER_WARN_BYTES = 5 * 1024 * 1024


def build_report(
    ledger_path: Union[str, Path, None] = None,
    limit: int = DEFAULT_LIMIT,
    exclude_run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The full report as a JSON-ready dict.

    ``ledger_path`` of None skips the ledger sections.
    ``exclude_run_id`` drops the reporting run itself from the run
    statistics (it is open while the report is built).
    """
    report: Dict[str, Any] = {
        "generated_at": time.time(),
        "ledger": str(ledger_path) if ledger_path is not None else None,
        "failures": [],
        "slow_phases": [],
        "slow_cells": [],
        "runs": {"total": 0, "finished": 0, "failed": 0, "open": 0},
        "caches": [],
        "survivability": None,
        "ledger_bytes": 0,
        "ledger_warning": None,
        "run_delta": None,
    }
    if ledger_path is not None:
        records = read_ledger(ledger_path)
        failures = [f for f in iter_failures(records) if f["run_id"] != exclude_run_id]
        failures.sort(key=lambda f: f.get("t") or 0.0, reverse=True)
        report["failures"] = failures[:limit]
        report["slow_phases"] = _slow_phases(records, limit)
        report["slow_cells"] = _slow_cells(records, limit)
        report["runs"] = _run_stats(records, exclude_run_id)
        report["caches"] = _cache_rates(records)
        report["survivability"] = _survivability(records)
        report["run_delta"] = _last_run_delta(records, exclude_run_id)
        report["ledger_bytes"] = ledger_size_bytes(ledger_path, exclude_run_id)
        if report["ledger_bytes"] > LEDGER_WARN_BYTES:
            report["ledger_warning"] = (
                f"ledger is {report['ledger_bytes'] / 1e6:.1f} MB; "
                f"consider `repro-noc report --prune-ledger N` to rotate it"
            )
    return report


# -- section builders -----------------------------------------------------------


def _slow_phases(records: List[Dict[str, Any]], limit: int) -> List[Dict[str, Any]]:
    """Span self-times from every run's ``run_finished.top_phases``.

    Like :func:`~repro.obs.ledger.read_ledger`, a field of the wrong
    JSON type is skipped: a corrupt ledger still yields a report.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record.get("type") not in ("run_finished", "run_failed"):
            continue
        for phase in typed_field(record, "top_phases", list, []):
            name = typed_field(phase, "name", str, "") if isinstance(phase, dict) else ""
            if not name:
                continue
            bucket = totals.setdefault(name, {"count": 0, "self_seconds": 0.0})
            bucket["count"] += typed_field(phase, "count", (int, float), 1)
            bucket["self_seconds"] += typed_field(phase, "self_seconds", (int, float), 0.0)
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self_seconds"])
    return [
        {"name": name, "count": int(stats["count"]), "self_seconds": stats["self_seconds"]}
        for name, stats in ranked[:limit]
    ]


def _slow_cells(records: List[Dict[str, Any]], limit: int) -> List[Dict[str, Any]]:
    """The slowest individual grid cells ever flight-recorded."""
    cells = [
        {
            "tag": record.get("tag", ""),
            "scheduler": record.get("scheduler", ""),
            "benchmark": record.get("benchmark", ""),
            "runtime_seconds": record["runtime_seconds"],
            "run_id": record.get("run_id", ""),
        }
        for record in records
        if record.get("type") == "phase"
        and record.get("name") == "cell"
        and isinstance(record.get("runtime_seconds"), (int, float))
    ]
    cells.sort(key=lambda cell: -cell["runtime_seconds"])
    return cells[:limit]


def _survivability(records: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Aggregate of every ``fault_plan`` record the ledger holds.

    The ``repro-noc faults`` commands flight-record one ``phase`` record
    per injected plan; this folds them into the survivability headline:
    recovered / survived counts, the per-kind breakdown and the mean
    recovery energy delta.  ``None`` when no campaign ever ran.
    """
    rows = [
        record
        for record in records
        if record.get("type") == "phase" and record.get("name") == "fault_plan"
    ]
    if not rows:
        return None
    survived = sum(1 for row in rows if row.get("survived"))
    by_kind: Dict[str, Dict[str, int]] = {}
    for row in rows:
        bucket = by_kind.setdefault(typed_field(row, "kind", str, "?"), {"plans": 0, "survived": 0})
        bucket["plans"] += 1
        bucket["survived"] += 1 if row.get("survived") else 0
    deltas = [
        row["energy_delta"]
        for row in rows
        if row.get("recovered") and isinstance(row.get("energy_delta"), (int, float))
    ]
    return {
        "plans": len(rows),
        "recovered": sum(1 for row in rows if row.get("recovered")),
        "survived": survived,
        "survived_fraction": round(survived / len(rows), 4),
        "mean_energy_delta": round(sum(deltas) / len(deltas), 6) if deltas else None,
        "by_kind": {kind: by_kind[kind] for kind in sorted(by_kind)},
    }


def _last_run_delta(
    records: List[Dict[str, Any]], exclude_run_id: Optional[str]
) -> Optional[Dict[str, Any]]:
    """Telemetry delta: latest finished run vs the previous one of the
    same command — "did my last invocation get slower" at a glance."""
    runs = group_runs(records)
    runs.pop(exclude_run_id, None)
    finished = [
        (run_id, run)
        for run_id, run in runs.items()
        if run["terminal"] is not None
        and run["terminal"].get("type") == "run_finished"
    ]
    if len(finished) < 2:
        return None
    last_id, last = finished[-1]
    command = (last["started"] or {}).get("command")
    for prev_id, prev in reversed(finished[:-1]):
        if (prev["started"] or {}).get("command") == command:
            flat_prev = [prev["started"] or {}, prev["terminal"], *prev["phases"]]
            flat_last = [last["started"] or {}, last["terminal"], *last["phases"]]
            delta = run_delta(prev_id, flat_prev, last_id, flat_last)
            document = delta.to_dict()
            document["command"] = command
            return document
    return None


#: (row label, hits counter, misses counter) per scheduler cache; a
#: ``None`` misses counter is a pure fast-path count (no rate).
_CACHE_COUNTERS = [
    ("eval F(i,k)", "eas.cache_hits", "eas.evaluations"),
    ("rebuild probe", "rebuild.probe_hits", "rebuild.probes"),
    ("path-table", "comm.path_cache_hits", "comm.path_cache_misses"),
    ("horizon fast path", "comm.horizon_fast_path", None),
]


def _cache_rates(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate scheduler-cache hit rates over every terminal record.

    Sums the counter snapshots of ``run_finished``/``run_failed``
    records — the same counters the ledger already persists — into one
    hits / misses / hit-rate row per cache.  Caches that never fired
    across the ledger are omitted.
    """
    totals: Dict[str, float] = {}
    for record in records:
        if record.get("type") not in ("run_finished", "run_failed"):
            continue
        for name, value in typed_field(record, "metrics", dict, {}).items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0.0) + value
    rows: List[Dict[str, Any]] = []
    for label, hits_key, misses_key in _CACHE_COUNTERS:
        hits = totals.get(hits_key, 0.0)
        misses = totals.get(misses_key, 0.0) if misses_key else None
        if not hits and not misses:
            continue
        rate = None
        if misses is not None and hits + misses > 0:
            rate = round(100.0 * hits / (hits + misses), 1)
        rows.append(
            {
                "cache": label,
                "hits": int(hits),
                "misses": int(misses) if misses is not None else None,
                "hit_rate_pct": rate,
            }
        )
    return rows


def _run_stats(records: List[Dict[str, Any]], exclude_run_id: Optional[str]) -> Dict[str, int]:
    runs = group_runs(records)
    runs.pop(exclude_run_id, None)
    stats = {"total": len(runs), "finished": 0, "failed": 0, "open": 0}
    for run in runs.values():
        terminal = run["terminal"]
        if terminal is None:
            stats["open"] += 1
        elif terminal.get("type") == "run_finished":
            stats["finished"] += 1
        else:
            stats["failed"] += 1
    return stats


# -- the view -------------------------------------------------------------------


def report_view(report: Dict[str, Any]) -> View:
    """The sections of ``report``; its JSON document is ``report`` itself."""
    stats = report["runs"]
    runs = (
        f"{stats['total']} ledgered ({stats['finished']} finished, "
        f"{stats['failed']} failed, {stats['open']} open)"
    )
    caches = [
        [r["cache"], str(r["hits"]), cell(r["misses"]), cell(r["hit_rate_pct"], "{:.1f}%")]
        for r in report.get("caches") or []
    ]
    surv = report.get("survivability") or {}
    survival = [
        f"{surv['plans']} plans injected: {surv['recovered']} recovered, "
        f"{surv['survived']} survived ({surv['survived_fraction']:.0%}); "
        f"mean recovery energy delta {cell(surv['mean_energy_delta'], '{:+.3f} nJ')}"
    ] if surv else []
    kinds = [
        [kind, str(b["plans"]), str(b["survived"])] for kind, b in surv.get("by_kind", {}).items()
    ]
    failures = [
        [_stamp(f.get("t")), f["command"], f["error"], _last_line(f.get("traceback", ""))]
        for f in report["failures"]
    ]
    phases = [
        [p["name"], str(p["count"]), f"{p['self_seconds'] * 1e3:.2f}"] for p in report["slow_phases"]
    ]
    cells = [
        [str(c["tag"] or f"{c['benchmark']}:{c['scheduler']}"), f"{c['runtime_seconds'] * 1e3:.1f}"]
        for c in report["slow_cells"]
    ]
    sections = [
        Section("runs", [runs]),
        Section("cache hit rates", table=[["cache", "hits", "misses", "hit rate"], *caches]),
        Section("fault survivability", survival, [["kind", "plans", "survived"], *kinds]),
        Section(
            "recent failures",
            table=[["when", "command", "error", "traceback"], *failures],
            empty="(none)",
        ),
        Section(
            "slowest phases (self time)",
            table=[["phase", "count", "self ms"], *phases],
            empty="(no span telemetry ledgered)",
        ),
        Section("slowest grid cells", table=[["cell", "ms"], *cells]),
    ]
    delta = report.get("run_delta")
    if delta:
        heading = (
            f"last `{delta.get('command', '?')}` vs previous "
            f"({delta['run_a']} -> {delta['run_b']})"
        )
        walls, counters = delta.get("phase_walls", {}), delta.get("counters", {})
        sections.append(delta_section(heading, walls, counters))
    if report.get("ledger_warning"):
        sections.append(Section("ledger warning", [report["ledger_warning"]]))
    return View("repro-noc run report", sections, report)


def _last_line(text: str) -> str:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else "-"


def _stamp(t: Optional[float]) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(t)) if t else "?"
    except (OverflowError, OSError, ValueError):  # a timestamp no clock can show
        return "?"
