"""The trend & postmortem reporter behind ``repro-noc report``.

Synthesizes the two durable telemetry stores — every ``BENCH_<name>.json``
benchmark history and the ``RUN_LEDGER.jsonl`` flight recorder — into
one report (text, markdown or JSON):

* **per-benchmark trend** — stored run count, median wall time, the
  latest run's wall time and its delta against the median, flagged as a
  regression with the same threshold ``--bench-check`` gates on.
  Comparisons are CPU-cohorted: only stored runs whose ``cpu_count``
  matches the latest run's enter the median (legacy records without one
  are wildcards), so a 1-CPU container's wall times never pollute a
  many-core host's trend — the skipped cross-host records are counted
  in ``ignored_runs``.
* **recent failures** — ``run_failed`` ledger records joined with their
  run's command/argv, traceback included (most recent first).
* **slowest phases** — tracer span self-times from the ``top_phases``
  snapshot of every ``run_finished`` record, aggregated by span name;
  plus the slowest individual grid cells from ``phase`` records.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.benchstore import (
    DEFAULT_THRESHOLD,
    BenchStore,
    RegressionCheck,
    cpu_comparable,
    median,
)
from repro.obs.diff import run_delta
from repro.obs.ledger import group_runs, iter_failures, ledger_size_bytes, read_ledger, typed_field

#: how many failures / phases / cells a bounded section keeps.
DEFAULT_LIMIT = 10

#: ledger size above which the report suggests ``--prune-ledger``.
LEDGER_WARN_BYTES = 5 * 1024 * 1024


def build_report(
    bench_dir: Union[str, Path, None] = None,
    ledger_path: Union[str, Path, None] = None,
    threshold: float = DEFAULT_THRESHOLD,
    limit: int = DEFAULT_LIMIT,
    exclude_run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The full report as a JSON-ready dict.

    ``bench_dir`` defaults to the repository root (the
    :class:`BenchStore` default); ``ledger_path`` of None skips the
    ledger sections.  ``exclude_run_id`` drops the reporting run itself
    from the run statistics (it is open while the report is built).
    """
    store = BenchStore(bench_dir) if bench_dir is not None else BenchStore.from_env()
    report: Dict[str, Any] = {
        "generated_at": time.time(),
        "threshold": threshold,
        "bench_dir": str(store.root) if store is not None else None,
        "ledger": str(ledger_path) if ledger_path is not None else None,
        "benchmarks": _bench_trends(store, threshold) if store is not None else [],
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
    report["regressions"] = [
        row["benchmark"] for row in report["benchmarks"] if row["regressed"]
    ]
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
        report["ledger_bytes"] = ledger_size_bytes(ledger_path)
        if report["ledger_bytes"] > LEDGER_WARN_BYTES:
            report["ledger_warning"] = (
                f"ledger is {report['ledger_bytes'] / 1e6:.1f} MB; "
                f"consider `repro-noc report --prune-ledger N` to rotate it"
            )
    return report


# -- section builders -----------------------------------------------------------


def _bench_trends(store: BenchStore, threshold: float) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for path in sorted(store.root.glob("BENCH_*.json")):
        name = path.name[len("BENCH_") : -len(".json")]
        runs = [
            run
            for run in store.load(name)
            if isinstance(run.get("wall_seconds"), (int, float))
        ]
        if not runs:
            continue
        last = runs[-1]
        cpu = last.get("cpu_count")
        cohort = [run for run in runs[:-1] if cpu_comparable(run, cpu)]
        check = RegressionCheck(
            name=name,
            wall_seconds=last["wall_seconds"],
            median_seconds=median(run["wall_seconds"] for run in cohort),
            threshold=threshold,
        )
        rows.append(
            {
                "benchmark": name,
                "runs": len(runs),
                "cpu_count": cpu,
                "ignored_runs": len(runs) - 1 - len(cohort),
                "median_wall_seconds": check.median_seconds,
                "last_wall_seconds": check.wall_seconds,
                "last_git_rev": last.get("git_rev", "unknown"),
                "delta_pct": (
                    round(100.0 * (check.ratio - 1.0), 2) if check.median_seconds else None
                ),
                "regressed": check.regressed,
            }
        )
    return rows


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


# -- rendering ------------------------------------------------------------------


def format_report(report: Dict[str, Any], fmt: str = "text") -> str:
    """Render ``report`` as ``text``, ``markdown`` or ``json``."""
    if fmt == "json":
        return json.dumps(report, indent=1, allow_nan=False, default=str)
    if fmt == "markdown":
        return _format_markdown(report)
    if fmt == "text":
        return _format_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _trend_cells(row: Dict[str, Any]) -> List[str]:
    median = row["median_wall_seconds"]
    delta = row["delta_pct"]
    return [
        row["benchmark"],
        str(row["runs"]),
        f"{median * 1e3:.1f}" if median is not None else "-",
        f"{row['last_wall_seconds'] * 1e3:.1f}",
        f"{delta:+.1f}%" if delta is not None else "-",
        "REGRESSION" if row["regressed"] else "ok",
        str(row["ignored_runs"]),
    ]


_TREND_HEADER = ["benchmark", "runs", "median ms", "last ms", "delta", "verdict", "x-cpu"]


def _format_text(report: Dict[str, Any]) -> str:
    lines = ["== benchmark trends =="]
    rows = report["benchmarks"]
    if rows:
        table = [_TREND_HEADER] + [_trend_cells(row) for row in rows]
        widths = [max(len(r[i]) for r in table) for i in range(len(_TREND_HEADER))]
        for r in table:
            lines.append("  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    else:
        lines.append("  (no benchmark histories found)")
    if report["regressions"]:
        lines.append(f"  flagged: {', '.join(report['regressions'])}")

    stats = report["runs"]
    lines.append("== runs ==")
    lines.append(
        f"  {stats['total']} ledgered ({stats['finished']} finished, "
        f"{stats['failed']} failed, {stats['open']} open)"
    )

    if report.get("caches"):
        lines.append("== cache hit rates ==")
        for row in report["caches"]:
            rate = "-" if row["hit_rate_pct"] is None else f"{row['hit_rate_pct']:.1f}%"
            misses = "-" if row["misses"] is None else str(row["misses"])
            lines.append(
                f"  {row['cache']:<18} hits {row['hits']:<10d} "
                f"misses {misses:<10} rate {rate}"
            )

    surv = report.get("survivability")
    if surv:
        lines.append("== fault survivability ==")
        mean = surv["mean_energy_delta"]
        mean_txt = "-" if mean is None else f"{mean:+.3f} nJ"
        lines.append(
            f"  {surv['plans']} plans injected: {surv['recovered']} recovered, "
            f"{surv['survived']} survived ({surv['survived_fraction']:.0%}); "
            f"mean recovery energy delta {mean_txt}"
        )
        for kind, bucket in surv["by_kind"].items():
            lines.append(
                f"  {kind:<9s} survived {bucket['survived']}/{bucket['plans']}"
            )

    lines.append("== recent failures ==")
    if report["failures"]:
        for failure in report["failures"]:
            lines.append(
                f"  {_stamp(failure.get('t'))}  {failure['command']}  {failure['error']}"
            )
            tail = [ln for ln in failure.get("traceback", "").splitlines() if ln.strip()]
            if tail:
                lines.append(f"      {tail[-1].strip()}")
    else:
        lines.append("  (none)")

    lines.append("== slowest phases (self time) ==")
    if report["slow_phases"]:
        width = max(len(p["name"]) for p in report["slow_phases"])
        for phase in report["slow_phases"]:
            lines.append(
                f"  {phase['name'].ljust(width)}  x{phase['count']:<5d} "
                f"{phase['self_seconds'] * 1e3:10.2f} ms"
            )
    else:
        lines.append("  (no span telemetry ledgered)")

    if report["slow_cells"]:
        lines.append("== slowest grid cells ==")
        for cell in report["slow_cells"]:
            label = cell["tag"] or f"{cell['benchmark']}:{cell['scheduler']}"
            lines.append(f"  {label}  {cell['runtime_seconds'] * 1e3:.1f} ms")

    delta = report.get("run_delta")
    if delta:
        lines.append(
            f"== last `{delta.get('command', '?')}` vs previous "
            f"({delta['run_a']} -> {delta['run_b']}) =="
        )
        lines.extend(_delta_lines(delta))
    warning = report.get("ledger_warning")
    if warning:
        lines.append(f"WARNING: {warning}")
    return "\n".join(lines)


def _delta_lines(delta: Dict[str, Any]) -> List[str]:
    def fmt(pair: List[Any], unit: str) -> str:
        def one(v: Any) -> str:
            return "-" if v is None else f"{v:g}{unit}"

        text = f"{one(pair[0])} -> {one(pair[1])}"
        if pair[0] is not None and pair[1] is not None:
            text += f" ({pair[1] - pair[0]:+g}{unit})"
        return text

    lines = []
    for name, pair in delta.get("phase_walls", {}).items():
        lines.append(f"  wall  {name:<24} {fmt(pair, 's')}")
    for name, pair in delta.get("counters", {}).items():
        lines.append(f"  count {name:<24} {fmt(pair, '')}")
    if not lines:
        lines.append("  (no comparable telemetry)")
    return lines


def _format_markdown(report: Dict[str, Any]) -> str:
    lines = ["# repro-noc run report", "", "## Benchmark trends", ""]
    rows = report["benchmarks"]
    if rows:
        lines.append("| " + " | ".join(_TREND_HEADER) + " |")
        lines.append("|" + "---|" * len(_TREND_HEADER))
        for row in rows:
            lines.append("| " + " | ".join(_trend_cells(row)) + " |")
    else:
        lines.append("_no benchmark histories found_")
    lines += ["", "## Runs", ""]
    stats = report["runs"]
    lines.append(
        f"{stats['total']} ledgered — {stats['finished']} finished, "
        f"{stats['failed']} failed, {stats['open']} open."
    )
    if report.get("caches"):
        lines += ["", "## Cache hit rates", ""]
        lines.append("| cache | hits | misses | hit rate |")
        lines.append("|---|---|---|---|")
        for row in report["caches"]:
            rate = "-" if row["hit_rate_pct"] is None else f"{row['hit_rate_pct']:.1f}%"
            misses = "-" if row["misses"] is None else str(row["misses"])
            lines.append(f"| {row['cache']} | {row['hits']} | {misses} | {rate} |")
    surv = report.get("survivability")
    if surv:
        lines += ["", "## Fault survivability", ""]
        mean = surv["mean_energy_delta"]
        mean_txt = "-" if mean is None else f"{mean:+.3f} nJ"
        lines.append(
            f"{surv['plans']} plans injected — {surv['recovered']} recovered, "
            f"{surv['survived']} survived ({surv['survived_fraction']:.0%}), "
            f"mean recovery energy delta {mean_txt}."
        )
        lines += ["", "| kind | plans | survived |", "|---|---|---|"]
        for kind, bucket in surv["by_kind"].items():
            lines.append(f"| {kind} | {bucket['plans']} | {bucket['survived']} |")
    lines += ["", "## Recent failures", ""]
    if report["failures"]:
        for failure in report["failures"]:
            lines.append(
                f"- `{_stamp(failure.get('t'))}` **{failure['command']}** — {failure['error']}"
            )
    else:
        lines.append("_none_")
    lines += ["", "## Slowest phases (self time)", ""]
    if report["slow_phases"]:
        lines.append("| phase | count | self ms |")
        lines.append("|---|---|---|")
        for phase in report["slow_phases"]:
            lines.append(
                f"| {phase['name']} | {phase['count']} "
                f"| {phase['self_seconds'] * 1e3:.2f} |"
            )
    else:
        lines.append("_no span telemetry ledgered_")
    delta = report.get("run_delta")
    if delta:
        lines += [
            "",
            f"## Last `{delta.get('command', '?')}` vs previous",
            "",
            "```",
            *_delta_lines(delta),
            "```",
        ]
    warning = report.get("ledger_warning")
    if warning:
        lines += ["", f"**WARNING:** {warning}"]
    return "\n".join(lines)


def _stamp(t: Optional[float]) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(t)) if t else "?"
    except (OverflowError, OSError, ValueError):  # a timestamp no clock can show
        return "?"
