"""Trace export (JSONL) and the human-readable profile summary.

The JSONL trace is one JSON object per line, each carrying a ``type``:

========== ==================================================================
``meta``     schema version plus run metadata (command, argv)
``span``     ``name, parent, start, duration, status, attrs`` (close order)
``event``    instantaneous points: ``name, time, attrs``
``decision`` one per task commit — ``task, pe, algorithm, rescue, regret,``
             ``start, finish, energy, candidates`` (losing PEs)
``counter``  final counter totals, one line per counter
``gauge``    final gauge values (only gauges that were written)
========== ==================================================================

Non-finite floats are serialised as the strings ``"inf"`` / ``"-inf"`` /
``"nan"`` so every line is strict JSON.  Record ordering is
deterministic — spans and events chronological (ties broken by name),
decisions in commit order, instruments sorted by name — so two traces of
the same run diff cleanly line by line.  :func:`write_trace` writes to a
file, to stdout (path ``"-"``) or transparently gzipped (``*.gz``).
:func:`format_profile` renders the same data as the ``--profile`` stderr
summary: a phase-timing table sorted by descending self-time (with a
percent-of-total column), counter totals, and decision statistics.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs.context import Instrumentation

#: bump when the line schema changes incompatibly.
#: v2: deterministic record ordering (chronological spans/events).
TRACE_SCHEMA_VERSION = 2


def trace_records(
    instrumentation: Instrumentation, meta: Optional[Dict[str, Any]] = None
) -> Iterator[Dict[str, Any]]:
    """Yield every trace line of the bundle as a plain dict.

    The order is deterministic: ``meta`` first, spans sorted by wall
    start (close order puts children before parents, which interleaves
    unpredictably under refactors), events by time, decisions in commit
    order, then counters / gauges sorted by name.
    """
    yield {"type": "meta", "schema_version": TRACE_SCHEMA_VERSION, **(meta or {})}
    for span in sorted(
        instrumentation.tracer.spans, key=lambda s: (s.start_wall, -s.duration, s.name)
    ):
        yield {
            "type": "span",
            "name": span.name,
            "parent": span.parent,
            "start": span.start_wall,
            "duration": span.duration,
            "status": span.status,
            "attrs": _jsonable_attrs(span.attrs),
        }
    for event in sorted(instrumentation.tracer.events, key=lambda e: (e.time, e.name)):
        yield {
            "type": "event",
            "name": event.name,
            "time": event.time,
            "attrs": _jsonable_attrs(event.attrs),
        }
    for decision in instrumentation.decisions:
        yield {"type": "decision", **decision.to_dict()}
    snapshot = instrumentation.metrics.snapshot()
    for name, value in sorted(snapshot["counters"].items()):
        yield {"type": "counter", "name": name, "value": value}
    for name, value in sorted(snapshot["gauges"].items()):
        yield {"type": "gauge", "name": name, "value": _jsonable_value(value)}


def write_trace(
    path: str, instrumentation: Instrumentation, meta: Optional[Dict[str, Any]] = None
) -> int:
    """Write the bundle as JSONL to ``path``; returns the line count.

    ``path`` may be ``"-"`` (write to stdout, so traces pipe into
    ``jq``/``grep`` directly) or end in ``.gz`` (written gzip-compressed;
    readers like ``zcat`` and ``gzip.open`` see plain JSONL).
    """
    if path == "-":
        return _write_records(sys.stdout, instrumentation, meta)
    if path.endswith(".gz"):
        with gzip.open(path, "wt") as handle:
            return _write_records(handle, instrumentation, meta)
    with open(path, "w") as handle:
        return _write_records(handle, instrumentation, meta)


def _write_records(
    handle, instrumentation: Instrumentation, meta: Optional[Dict[str, Any]]
) -> int:
    count = 0
    for record in trace_records(instrumentation, meta):
        handle.write(json.dumps(record, allow_nan=False))
        handle.write("\n")
        count += 1
    return count


def aggregate_self_times(instrumentation: Instrumentation) -> Dict[str, Tuple[int, float, float]]:
    """Per span name: ``(count, total seconds, self seconds)``.

    Self time is the span's total minus the time spent in its direct
    children (matched by parent name), the number that actually ranks
    hot phases — a driver span that merely wraps the whole run has a
    huge total but near-zero self time.
    """
    totals = instrumentation.tracer.aggregate()
    child_time: Dict[str, float] = {}
    for span in instrumentation.tracer.spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {
        name: (count, seconds, max(0.0, seconds - child_time.get(name, 0.0)))
        for name, (count, seconds) in totals.items()
    }


def format_profile(instrumentation: Instrumentation) -> str:
    """The ``--profile`` stderr summary: phases, counters, decisions.

    Phases are sorted by descending *self* time and carry a
    percent-of-total column, so the hot phase reads off the first line.
    """
    lines = ["== phase timings =="]
    aggregated = aggregate_self_times(instrumentation)
    if aggregated:
        width = max(len(name) for name in aggregated)
        total_self = sum(self_s for _, _, self_s in aggregated.values())
        for name, (count, seconds, self_s) in sorted(
            aggregated.items(), key=lambda item: (-item[1][2], item[0])
        ):
            pct = 100.0 * self_s / total_self if total_self > 0 else 0.0
            lines.append(
                f"  {name.ljust(width)}  x{count:<5d} "
                f"self {self_s * 1e3:10.2f} ms ({pct:5.1f}%)  "
                f"total {seconds * 1e3:10.2f} ms"
            )
    else:
        lines.append("  (no spans recorded)")

    counters = instrumentation.metrics.snapshot()["counters"]
    lines.append("== counters ==")
    if counters:
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name.ljust(width)}  {counters[name]:g}")
    else:
        lines.append("  (no counters)")

    decisions = instrumentation.decisions
    lines.append("== decisions ==")
    if len(decisions):
        rescues = sum(1 for d in decisions if d.rescue)
        forced = sum(1 for d in decisions if d.forced)
        lines.append(
            f"  {len(decisions)} task commits "
            f"({rescues} rescues, {forced} forced placements)"
        )
    else:
        lines.append("  (no decisions recorded)")
    return "\n".join(lines)


def _jsonable_value(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _jsonable_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {key: _jsonable_value(value) for key, value in attrs.items()}
