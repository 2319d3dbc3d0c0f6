"""Schedule -> Chrome Trace Format (Perfetto / ``chrome://tracing``).

A static EAS schedule *is* a timeline: tasks occupy PEs and
communication transactions occupy the links of their XY route over
time.  This module renders that timeline — plus, optionally, the PR-1
tracer spans of the scheduler run that produced it — as Chrome Trace
Format (CTF) JSON, the ``{"traceEvents": [...]}`` dialect understood by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.

Lane layout (CTF processes/threads):

========  ====================================================================
pid 1     **PEs** — one thread lane per processing element; every
          :class:`TaskPlacement` becomes a complete (``"X"``) event with
          energy / deadline / slack args.
pid 2     **Links** — one thread lane per directed link that carries
          traffic (hop-by-hop along the deterministic route); every
          :class:`CommPlacement` contributes one event per traversed
          link, carrying volume and the energy share attributed to it.
pid 3     **Scheduler** — the tracer spans of the run that produced the
          schedule, re-based so the first span opens at t=0.  Scheduler
          wall time and schedule time units are different clocks; CTF
          keeps them apart per process.
========  ====================================================================

Schedule times are already in the platform's native time unit
(microseconds under the default 1 Gbit/s bandwidth convention) and map
1:1 onto CTF's microsecond ``ts``/``dur`` fields.

Event ordering is deterministic (metadata first, then events sorted by
lane and start time), so exporting the same schedule twice produces
byte-identical JSON.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.obs.export import _jsonable_attrs
from repro.obs.tracer import NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedule.schedule import Schedule

#: bump when the lane layout / args change incompatibly.
TIMELINE_SCHEMA_VERSION = 1

PID_PES = 1
PID_LINKS = 2
PID_SCHEDULER = 3

#: scheduler spans are wall-clock seconds; CTF wants microseconds.
_SECONDS_TO_US = 1e6


def schedule_timeline_events(
    schedule: "Schedule", include_idle_links: bool = False
) -> List[Dict[str, Any]]:
    """CTF events for the task (PE) and transaction (link) lanes.

    Args:
        schedule: the (complete or partial) schedule to render.
        include_idle_links: when True, every topology link gets a lane
            even if no transaction ever crosses it; default renders only
            links that carry traffic (readable on 4x4 meshes and up).
    """
    events: List[Dict[str, Any]] = [
        _meta(PID_PES, None, "process_name", name="PEs"),
        _meta(PID_PES, None, "process_sort_index", sort_index=PID_PES),
        _meta(PID_LINKS, None, "process_name", name="Links"),
        _meta(PID_LINKS, None, "process_sort_index", sort_index=PID_LINKS),
    ]

    for pe in schedule.acg.pes:
        events.append(
            _meta(
                PID_PES,
                pe.index,
                "thread_name",
                name=f"PE{pe.index} {pe.type_name} @ {pe.position}",
            )
        )
        events.append(_meta(PID_PES, pe.index, "thread_sort_index", sort_index=pe.index))

    deadlines = {name: schedule.ctg.task(name).deadline for name in schedule.ctg.task_names()}
    for placement in sorted(
        schedule.task_placements.values(), key=lambda p: (p.pe, p.start, p.task)
    ):
        deadline = deadlines.get(placement.task, float("inf"))
        args: Dict[str, Any] = {
            "energy_nJ": placement.energy,
            "pe": placement.pe,
        }
        if deadline != float("inf"):
            args["deadline"] = deadline
            args["slack"] = deadline - placement.finish
        events.append(
            {
                "name": placement.task,
                "cat": "task",
                "ph": "X",
                "ts": placement.start,
                "dur": placement.duration,
                "pid": PID_PES,
                "tid": placement.pe,
                "args": args,
            }
        )

    # Link lanes: a stable tid per directed link, ordered by coordinates.
    used = {
        link for placement in schedule.comm_placements.values() for link in placement.links
    }
    lanes = schedule.acg.all_links() if include_idle_links else sorted(
        used, key=lambda link: (link.src, link.dst)
    )
    lane_ids = {
        link: tid
        for tid, link in enumerate(sorted(set(lanes), key=lambda link: (link.src, link.dst)))
    }
    for link, tid in sorted(lane_ids.items(), key=lambda item: item[1]):
        events.append(
            _meta(PID_LINKS, tid, "thread_name", name=f"link {link.src}->{link.dst}")
        )
        events.append(_meta(PID_LINKS, tid, "thread_sort_index", sort_index=tid))

    for placement in sorted(
        schedule.comm_placements.values(),
        key=lambda p: (p.start, p.src_task, p.dst_task),
    ):
        if placement.is_local:
            continue  # occupies no links; nothing to draw
        share = placement.energy / len(placement.links)
        for link in placement.links:
            events.append(
                {
                    "name": f"{placement.src_task}->{placement.dst_task}",
                    "cat": "comm",
                    "ph": "X",
                    "ts": placement.start,
                    "dur": placement.duration,
                    "pid": PID_LINKS,
                    "tid": lane_ids[link],
                    "args": {
                        "volume_bits": placement.volume,
                        "energy_share_nJ": share,
                        "route": f"PE{placement.src_pe}->PE{placement.dst_pe}",
                        "hops": placement.n_hops,
                    },
                }
            )
    return events


def tracer_timeline_events(tracer: Union[Tracer, NullTracer]) -> List[Dict[str, Any]]:
    """CTF events for the scheduler's tracer spans and point events.

    Spans are re-based so the earliest span start is t=0; nesting is
    rendered by Perfetto's flame layout from overlapping ``X`` events on
    one lane (spans of a single-threaded scheduler strictly nest).
    """
    spans = list(tracer.spans)
    trace_events = list(tracer.events)
    if not spans and not trace_events:
        return []
    starts = [span.start_wall for span in spans] + [event.time for event in trace_events]
    epoch = min(starts)
    events: List[Dict[str, Any]] = [
        _meta(PID_SCHEDULER, None, "process_name", name="Scheduler"),
        _meta(PID_SCHEDULER, None, "process_sort_index", sort_index=PID_SCHEDULER),
        _meta(PID_SCHEDULER, 0, "thread_name", name="spans"),
    ]
    for span in sorted(spans, key=lambda s: (s.start_wall, -s.duration, s.name)):
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": (span.start_wall - epoch) * _SECONDS_TO_US,
                "dur": span.duration * _SECONDS_TO_US,
                "pid": PID_SCHEDULER,
                "tid": 0,
                "args": _jsonable_attrs({"status": span.status, **span.attrs}),
            }
        )
    for event in sorted(trace_events, key=lambda e: (e.time, e.name)):
        events.append(
            {
                "name": event.name,
                "cat": "event",
                "ph": "i",
                "s": "p",
                "ts": (event.time - epoch) * _SECONDS_TO_US,
                "pid": PID_SCHEDULER,
                "tid": 0,
                "args": _jsonable_attrs(event.attrs),
            }
        )
    return events


def chrome_trace(
    schedule: "Schedule",
    tracer: Optional[Union[Tracer, NullTracer]] = None,
    include_idle_links: bool = False,
) -> Dict[str, Any]:
    """The complete CTF document for one schedule (plus optional spans)."""
    events = schedule_timeline_events(schedule, include_idle_links=include_idle_links)
    if tracer is not None:
        events.extend(tracer_timeline_events(tracer))
    return {
        "traceEvents": sorted(events, key=_event_sort_key),
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "benchmark": schedule.ctg.name,
            "algorithm": schedule.algorithm,
            "makespan": schedule.makespan(),
            "total_energy_nJ": schedule.total_energy(),
        },
    }


def _meta(pid: int, tid: Optional[int], kind: str, **args: Any) -> Dict[str, Any]:
    event: Dict[str, Any] = {"name": kind, "ph": "M", "pid": pid, "args": args}
    if tid is not None:
        event["tid"] = tid
    return event


def _event_sort_key(event: Dict[str, Any]):
    # Metadata lanes first (so viewers name lanes before drawing into
    # them), then chronological per (pid, tid).
    is_data = 0 if event["ph"] == "M" else 1
    return (
        is_data,
        event["pid"],
        event.get("tid", -1),
        event.get("ts", 0.0),
        event["name"],
    )
