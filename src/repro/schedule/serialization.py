"""JSON serialisation of schedules.

Persisting a schedule decouples the (possibly minutes-long) scheduling
run from downstream analysis: a saved schedule can be re-validated,
re-simulated, rendered, or diffed without recomputation.  The CTG and
platform are not embedded — only their identity and enough placement
data to reconstruct every invariant check, given the same CTG/ACG pair
(reconstruction fails loudly if they differ).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.arch.acg import ACG
from repro.arch.topology import Link
from repro.ctg.graph import CTG
from repro.errors import ArchitectureError, ScheduleValidationError, SerializationError
from repro.obs.decisions import TaskDecision, require_object
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.schedule import Schedule

#: v2 embeds the decision provenance (schema-v2 records) when present,
#: so a saved schedule can still explain itself and ``repro-noc diff``
#: can classify movers; v1 documents load unchanged (empty provenance).
FORMAT_VERSION = 2

_READABLE_VERSIONS = (1, 2)


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Plain-dict representation of a schedule."""
    document: Dict[str, Any] = {
        "format": "repro-schedule",
        "version": FORMAT_VERSION,
        "algorithm": schedule.algorithm,
        "ctg": schedule.ctg.name,
        "n_pes": schedule.acg.n_pes,
        "runtime_seconds": schedule.runtime_seconds,
        "tasks": [
            {
                "task": p.task,
                "pe": p.pe,
                "start": p.start,
                "finish": p.finish,
                "energy": p.energy,
            }
            for p in sorted(schedule.task_placements.values(), key=lambda p: p.task)
        ],
        "comms": [
            {
                "src_task": c.src_task,
                "dst_task": c.dst_task,
                "volume": c.volume,
                "src_pe": c.src_pe,
                "dst_pe": c.dst_pe,
                "start": c.start,
                "finish": c.finish,
                "energy": c.energy,
                "links": [[list(l.src), list(l.dst)] for l in c.links],
            }
            for c in sorted(
                schedule.comm_placements.values(),
                key=lambda c: (c.src_task, c.dst_task),
            )
        ],
    }
    if schedule.provenance:
        document["provenance"] = [d.to_dict() for d in schedule.provenance]
    return document


def schedule_from_dict(data: Dict[str, Any], ctg: CTG, acg: ACG) -> Schedule:
    """Rebuild a schedule object against its CTG and platform.

    Link coordinates must be integers in the range :attr:`Link.key`
    encodes, so a loaded link never aliases another resource id.  As
    everywhere in the document, a JSON boolean reads as the integer 0
    or 1 and names the same link those would.

    Raises:
        SerializationError: malformed document or mismatched CTG/ACG
            (wrong name, wrong platform size, unknown tasks, PE indices
            outside ``0..n_pes-1``, link coordinates that are negative,
            out of range or not integers).
    """
    require_object(data, "schedule document")
    try:
        if data.get("format") != "repro-schedule":
            raise SerializationError(
                f"not a repro-schedule document: format={data.get('format')!r}"
            )
        if data.get("version") not in _READABLE_VERSIONS:
            raise SerializationError(f"unsupported version {data.get('version')!r}")
        if data["ctg"] != ctg.name:
            raise SerializationError(
                f"schedule was computed for CTG {data['ctg']!r}, got {ctg.name!r}"
            )
        if data["n_pes"] != acg.n_pes:
            raise SerializationError(
                f"schedule targets a {data['n_pes']}-PE platform, got {acg.n_pes}"
            )
        schedule = Schedule(ctg, acg, algorithm=data.get("algorithm", ""))
        schedule.runtime_seconds = float(data.get("runtime_seconds", 0.0))
        for entry in data["tasks"]:
            require_object(entry, "task entry")
            if entry["task"] not in ctg:
                raise SerializationError(f"schedule places unknown task {entry['task']!r}")
            schedule.place_task(
                TaskPlacement(
                    task=entry["task"],
                    pe=_pe_index(entry["pe"], acg),
                    start=float(entry["start"]),
                    finish=float(entry["finish"]),
                    energy=float(entry["energy"]),
                )
            )
        for entry in data["comms"]:
            require_object(entry, "comm entry")
            links = tuple(Link(tuple(src), tuple(dst)) for src, dst in entry["links"])
            schedule.place_comm(
                CommPlacement(
                    src_task=entry["src_task"],
                    dst_task=entry["dst_task"],
                    volume=float(entry["volume"]),
                    src_pe=_pe_index(entry["src_pe"], acg),
                    dst_pe=_pe_index(entry["dst_pe"], acg),
                    start=float(entry["start"]),
                    finish=float(entry["finish"]),
                    links=links,
                    energy=float(entry["energy"]),
                )
            )
        schedule.provenance = [
            TaskDecision.from_dict(entry) for entry in data.get("provenance", [])
        ]
        return schedule
    except SerializationError:
        raise
    except (  # ScheduleValidationError: a task or transaction placed twice
        ArchitectureError, KeyError, OverflowError, ScheduleValidationError, TypeError, ValueError
    ) as exc:
        raise SerializationError(f"malformed schedule document: {exc}") from exc


def _pe_index(value: Any, acg: ACG) -> int:
    """A placement's PE index, checked here because ``ACG.pe`` wraps negatives."""
    index = int(value)
    if not 0 <= index < acg.n_pes:
        raise SerializationError(f"PE index {index} out of range 0..{acg.n_pes - 1}")
    return index


def schedule_to_json(schedule: Schedule, indent: int = 2) -> str:
    return json.dumps(schedule_to_dict(schedule), indent=indent, sort_keys=True)


def schedule_from_json(text: str, ctg: CTG, acg: ACG) -> Schedule:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return schedule_from_dict(data, ctg, acg)
