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
from json.encoder import encode_basestring_ascii
from typing import Any, Dict

from repro.arch.acg import ACG
from repro.arch.topology import Link
from repro.ctg.graph import CTG
from repro.errors import SerializationError
from repro.jsondoc import as_coord, as_pair, document, parse
from repro.obs.decisions import TaskDecision
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

    Raises:
        SerializationError: a document :mod:`repro.jsondoc` rejects, a PE index
            outside ``0..n_pes-1``, or another CTG, platform size or task set.
    """
    with document(data, "repro-schedule", _READABLE_VERSIONS) as doc:
        name, n_pes = doc.name("ctg"), doc.index("n_pes")
        if name != ctg.name:
            raise SerializationError(f"schedule was computed for CTG {name!r}, got {ctg.name!r}")
        if n_pes != acg.n_pes:
            raise SerializationError(f"schedule targets a {n_pes}-PE platform, got {acg.n_pes}")
        schedule = Schedule(ctg, acg, algorithm=doc.name("algorithm", ""))
        schedule.runtime_seconds = doc.number("runtime_seconds", 0.0)
        for entry in doc.entries("tasks"):
            task = entry.name("task")
            if task not in ctg:
                raise SerializationError(f"schedule places unknown task {task!r}")
            schedule.place_task(
                TaskPlacement(
                    task=task,
                    pe=entry.index("pe", label="PE index", limit=n_pes),
                    start=entry.number("start"),
                    finish=entry.number("finish"),
                    energy=entry.number("energy"),
                )
            )
        for entry in doc.entries("comms"):
            label = f"{entry.what}: link"
            links = tuple(Link(*as_pair(hop, label, as_coord)) for hop in entry.array("links"))
            schedule.place_comm(
                CommPlacement(
                    src_task=entry.name("src_task"),
                    dst_task=entry.name("dst_task"),
                    volume=entry.number("volume"),
                    src_pe=entry.index("src_pe", label="PE index", limit=n_pes),
                    dst_pe=entry.index("dst_pe", label="PE index", limit=n_pes),
                    start=entry.number("start"),
                    finish=entry.number("finish"),
                    links=links,
                    energy=entry.number("energy"),
                )
            )
        schedule.provenance = [TaskDecision.from_dict(d) for d in doc.array("provenance", [])]
        return schedule


#: How ``json.dumps`` spells the floats ``float.__repr__`` writes as ``inf``/``-inf``/``nan``.
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}

_TASK = """    {{
      "energy": {},
      "finish": {},
      "pe": {},
      "start": {},
      "task": {}
    }}"""

_COMM = """    {{
      "dst_pe": {},
      "dst_task": {},
      "energy": {},
      "finish": {},
      "links": {},
      "src_pe": {},
      "src_task": {},
      "start": {},
      "volume": {}
    }}"""

_LINK = """        [
          [
            {},
            {}
          ],
          [
            {},
            {}
          ]
        ]"""


def _number(value: Any) -> str:
    """``value`` as ``json.dumps`` writes it: ``float.__repr__`` or ``int.__repr__``."""
    if type(value) is float:
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)  # a bool, None or a subclass: as json's own scalar encoder


def _array(items: list, indent: str) -> str:
    """The JSON array of the written ``items``, its ``]`` at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def schedule_to_json(schedule: Schedule) -> str:
    """``json.dumps(schedule_to_dict(schedule), indent=2, sort_keys=True)``, byte for byte.

    The document's shape is fixed, so it is written directly: keys in
    sorted order, each value as ``json`` formats its type.  Provenance,
    present only when decisions were recorded, goes through ``json.dumps``
    as its own subtree.
    """
    name = encode_basestring_ascii
    tasks = [
        _TASK.format(_number(p.energy), _number(p.finish), _number(p.pe), _number(p.start), name(p.task))
        for p in sorted(schedule.task_placements.values(), key=lambda p: p.task)
    ]
    comms = [
        _COMM.format(
            _number(c.dst_pe), name(c.dst_task), _number(c.energy), _number(c.finish),
            _array([_LINK.format(*map(_number, (*link.src, *link.dst))) for link in c.links], "      "),
            _number(c.src_pe), name(c.src_task), _number(c.start), _number(c.volume),
        )
        for c in sorted(schedule.comm_placements.values(), key=lambda c: (c.src_task, c.dst_task))
    ]
    provenance = ""
    if schedule.provenance:
        records = json.dumps([d.to_dict() for d in schedule.provenance], indent=2, sort_keys=True)
        provenance = '  "provenance": ' + records.replace("\n", "\n  ") + ",\n"
    return (
        f'{{\n  "algorithm": {name(schedule.algorithm)},\n  "comms": {_array(comms, "  ")},\n'
        f'  "ctg": {name(schedule.ctg.name)},\n  "format": "repro-schedule",\n'
        f'  "n_pes": {_number(schedule.acg.n_pes)},\n{provenance}'
        f'  "runtime_seconds": {_number(schedule.runtime_seconds)},\n'
        f'  "tasks": {_array(tasks, "  ")},\n  "version": {FORMAT_VERSION}\n}}'
    )


def schedule_from_json(text: str, ctg: CTG, acg: ACG) -> Schedule:
    return schedule_from_dict(parse(text), ctg, acg)
