"""JSON serialisation of CTGs.

A stable on-disk format so generated benchmarks can be archived and
re-loaded bit-identically.  Infinite deadlines serialise as ``null``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict

from repro.ctg.graph import CTG
from repro.ctg.task import CommEdge, Task, TaskCosts
from repro.jsondoc import document, parse

FORMAT_VERSION = 1


def ctg_to_dict(ctg: CTG) -> Dict[str, Any]:
    """Plain-dict representation of a CTG."""
    return {
        "format": "repro-ctg",
        "version": FORMAT_VERSION,
        "name": ctg.name,
        "tasks": [
            {
                "name": task.name,
                "deadline": task.deadline if math.isfinite(task.deadline) else None,
                "task_type": task.task_type,
                "costs": {
                    pe_type: {"time": c.time, "energy": c.energy}
                    for pe_type, c in task.costs.items()
                    if c.feasible
                },
            }
            for task in ctg.tasks()
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "volume": e.volume} for e in ctg.edges()
        ],
    }


def ctg_from_dict(data: Dict[str, Any]) -> CTG:
    """Inverse of :func:`ctg_to_dict`."""
    with document(data, "repro-ctg", (FORMAT_VERSION,)) as doc:
        ctg = CTG(name=doc.name("name"))
        for entry in doc.entries("tasks"):
            name, costs = entry.name("name"), entry.members("costs")
            ctg.add_task(
                Task(
                    name=name,
                    costs={pe_type: TaskCosts(c.number("time"), c.number("energy")) for pe_type, c in costs},
                    deadline=entry.number("deadline", math.inf),
                    task_type=entry.name("task_type", None),
                )
            )
        for entry in doc.entries("edges"):
            ctg.add_edge(CommEdge(entry.name("src"), entry.name("dst"), entry.number("volume")))
        return ctg


def ctg_to_json(ctg: CTG, indent: int = 2) -> str:
    return json.dumps(ctg_to_dict(ctg), indent=indent, sort_keys=True)


def ctg_from_json(text: str) -> CTG:
    return ctg_from_dict(parse(text))
