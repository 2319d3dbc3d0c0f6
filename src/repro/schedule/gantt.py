"""ASCII Gantt rendering of schedules (PE rows and link rows).

Purely diagnostic; used by examples and the CLI to show where tasks and
transactions landed, mirroring the paper's Fig. 1 schedule-table sketch.
"""

from __future__ import annotations

from typing import List

from repro.schedule.schedule import Schedule

#: Default rendering width in character cells.
DEFAULT_WIDTH = 72
#: Link rows shown under ``include_links``: the busiest ones.
MAX_LINK_ROWS = 12


def render_gantt(
    schedule: Schedule,
    width: int = DEFAULT_WIDTH,
    include_links: bool = False,
) -> str:
    """Render the schedule as an ASCII Gantt chart.

    Each PE gets a row; occupied cells show the first letter of the task
    occupying them.  With ``include_links`` the :data:`MAX_LINK_ROWS` busiest links get rows
    too, marked with ``#`` for occupied cells.
    """
    span = schedule.makespan()
    if span <= 0 or not schedule.task_placements:
        return "(empty schedule)"
    scale = width / span
    lines: List[str] = [
        f"Gantt of {schedule.ctg.name} [{schedule.algorithm}] "
        f"(0 .. {span:g} time units, {width} cells)"
    ]

    for pe in schedule.acg.pes:
        cells = [" "] * width
        for placement in schedule.task_placements.values():
            if placement.pe != pe.index:
                continue
            lo = min(width - 1, int(placement.start * scale))
            hi = min(width, max(lo + 1, int(placement.finish * scale)))
            label = placement.task[-1] if placement.task else "?"
            for i in range(lo, hi):
                cells[i] = label
        lines.append(f"PE{pe.index:>2} {pe.type_name:>5} |{''.join(cells)}|")

    if include_links:
        usage = schedule.link_utilization()
        busiest = sorted(usage, key=lambda l: usage[l], reverse=True)[:MAX_LINK_ROWS]
        for link in busiest:
            cells = [" "] * width
            for placement in schedule.comm_placements.values():
                if link not in placement.links:
                    continue
                lo = min(width - 1, int(placement.start * scale))
                hi = min(width, max(lo + 1, int(placement.finish * scale)))
                for i in range(lo, hi):
                    cells[i] = "#"
            lines.append(f"{str(link.src)}->{str(link.dst)} |{''.join(cells)}|")

    return "\n".join(lines)
