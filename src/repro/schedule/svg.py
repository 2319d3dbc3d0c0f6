"""Dependency-free SVG rendering of schedules and platforms.

Two views, matching the paper's Fig. 1:

* :func:`render_platform_svg` — the tile grid with PE types, the task
  mapping, and links shaded by traffic volume;
* :func:`render_schedule_svg` — a Gantt chart with one lane per PE and
  one per active link, tasks coloured by PE type and transactions in
  grey, with deadline markers.

Output is a plain SVG string; write it to a file and open it in any
browser.  No third-party dependency is used.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Tuple

from repro.schedule.schedule import Schedule

#: Fill colours per PE type (catalogue types; unknown types get grey).
TYPE_COLORS: Dict[str, str] = {
    "cpu": "#d95f02",
    "dsp": "#7570b3",
    "arm": "#1b9e77",
    "risc": "#e7298a",
    "mcu": "#66a61e",
}
_FALLBACK_COLOR = "#999999"
_COMM_COLOR = "#bbbbbb"
_DEADLINE_COLOR = "#cc0000"
#: Gantt geometry: document width and lane height in pixels, and the
#: number of (busiest) link lanes drawn under ``include_links``.
_GANTT_WIDTH = 960
_LANE_HEIGHT = 26
_MAX_LINK_LANES = 10
#: Platform view: edge length of one tile in pixels.
_TILE_SIZE = 110


def _color_for(pe_type: str) -> str:
    return TYPE_COLORS.get(pe_type, _FALLBACK_COLOR)


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def render_schedule_svg(schedule: Schedule, include_links: bool = True) -> str:
    """Gantt chart of the schedule as an SVG document string."""
    span = schedule.makespan()
    if span <= 0:
        span = 1.0
    margin_left = 130
    margin_top = 30
    scale = (_GANTT_WIDTH - margin_left - 20) / span

    lanes: List[Tuple[str, List[Tuple[float, float, str, str]]]] = []
    for pe in schedule.acg.pes:
        boxes = [
            (p.start, p.finish, _color_for(pe.type_name), p.task)
            for p in schedule.task_placements.values()
            if p.pe == pe.index
        ]
        lanes.append((f"PE{pe.index} {pe.type_name}", boxes))

    if include_links:
        usage = schedule.link_utilization()
        busiest = sorted(usage, key=lambda l: usage[l], reverse=True)[:_MAX_LINK_LANES]
        for link in busiest:
            boxes = [
                (c.start, c.finish, _COMM_COLOR, f"{c.src_task}->{c.dst_task}")
                for c in schedule.comm_placements.values()
                if link in c.links
            ]
            lanes.append((f"{link.src}->{link.dst}", boxes))

    height = margin_top + _LANE_HEIGHT * len(lanes) + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_GANTT_WIDTH}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<text x="{margin_left}" y="16" font-size="13">'
        f"{_esc(schedule.ctg.name)} [{_esc(schedule.algorithm)}] — "
        f"energy {schedule.total_energy():.4g} nJ, makespan {schedule.makespan():.4g}</text>",
    ]

    for row, (label, boxes) in enumerate(lanes):
        y = margin_top + row * _LANE_HEIGHT
        parts.append(
            f'<text x="4" y="{y + _LANE_HEIGHT - 9}" fill="#333">{_esc(label)}</text>'
        )
        parts.append(
            f'<line x1="{margin_left}" y1="{y + _LANE_HEIGHT - 3}" '
            f'x2="{_GANTT_WIDTH - 20}" y2="{y + _LANE_HEIGHT - 3}" stroke="#eee"/>'
        )
        for start, finish, color, label_text in boxes:
            x = margin_left + start * scale
            w = max(1.0, (finish - start) * scale)
            parts.append(
                f'<rect x="{x:.1f}" y="{y + 3}" width="{w:.1f}" '
                f'height="{_LANE_HEIGHT - 8}" fill="{color}" stroke="#444" '
                f'stroke-width="0.5"><title>{_esc(label_text)} '
                f"[{start:.1f}, {finish:.1f})</title></rect>"
            )

    # Deadline markers (vertical dashed lines).
    seen_deadlines = set()
    for name in schedule.ctg.deadline_tasks():
        deadline = schedule.ctg.task(name).deadline
        if deadline in seen_deadlines or deadline > span * 1.05:
            continue
        seen_deadlines.add(deadline)
        x = margin_left + deadline * scale
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_top}" x2="{x:.1f}" '
            f'y2="{height - 30}" stroke="{_DEADLINE_COLOR}" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{x + 2:.1f}" y="{height - 18}" fill="{_DEADLINE_COLOR}">'
            f"d={deadline:g}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts)


def render_platform_svg(schedule: Optional[Schedule] = None, acg=None) -> str:
    """Tile-grid view of a platform, optionally annotated with a mapping.

    Pass either a schedule (platform + mapping + traffic) or a bare ACG
    (platform only).
    """
    if schedule is not None:
        acg = schedule.acg
    if acg is None:
        raise ValueError("need a schedule or an acg")

    coords = [pe.position for pe in acg.pes]
    max_row = max(r for r, _c in coords)
    max_col = max(c for _r, c in coords)
    pad = 30
    width = pad * 2 + (max_col + 1) * _TILE_SIZE
    height = pad * 2 + (max_row + 1) * _TILE_SIZE

    def tile_origin(position) -> Tuple[float, float]:
        row, col = position
        # Row 0 at the bottom, matching the paper's Fig. 1 labels.
        return (
            pad + col * _TILE_SIZE,
            pad + (max_row - row) * _TILE_SIZE,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">'
    ]

    # Links shaded by traffic (if a schedule is given).
    usage = schedule.link_utilization() if schedule is not None else {}
    max_usage = max(usage.values(), default=1.0)
    for link in acg.all_links():
        x1, y1 = tile_origin(link.src)
        x2, y2 = tile_origin(link.dst)
        cx1, cy1 = x1 + _TILE_SIZE / 2, y1 + _TILE_SIZE / 2
        cx2, cy2 = x2 + _TILE_SIZE / 2, y2 + _TILE_SIZE / 2
        load = usage.get(link, 0.0) / max_usage if max_usage else 0.0
        stroke_width = 1.0 + 5.0 * load
        parts.append(
            f'<line x1="{cx1}" y1="{cy1}" x2="{cx2}" y2="{cy2}" '
            f'stroke="#888" stroke-width="{stroke_width:.1f}"/>'
        )

    mapping_count: Dict[int, List[str]] = {pe.index: [] for pe in acg.pes}
    if schedule is not None:
        for name, placement in sorted(schedule.task_placements.items()):
            mapping_count[placement.pe].append(name)

    for pe in acg.pes:
        x, y = tile_origin(pe.position)
        inner = _TILE_SIZE - 16
        parts.append(
            f'<rect x="{x + 8}" y="{y + 8}" width="{inner}" height="{inner}" '
            f'fill="{_color_for(pe.type_name)}" fill-opacity="0.25" '
            f'stroke="#333" rx="6"/>'
        )
        parts.append(
            f'<text x="{x + 14}" y="{y + 24}" font-weight="bold">'
            f"PE{pe.index} {_esc(pe.type_name)} {pe.position}</text>"
        )
        tasks = mapping_count[pe.index]
        for i, name in enumerate(tasks[:6]):
            parts.append(
                f'<text x="{x + 14}" y="{y + 38 + i * 12}">{_esc(name)}</text>'
            )
        if len(tasks) > 6:
            parts.append(
                f'<text x="{x + 14}" y="{y + 38 + 6 * 12}">'
                f"... +{len(tasks) - 6} more</text>"
            )

    parts.append("</svg>")
    return "\n".join(parts)
