"""One renderer for every report view: text, markdown and JSON.

``report``, ``explain``, ``diff``, ``inspect`` and ``faults sweep`` each
build their output once, as a :class:`View`: a title, a list of
:class:`Section` s (a heading, plain lines, and at most one table of
string cells) and the JSON document the view already has.
:func:`render` lays a view out in each format, so every format prints
the same facts:

* ``text`` — sections one blank line apart; a heading prints as
  ``== heading ==`` with its lines indented under it, and the table is
  aligned by :func:`align`, the layout of the paper's tables.  The title
  is not printed: a terminal already shows the command that asked.
* ``markdown`` — ``# title``, each heading as ``## Heading``, the lines
  as a bullet list and the table as a pipe table.
* ``json`` — the document, strict (no NaN) with one-space indents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple


@dataclass
class Section:
    """One headed block; ``table`` is a header row then data rows.

    A table without data rows prints as the ``empty`` line instead, and a
    section left with nothing to print is left out.
    """

    heading: str = ""
    lines: List[str] = field(default_factory=list)
    table: List[List[str]] = field(default_factory=list)
    empty: str = ""


@dataclass
class View:
    title: str
    sections: List[Section]
    document: Any = None


def cell(value: Optional[Any], spec: str = "{}") -> str:
    """``value`` formatted by ``spec``, or ``-`` when there is none."""
    return "-" if value is None else spec.format(value)


def render(view: View, fmt: str) -> str:
    """``view`` as ``text``, ``markdown`` or ``json``, newline-terminated."""
    if fmt == "json":
        return json.dumps(view.document, indent=1, allow_nan=False, default=str) + "\n"
    if fmt == "markdown":
        return _markdown(view)
    if fmt == "text":
        return _text(view)
    raise ValueError(f"unknown report format {fmt!r}")


def align(table: List[List[str]]) -> str:
    """Right-justified columns under a dashed rule, each row indented two spaces."""
    widths = [
        max(len(row[col]) for row in table) for col in range(len(table[0]))
    ]
    lines = []
    for idx, row in enumerate(table):
        line = "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        lines.append("  " + line)
        if idx == 0:
            lines.append("  " + "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _printable(view: View) -> Iterator[Tuple[str, List[str], List[List[str]]]]:
    """``(heading, lines, table)`` of every section with something to print."""
    for section in view.sections:
        if len(section.table) > 1:
            yield section.heading, section.lines, section.table
        elif section.lines or section.empty:
            yield section.heading, section.lines + ([section.empty] if section.empty else []), []


def _text(view: View) -> str:
    blocks = []
    for heading, lines, table in _printable(view):
        block = [f"== {heading} =="] if heading else []
        indent = "  " if heading else ""
        block.extend(indent + line for line in lines)
        if table:
            block.append(align(table))
        blocks.append("\n".join(block))
    return "\n\n".join(blocks) + "\n"


def _markdown(view: View) -> str:
    out = [f"# {view.title}"]
    for heading, lines, table in _printable(view):
        if heading:
            out += ["", f"## {heading[:1].upper()}{heading[1:]}"]
        if lines:
            out.append("")
            out.extend(f"- {line}" for line in lines)
        if table:
            header, *rows = table
            out += ["", _pipe_row(header), "|" + "---|" * len(header)]
            out.extend(_pipe_row(row) for row in rows)
    return "\n".join(out) + "\n"


def _pipe_row(cells: List[str]) -> str:
    return "| " + " | ".join(text.replace("|", "\\|") for text in cells) + " |"
