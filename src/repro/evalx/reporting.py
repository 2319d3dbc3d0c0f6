"""Paper-style text rendering of experiment results.

The formatters print the same rows/series the paper's tables and figures
report: energies per scheduler, savings percentages, and per-ratio
series for the trade-off figure.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.evalx.experiments import ExperimentRow, FigureSeries


def format_table(
    rows: Sequence[ExperimentRow],
    title: str,
    better: str = "eas",
    worse: str = "edf",
    extra_columns: Sequence[str] = (),
) -> str:
    """Render rows the way the paper's Tables 1-3 do.

    Columns: benchmark, one energy column per scheduler, the paper's
    "Energy Savings (%)" column comparing ``better`` against ``worse``,
    deadline misses when any, any requested ``extras`` keys, plus one
    column per observability metric key the rows carry (the per-cell
    headline counters of each grid run, e.g. ``eas:evals``).
    """
    if not rows:
        return f"{title}\n  (no rows)"
    schedulers = list(rows[0].energies)
    headers = ["benchmark"] + [f"{s} (nJ)" for s in schedulers]
    has_savings = better in rows[0].energies and worse in rows[0].energies
    if has_savings:
        headers.append("savings (%)")
    any_misses = any(any(row.misses.values()) for row in rows)
    if any_misses:
        headers.append("misses")
    headers.extend(extra_columns)
    metric_columns = sorted({key for row in rows for key in row.metrics})
    headers.extend(metric_columns)

    table: List[List[str]] = [headers]
    for row in rows:
        cells = [row.benchmark]
        cells.extend(f"{row.energies[s]:.4g}" for s in schedulers)
        if has_savings:
            cells.append(f"{row.savings_pct(better, worse):.1f}")
        if any_misses:
            cells.append(
                ",".join(f"{s}:{n}" for s, n in row.misses.items() if n) or "-"
            )
        for column in extra_columns:
            value = row.extras.get(column, float("nan"))
            cells.append(f"{value:.4g}")
        for column in metric_columns:
            cells.append(f"{row.metrics.get(column, 0.0):g}")
        table.append(cells)

    if has_savings:
        mean_savings = sum(r.savings_pct(better, worse) for r in rows) / len(rows)
        footer = f"mean savings of {better} vs {worse}: {mean_savings:.1f}%"
    else:
        footer = ""
    return title + "\n" + _align(table) + ("\n" + footer if footer else "")


def format_figure(figure: FigureSeries, title: str) -> str:
    """Render a figure's series as an aligned numeric table.

    NaN points (deadline-infeasible) print as ``miss``.
    """
    headers = [figure.x_label] + list(figure.series)
    table: List[List[str]] = [headers]
    for i, x in enumerate(figure.x_values):
        cells = [f"{x:g}"]
        for name in figure.series:
            y = figure.series[name][i]
            cells.append("miss" if math.isnan(y) else f"{y:.4g}")
        table.append(cells)
    return title + "\n" + _align(table)


def _align(table: List[List[str]]) -> str:
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
