"""Evaluation harness: one runner per paper table/figure plus reporting."""

from repro.evalx.analysis import (
    ScheduleComparison,
    compare_schedules,
)
from repro.evalx.experiments import (
    ExperimentRow,
    FigureSeries,
    run_fig5,
    run_fig6,
    run_fig7,
    run_msb_table,
    run_random_category,
    run_repair_runtime,
)
from repro.evalx.reporting import format_figure, format_table

__all__ = [
    "ExperimentRow",
    "FigureSeries",
    "ScheduleComparison",
    "compare_schedules",
    "format_figure",
    "format_table",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_msb_table",
    "run_random_category",
    "run_repair_runtime",
]
