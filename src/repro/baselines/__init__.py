"""Comparator schedulers.

:func:`edf_schedule` is the paper's baseline — a standard
earliest-deadline-first list scheduler that optimises performance and
ignores energy.  :func:`optimal_schedule` is the exhaustive optimum on
tiny graphs that the ``optimal`` subcommand compares both against.
"""

from repro.baselines.edf import edf_schedule
from repro.baselines.optimal import OptimalResult, optimal_schedule

__all__ = [
    "OptimalResult",
    "edf_schedule",
    "optimal_schedule",
]
