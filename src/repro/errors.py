"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class CTGError(ReproError):
    """A communication task graph is malformed (cycle, bad costs, ...)."""


class ArchitectureError(ReproError):
    """A platform description is malformed or inconsistent."""


class RoutingError(ArchitectureError):
    """No route exists between two tiles under the selected routing."""


class UnroutableError(RoutingError):
    """A fault partition leaves no surviving route between two tiles.

    Raised by a degraded platform's route queries when every path between
    a live pair of tiles crosses a dead router or a cut link — the clean
    signal the recovery engine turns into an *unsurvivable* verdict
    instead of a traceback.
    """


class SchedulingError(ReproError):
    """The scheduler could not produce a feasible schedule."""


class InfeasibleTaskError(CTGError, SchedulingError):
    """A task cannot execute on any PE of the selected platform.

    Deliberately both a :class:`CTGError` (the task/platform pairing is
    inconsistent) and a :class:`SchedulingError` (no scheduler can place
    the task), so the CLI's clean one-line scheduling-failure path
    handles it instead of dumping a traceback.
    """


class InfeasibleOrderError(SchedulingError):
    """A (mapping, per-PE order) pair has a cross-PE ordering deadlock."""


class ScheduleValidationError(ReproError):
    """A produced schedule violates a structural invariant."""


class SerializationError(ReproError):
    """A CTG, schedule or fault-plan file could not be read or parsed,
    or an output file could not be written.

    The CLI raises it for an unreadable input path (missing, a
    directory, no permission) as well as for malformed content, so both
    end as the same one-line exit.
    """


class InvalidArgumentError(ReproError, ValueError):
    """A caller-supplied value names nothing the library can act on.

    An unknown scheduler, benchmark system, ACG preset or fault kind, a
    malformed ``diff`` endpoint spec, or two schedules of different
    benchmarks handed to one diff.
    Also a :class:`ValueError`, the way :class:`InfeasibleTaskError`
    has two bases, so callers that catch the builtin keep working.
    """


class UnknownTaskError(ReproError, KeyError):
    """A task name the schedule does not place (also a :class:`KeyError`)."""

    # KeyError renders its argument with repr(); keep the plain message.
    __str__ = Exception.__str__


class ObservabilityError(ReproError):
    """A telemetry subsystem (ledger, report, trace) hit a hard error."""


class LedgerError(ObservabilityError):
    """The run ledger could not be opened, written, or parsed."""
