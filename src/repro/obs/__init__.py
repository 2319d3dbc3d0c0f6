"""repro.obs — zero-dependency instrumentation for the EAS pipeline.

Three primitives, bundled into one :class:`Instrumentation` and
activated per run:

* :class:`Tracer` — nested ``span()`` context managers recording wall
  time, monotonic start and attributes, plus point ``event()``s; the
  default :data:`NULL_TRACER` makes uninstrumented calls ~free.
* :class:`MetricsRegistry` — named counters / gauges with
  snapshot, in-place reset, and associative merge for cross-run
  aggregation.  The default bundle keeps metrics live (they are cheap).
* :class:`DecisionLog` — structured provenance of every task commit
  (chosen PE, regret δE, losing candidates, rescue flag), attachable to
  a schedule and exported as JSONL via :mod:`repro.obs.export`.

Typical use::

    from repro import obs

    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        schedule = eas_schedule(ctg, acg)
    obs.export.write_trace("run.jsonl", ins)
    print(obs.export.format_profile(ins))
"""

from repro.obs import (
    benchstore,
    diff,
    explain,
    export,
    heartbeat,
    ledger,
    report,
    timeline,
    utilization,
)
from repro.obs.benchstore import BenchRun, BenchStore, RegressionCheck
from repro.obs.context import (
    Instrumentation,
    PhaseTiming,
    activate,
    get,
    timed_phase,
)
from repro.obs.decisions import Candidate, DecisionLog, TaskDecision
from repro.obs.diff import ScheduleDiff, diff_schedules, format_diff
from repro.obs.explain import ExplainReport, critical_path, explain_schedule, format_explain
from repro.obs.heartbeat import Heartbeat
from repro.obs.ledger import RUN_LEDGER_SCHEMA_VERSION, RunLedger, prune_ledger, read_ledger
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.report import build_report, format_report
from repro.obs.timeline import chrome_trace
from repro.obs.tracer import NULL_TRACER, Event, NullTracer, Span, Tracer
from repro.obs.utilization import UtilizationReport, analyze_schedule

__all__ = [
    "BenchRun",
    "BenchStore",
    "Candidate",
    "Counter",
    "DecisionLog",
    "Event",
    "ExplainReport",
    "Gauge",
    "Heartbeat",
    "Instrumentation",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PhaseTiming",
    "RUN_LEDGER_SCHEMA_VERSION",
    "RegressionCheck",
    "RunLedger",
    "ScheduleDiff",
    "Span",
    "TaskDecision",
    "Tracer",
    "UtilizationReport",
    "activate",
    "analyze_schedule",
    "benchstore",
    "build_report",
    "chrome_trace",
    "critical_path",
    "diff",
    "diff_schedules",
    "explain",
    "explain_schedule",
    "export",
    "format_diff",
    "format_explain",
    "format_report",
    "get",
    "heartbeat",
    "ledger",
    "prune_ledger",
    "read_ledger",
    "report",
    "timed_phase",
    "timeline",
    "utilization",
]
