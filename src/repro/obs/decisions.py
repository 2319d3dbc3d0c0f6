"""Decision provenance: why each task landed on its PE.

Every time a scheduler commits a task it can record a
:class:`TaskDecision` — the chosen PE, the energy regret ``δE`` that
drove the choice, the losing candidate PEs with their finish/energy
numbers, and whether the placement was a performance rescue (Rule 3) or
a forced single-feasible-PE placement.  The log is attached to the
resulting :class:`~repro.schedule.schedule.Schedule` as ``provenance``
so a schedule can explain itself after the fact, and exported as JSONL
decision events by :mod:`repro.obs.export`.

Schema v2 attaches the full ``F(i,k)`` component breakdown the
level-based scheduler computes and previously threw away: per candidate
PE the data ready time (DRT, the Fig. 3 output), the earliest start on
the PE, the computation/communication energy split, the hop count of
the receiving transactions, and the slack the placement would leave
against the task's budgeted deadline.  The winning PE carries the same
breakdown in :attr:`TaskDecision.chosen`, so ``repro-noc explain`` can
answer "why PE k for task i" without re-deriving the math — and
:func:`repro.obs.explain.verify_decision_components` can recompute it
independently to prove the captured numbers right.

Recording is gated on :attr:`DecisionLog.enabled`; the default
instrumentation keeps it off so uninstrumented runs never build
candidate lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import SerializationError

#: bump when the decision record layout changes incompatibly.
#: v2: per-candidate F(i,k) component breakdown (start, drt, energy
#: split, hops, slack) plus the winner's breakdown in ``chosen``.
DECISION_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Candidate:
    """One candidate PE of a task decision, with its F(i,k) components.

    ``finish`` is the paper's ``F(i,k)``; the v2 component fields are
    ``None`` for schedulers (or older records) that never computed them.
    ``energy`` is the full ``E = E_comp + E_comm`` metric the Step-2
    regret compares; ``slack`` is ``BD - F(i,k)`` (negative = this PE
    would miss the budgeted deadline).
    """

    pe: int
    finish: Optional[float] = None
    energy: Optional[float] = None
    # -- schema v2 component breakdown --------------------------------------
    start: Optional[float] = None
    drt: Optional[float] = None
    compute_energy: Optional[float] = None
    comm_energy: Optional[float] = None
    hops: Optional[int] = None
    slack: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "pe": self.pe,
            "finish": _jsonable(self.finish),
            "energy": _jsonable(self.energy),
            "start": _jsonable(self.start),
            "drt": _jsonable(self.drt),
            "compute_energy": _jsonable(self.compute_energy),
            "comm_energy": _jsonable(self.comm_energy),
            "hops": self.hops,
            "slack": _jsonable(self.slack),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Candidate":
        require_object(data, "decision candidate")
        hops = data.get("hops")
        return cls(
            pe=int(data["pe"]),
            finish=_from_jsonable(data.get("finish")),
            energy=_from_jsonable(data.get("energy")),
            start=_from_jsonable(data.get("start")),
            drt=_from_jsonable(data.get("drt")),
            compute_energy=_from_jsonable(data.get("compute_energy")),
            comm_energy=_from_jsonable(data.get("comm_energy")),
            hops=int(hops) if hops is not None else None,
            slack=_from_jsonable(data.get("slack")),
        )


@dataclass
class TaskDecision:
    """The provenance of one task commit."""

    task: str
    pe: int
    algorithm: str
    #: Rule-3 performance rescue (deadline could not be met anywhere).
    rescue: bool = False
    #: energy regret δE = E2 - E1; ``inf`` marks a forced placement
    #: (single BD-feasible PE), ``None`` an algorithm without a regret
    #: notion (EDF).
    regret: Optional[float] = None
    start: float = 0.0
    finish: float = 0.0
    energy: float = 0.0
    candidates: List[Candidate] = field(default_factory=list)
    #: the budgeted deadline (Step-1 BD) the selection steered by;
    #: ``None`` for schedulers without budgets (EDF).
    bd: Optional[float] = None
    #: the winning PE's full F(i,k) component breakdown (schema v2);
    #: ``None`` when the scheduler recorded only the summary fields.
    chosen: Optional[Candidate] = None

    @property
    def forced(self) -> bool:
        return self.regret is not None and math.isinf(self.regret)

    def to_dict(self) -> Dict:
        return {
            "schema_version": DECISION_SCHEMA_VERSION,
            "task": self.task,
            "pe": self.pe,
            "algorithm": self.algorithm,
            "rescue": self.rescue,
            "regret": _jsonable(self.regret),
            "start": self.start,
            "finish": self.finish,
            "energy": self.energy,
            "bd": _jsonable(self.bd),
            "chosen": self.chosen.to_dict() if self.chosen is not None else None,
            "candidates": [c.to_dict() for c in self.candidates],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskDecision":
        require_object(data, "decision record")
        chosen = data.get("chosen")
        return cls(
            task=str(data["task"]),
            pe=int(data["pe"]),
            algorithm=str(data.get("algorithm", "")),
            rescue=bool(data.get("rescue", False)),
            regret=_from_jsonable(data.get("regret")),
            start=float(data.get("start", 0.0)),
            finish=float(data.get("finish", 0.0)),
            energy=float(data.get("energy", 0.0)),
            bd=_from_jsonable(data.get("bd")),
            chosen=Candidate.from_dict(chosen) if chosen is not None else None,
            candidates=[Candidate.from_dict(c) for c in data.get("candidates", [])],
        )

    def describe(self) -> str:
        """One human-readable line explaining the placement."""
        if self.rescue:
            reason = "performance rescue: fastest PE"
        elif self.forced:
            reason = "forced: only BD-feasible PE"
        elif self.regret is not None:
            reason = f"max regret δE={self.regret:.4g} nJ"
        else:  # EDF: the performance-greedy earliest finish
            reason = "greedy pick"
        losers = f", beat {len(self.candidates)} candidate(s)" if self.candidates else ""
        return (
            f"{self.task} -> PE{self.pe} [{self.algorithm}] "
            f"({reason}{losers}; start={self.start:.4g}, finish={self.finish:.4g})"
        )


class DecisionLog:
    """An append-only log of task decisions, gated by ``enabled``."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[TaskDecision] = []

    def record(self, decision: TaskDecision) -> None:
        if self.enabled:
            self.records.append(decision)

    def tasks(self) -> List[str]:
        """Task names in record order (duplicates preserved)."""
        return [d.task for d in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TaskDecision]:
        return iter(self.records)

    def clear(self) -> None:
        self.records.clear()


def _jsonable(value: Optional[float]):
    """Map non-finite floats to strings so json.dumps emits valid JSON."""
    if value is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return value


def require_object(value: Any, what: str) -> None:
    """Reject a deserialised record that is not a JSON object."""
    if not isinstance(value, dict):
        raise SerializationError(f"{what} must be a JSON object, got {type(value).__name__}")


def _from_jsonable(value: Any) -> Optional[float]:
    """Inverse of :func:`_jsonable` for deserialised decision records."""
    if value is None:
        return None
    if isinstance(value, str):
        return float(value)  # "inf" / "-inf" / "nan" parse directly
    return float(value)
