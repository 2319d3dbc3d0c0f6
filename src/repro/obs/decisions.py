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
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, List, Optional

from repro.jsondoc import Fields, scalar

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
        return {f.name: scalar(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Candidate":
        record = Fields(data, "decision candidate")
        pe, hops = record.index("pe", label="PE index"), record.index("hops", None)
        numbers = [f.name for f in fields(cls) if f.name not in ("pe", "hops")]
        return cls(pe, hops=hops, **{key: record.number(key, None, nonfinite=True) for key in numbers})


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
            "regret": scalar(self.regret),
            "start": self.start,
            "finish": self.finish,
            "energy": self.energy,
            "bd": scalar(self.bd),
            "chosen": self.chosen.to_dict() if self.chosen is not None else None,
            "candidates": [c.to_dict() for c in self.candidates],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskDecision":
        record = Fields(data, "decision record")
        chosen = record.data.get("chosen")
        return cls(
            task=record.name("task"),
            pe=record.index("pe", label="PE index"),
            algorithm=record.name("algorithm", ""),
            rescue=record.flag("rescue", False),
            regret=record.number("regret", None, nonfinite=True),
            start=record.number("start", 0.0),
            finish=record.number("finish", 0.0),
            energy=record.number("energy", 0.0),
            bd=record.number("bd", None, nonfinite=True),
            chosen=Candidate.from_dict(chosen) if chosen is not None else None,
            candidates=[Candidate.from_dict(c) for c in record.array("candidates", [])],
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
