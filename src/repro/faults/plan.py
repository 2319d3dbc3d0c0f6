"""The seeded, JSON-serializable fault model.

A :class:`FaultPlan` is a small immutable document describing *what
breaks and when* on a committed platform:

* :class:`PEFault` — a tile's PE **and its router** die permanently at
  ``time`` (a dead router forwards nothing, so every route through the
  tile is lost too — the conservative reading used throughout);
* :class:`LinkFault` — the physical channel between two adjacent tiles
  is cut permanently at ``time``, in **both** directions;
* :class:`TransientFault` — the channel between two adjacent tiles drops
  every flit during ``[start, end)``, in both directions, then recovers.

Plans are value objects: generation is separate (and seeded, see
:func:`generate_fault_plans`), consumption lives in
:mod:`repro.faults.degraded` / :mod:`repro.faults.recovery`, and the
JSON form (``FAULT_PLAN_SCHEMA_VERSION``) is what fault sweeps ship to
worker processes and what ``repro-noc faults inject --plan`` reads back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.acg import ACG
from repro.arch.topology import Coord, Link
from repro.errors import InvalidArgumentError, SerializationError
from repro.jsondoc import Fields, document, parse
from repro.rng import make_rng

#: Version of the JSON fault-plan document.  Bump on any change to the
#: field set or semantics; readers reject unknown versions.
FAULT_PLAN_SCHEMA_VERSION = 1

#: Kind tags, also the CLI vocabulary of ``--kind`` / plan generation.
FAULT_KINDS = ("pe", "link", "transient")

_TIME = "a finite non-negative number"  # every fault time and transient bound


@dataclass(frozen=True)
class PEFault:
    """Permanent death of PE (and router) ``pe`` at ``time``."""

    pe: int
    time: float


@dataclass(frozen=True)
class LinkFault:
    """Permanent bidirectional cut of the ``src``/``dst`` channel at ``time``."""

    src: Coord
    dst: Coord
    time: float


@dataclass(frozen=True)
class TransientFault:
    """Bidirectional channel outage on ``src``/``dst`` during ``[start, end)``."""

    src: Coord
    dst: Coord
    start: float
    end: float


@dataclass(frozen=True)
class FaultPlan:
    """One named, reproducible fault scenario."""

    name: str
    seed: Optional[int] = None
    pe_faults: Tuple[PEFault, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()
    transient_faults: Tuple[TransientFault, ...] = ()

    def __post_init__(self) -> None:
        for fault in self.pe_faults:
            self._check_time("PE fault time", fault.time)
        for fault in self.link_faults:
            self._check_time("link fault time", fault.time)
        for fault in self.transient_faults:
            self._check_time("transient start", fault.start)
            self._check_time("transient end", fault.end)
            if fault.end <= fault.start:
                raise SerializationError(
                    f"plan {self.name!r}: transient window [{fault.start}, {fault.end}) is empty"
                )

    def _check_time(self, what: str, time: float) -> None:
        if not (math.isfinite(time) and time >= 0):
            raise SerializationError(f"plan {self.name!r}: {what} must be {_TIME}, got {time!r}")

    # -- queries ---------------------------------------------------------------

    @property
    def fault_time(self) -> float:
        """Earliest moment anything breaks (transients count from window start).

        Raises on an empty plan — recovery from nothing is undefined.
        """
        times = (
            [f.time for f in self.pe_faults]
            + [f.time for f in self.link_faults]
            + [f.start for f in self.transient_faults]
        )
        if not times:
            raise SerializationError(f"plan {self.name!r} has no fault events")
        return min(times)

    @property
    def kind(self) -> str:
        """Dominant kind tag (the single kind for generator-made plans)."""
        if self.pe_faults:
            return "pe"
        if self.link_faults:
            return "link"
        return "transient"

    def dead_pes(self) -> Tuple[int, ...]:
        return tuple(sorted({f.pe for f in self.pe_faults}))

    def cut_channels(self) -> Tuple[Tuple[Coord, Coord], ...]:
        """Cut channels as sorted-endpoint pairs (direction-free)."""
        return tuple(sorted({tuple(sorted((f.src, f.dst))) for f in self.link_faults}))

    def transient_windows(self) -> Dict[Link, Tuple[Tuple[float, float], ...]]:
        """Per *directed* link, the sorted outage windows (both directions)."""
        windows: Dict[Link, List[Tuple[float, float]]] = {}
        for fault in self.transient_faults:
            for link in (Link(fault.src, fault.dst), Link(fault.dst, fault.src)):
                windows.setdefault(link, []).append((fault.start, fault.end))
        return {link: tuple(sorted(wins)) for link, wins in windows.items()}

    def describe(self) -> str:
        parts = []
        for f in self.pe_faults:
            parts.append(f"PE {f.pe} dies @ {f.time:g}")
        for f in self.link_faults:
            parts.append(f"link {f.src}<->{f.dst} cut @ {f.time:g}")
        for f in self.transient_faults:
            parts.append(f"link {f.src}<->{f.dst} down [{f.start:g}, {f.end:g})")
        return f"{self.name}: " + "; ".join(parts)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "format": "repro-fault-plan",
            "version": FAULT_PLAN_SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "pe_faults": [{"pe": f.pe, "time": f.time} for f in self.pe_faults],
            "link_faults": [
                {"src": list(f.src), "dst": list(f.dst), "time": f.time}
                for f in self.link_faults
            ],
            "transient_faults": [
                {"src": list(f.src), "dst": list(f.dst), "start": f.start, "end": f.end}
                for f in self.transient_faults
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        with document(data, "repro-fault-plan", (FAULT_PLAN_SCHEMA_VERSION,)) as root:
            name = root.name("name")
            doc = Fields(data, f"plan {name!r}")  # names the plan in every field error
            return cls(
                name=name,
                seed=doc.integer("seed", None),
                pe_faults=tuple(
                    PEFault(f.index("pe", label="PE index"), _time(f, "time", "PE fault time"))
                    for f in doc.entries("pe_faults", [])
                ),
                link_faults=tuple(
                    LinkFault(f.coord("src"), f.coord("dst"), _time(f, "time", "link fault time"))
                    for f in doc.entries("link_faults", [])
                ),
                transient_faults=tuple(
                    TransientFault(
                        src=f.coord("src"),
                        dst=f.coord("dst"),
                        start=_time(f, "start", "transient start"),
                        end=_time(f, "end", "transient end"),
                    )
                    for f in doc.entries("transient_faults", [])
                ),
            )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(parse(text))


def _time(fields: Fields, key: str, what: str) -> float:
    return fields.number(key, label=what, expect=_TIME)


def _physical_channels(acg: ACG) -> List[Tuple[Coord, Coord]]:
    """The undirected channels of the platform, sorted for determinism."""
    return sorted({tuple(sorted((link.src, link.dst))) for link in acg.all_links()})


def generate_fault_plans(
    acg: ACG,
    n_plans: int,
    seed: int,
    horizon: float,
    kinds: Sequence[str] = FAULT_KINDS,
) -> List[FaultPlan]:
    """Seeded Monte Carlo corpus of single-event fault plans.

    Kinds rotate round-robin through ``kinds`` so a corpus of ``3k``
    plans covers every kind exactly ``k`` times.  Fault times are drawn
    uniformly from the middle 90% of ``[0, horizon]`` (the committed
    schedule's makespan, so every plan strikes mid-execution);
    transient windows last 5-20% of the horizon.  One ``random.Random``
    seeded with ``seed`` drives all draws in plan order, so the corpus
    is a pure function of ``(platform, n_plans, seed, horizon, kinds)``.
    """
    if n_plans < 0:
        raise InvalidArgumentError(f"n_plans must be >= 0, got {n_plans}")
    if horizon <= 0:
        raise InvalidArgumentError(f"horizon must be positive, got {horizon}")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise InvalidArgumentError(f"unknown fault kind {kind!r}; known: {list(FAULT_KINDS)}")
    if not kinds:
        raise InvalidArgumentError("need at least one fault kind")

    rng = make_rng(seed)
    channels = _physical_channels(acg)
    plans: List[FaultPlan] = []
    for index in range(n_plans):
        kind = kinds[index % len(kinds)]
        time = rng.uniform(0.05, 0.95) * horizon
        name = f"plan-{index:03d}-{kind}"
        if kind == "pe":
            pe = rng.randrange(acg.n_pes)
            plans.append(
                FaultPlan(name=name, seed=seed, pe_faults=(PEFault(pe=pe, time=time),))
            )
        elif kind == "link":
            src, dst = channels[rng.randrange(len(channels))]
            plans.append(
                FaultPlan(
                    name=name,
                    seed=seed,
                    link_faults=(LinkFault(src=src, dst=dst, time=time),),
                )
            )
        else:
            src, dst = channels[rng.randrange(len(channels))]
            width = rng.uniform(0.05, 0.20) * horizon
            plans.append(
                FaultPlan(
                    name=name,
                    seed=seed,
                    transient_faults=(
                        TransientFault(src=src, dst=dst, start=time, end=time + width),
                    ),
                )
            )
    return plans
