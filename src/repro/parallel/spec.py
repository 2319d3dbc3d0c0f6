"""The shared-nothing job protocol: :class:`RunSpec` in, :class:`RunResult` out.

A worker process never receives live scheduler state.  It receives a
*spec* — a picklable description of how to **construct** the run from
explicit seeds (generator category/index, ACG preset name + shuffle
seed, scheduler id) — builds the benchmark from those seeds, runs the
scheduler with its default configuration, and returns a
:class:`RunResult` of schedule summary numbers.  The grids run it as
``pool_map(execute_spec, specs, jobs=N)``: the pool's worker envelope
supplies the fresh observability bundle and ships its metrics, trace,
decisions and buffered ledger records home (see
:mod:`repro.parallel.pool`).

:func:`paper_benchmark` is the one place the paper's Sec. 6 setup is
written down: every caller that turns a benchmark name into a
``(CTG, ACG)`` pair goes through it.

Determinism contract: everything a spec influences must derive from the
spec's explicit seeds.  Nothing in this module reads global
``random`` state, the clock, or the parent's instrumentation — that is
what makes ``jobs=N`` output byte-identical to ``jobs=1``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.arch.presets import mesh_2x2, mesh_3x3, mesh_4x4, mesh_5x5, mesh_6x6
from repro.baselines.edf import edf_schedule
from repro.core.eas import eas_base_schedule, eas_schedule
from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG
from repro.ctg.multimedia import av_decoder_ctg, av_encoder_ctg, av_integrated_ctg
from repro.errors import InvalidArgumentError
from repro.obs.utilization import analyze_schedule
from repro.schedule.schedule import Schedule
from repro.schedule.serialization import schedule_to_dict

#: ACG presets addressable by name (names are what travels in a spec).
ACG_PRESETS = {
    "mesh_2x2": mesh_2x2,
    "mesh_3x3": mesh_3x3,
    "mesh_4x4": mesh_4x4,
    "mesh_5x5": mesh_5x5,
    "mesh_6x6": mesh_6x6,
}

#: MSB system -> (CTG builder, ACG preset name), mirrors the paper's setups.
MSB_SYSTEMS = {
    "encoder": (av_encoder_ctg, "mesh_2x2"),
    "decoder": (av_decoder_ctg, "mesh_2x2"),
    "integrated": (av_integrated_ctg, "mesh_3x3"),
}


def run_scheduler(name: str, ctg: CTG, acg: ACG) -> Schedule:
    """The canonical scheduler dispatch shared by evalx and the pool."""
    if name == "eas":
        return eas_schedule(ctg, acg)
    if name == "eas-base":
        return eas_base_schedule(ctg, acg)
    if name == "edf":
        return edf_schedule(ctg, acg)
    raise InvalidArgumentError(f"unknown scheduler {name!r}")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A picklable recipe for (CTG, ACG) — seeds, never live objects.

    ``kind="random"`` names a generated suite member (category, index,
    n_tasks, base_seed — exactly :func:`generate_category`'s arguments);
    ``kind="msb"`` names a multimedia system + clip.  The ACG comes from
    a preset name plus an explicit shuffle seed; with no preset an MSB
    takes its system's preset from :data:`MSB_SYSTEMS` and a random
    benchmark the 4x4 mesh.  ``deadline_scale`` multiplies every finite
    deadline of either kind (:meth:`CTG.with_scaled_deadlines`, which
    names the result ``<ctg>@x<factor>``); 1.0 leaves the CTG as built.
    """

    kind: str  # "random" | "msb"
    acg_preset: Optional[str] = None
    shuffle_seed: Optional[int] = None
    # random-suite fields
    category: int = 1
    index: int = 0
    n_tasks: int = 150
    base_seed: int = 42
    # msb fields
    system: str = "encoder"
    clip: str = "foreman"
    deadline_scale: float = 1.0

    def build(self) -> Tuple[CTG, ACG]:
        """Construct the benchmark from seeds (called inside the worker).

        The last spec built is remembered, so the schedulers of one grid
        row share a single build — schedulers never mutate their CTG or
        ACG, which is what makes sharing them safe.
        """
        global _last_build
        if _last_build is not None and _last_build[0] == self:
            return _last_build[1]
        preset_name = self.acg_preset
        if self.kind == "random":
            ctg = generate_category(
                self.category, self.index, n_tasks=self.n_tasks, base_seed=self.base_seed
            )
        elif self.kind == "msb":
            try:
                build_ctg, msb_preset = MSB_SYSTEMS[self.system]
            except KeyError:
                raise InvalidArgumentError(
                    f"unknown MSB system {self.system!r}; known: {sorted(MSB_SYSTEMS)}"
                ) from None
            ctg = build_ctg(self.clip)
            preset_name = preset_name or msb_preset
        else:
            raise InvalidArgumentError(f"unknown benchmark kind {self.kind!r}")
        if self.deadline_scale != 1.0:
            ctg = ctg.with_scaled_deadlines(self.deadline_scale)
        try:
            preset = ACG_PRESETS[preset_name or "mesh_4x4"]
        except KeyError:
            raise InvalidArgumentError(
                f"unknown ACG preset {preset_name!r}; known: {sorted(ACG_PRESETS)}"
            ) from None
        if self.shuffle_seed is not None:
            acg = preset(shuffle_seed=self.shuffle_seed)
        else:
            acg = preset()
        _last_build = (self, (ctg, acg))
        return ctg, acg


#: the most recent :meth:`BenchmarkSpec.build` — (spec, (ctg, acg)).
_last_build: Optional[Tuple[BenchmarkSpec, Tuple[CTG, ACG]]] = None


def paper_benchmark(
    system: str,
    clip: str = "foreman",
    category: int = 1,
    index: int = 0,
    n_tasks: int = 150,
    deadline_scale: float = 1.0,
) -> BenchmarkSpec:
    """The paper's Sec. 6 benchmark named by ``system``.

    ``"random"`` is member ``index`` of the generated category-I/II
    suite (:func:`generate_category`) on the 4x4 heterogeneous mesh
    shuffled with seed ``100 + index``; an :data:`MSB_SYSTEMS` name is
    that multimedia system's CTG for ``clip`` on its preset mesh.
    ``deadline_scale`` < 1 tightens every deadline by that factor (Fig. 7
    passes ``1/r`` for its performance ratio ``r``).
    """
    if system == "random":
        return BenchmarkSpec(
            kind="random",
            acg_preset="mesh_4x4",
            shuffle_seed=100 + index,
            category=category,
            index=index,
            n_tasks=n_tasks,
            deadline_scale=deadline_scale,
        )
    if system not in MSB_SYSTEMS:
        raise InvalidArgumentError(
            f"unknown system {system!r}; known: {['random', *sorted(MSB_SYSTEMS)]}"
        )
    return BenchmarkSpec(
        kind="msb",
        acg_preset=MSB_SYSTEMS[system][1],
        system=system,
        clip=clip,
        deadline_scale=deadline_scale,
    )


@dataclass(frozen=True)
class RunSpec:
    """One pooled job: schedule ``benchmark`` with ``scheduler``."""

    scheduler: str
    benchmark: BenchmarkSpec
    #: grid-cell identifier, for labels and error reports.
    tag: str = ""
    #: ship the full committed schedule back as a serialized document
    #: (set by ``repro-noc diff`` when both endpoints are computed
    #: in-process); costs one ``schedule_to_dict`` per cell.
    return_schedule: bool = False


@dataclass
class RunResult:
    """What a worker returns: the cell's summary numbers."""

    tag: str
    benchmark: str  # the built CTG's name
    scheduler: str
    energy: float
    misses: int
    #: scheduler-phase wall time measured *inside the worker* (the
    #: ``timed_phase`` stamp on ``Schedule.runtime_seconds``) — never the
    #: parent's dispatch time, so TXT-RT overhead numbers stay honest.
    runtime_seconds: float
    comp_energy: float
    comm_energy: float
    hops: float
    peakpe: float
    cwait: float
    #: the cell's counter values after validation, before utilization
    #: analytics — the source of the ``<scheduler>:evals/moves/hits``
    #: table columns.
    headline_counters: Dict[str, float] = field(default_factory=dict)
    #: serialized schedule document (``schedule_to_dict``) when the spec
    #: asked for it; the parent rebuilds with ``schedule_from_dict``
    #: against a locally-built CTG/ACG pair — the roundtrip is
    #: float-exact, so diffing pooled results equals diffing in-process.
    schedule_doc: Optional[Dict[str, Any]] = None


def execute_spec(spec: RunSpec) -> RunResult:
    """Build, schedule and summarize one spec (the grids' pooled function).

    Module-level so the pool pickles it by reference.  Under
    :func:`repro.parallel.pool.pool_map` it runs inside the worker
    envelope's fresh bundle, so the counters it reads are this cell's
    alone and its ledger ``cell`` record is buffered for the parent.
    """
    ins = obs.get()
    ctg, acg = spec.benchmark.build()
    schedule = run_scheduler(spec.scheduler, ctg, acg)
    schedule.validate_structure()
    headline_counters = ins.metrics.counter_values()
    report = analyze_schedule(schedule)
    report.register(ins.metrics, prefix=f"util.{spec.scheduler}.")
    if ins.ledger is not None:
        # One ``phase`` cell record per spec: the ledger reconstructs the
        # whole grid — which cell, its exact construction seeds, which
        # worker pid ran it — from the parent's file alone.
        ins.ledger.phase(
            "cell",
            tag=spec.tag,
            scheduler=spec.scheduler,
            benchmark=ctg.name,
            spec=asdict(spec.benchmark),
            pid=os.getpid(),
            runtime_seconds=schedule.runtime_seconds,
            energy=schedule.total_energy(),
            misses=len(schedule.deadline_misses()),
        )
    return RunResult(
        tag=spec.tag,
        benchmark=ctg.name,
        scheduler=spec.scheduler,
        energy=schedule.total_energy(),
        misses=len(schedule.deadline_misses()),
        runtime_seconds=schedule.runtime_seconds,
        comp_energy=schedule.computation_energy(),
        comm_energy=schedule.communication_energy(),
        hops=schedule.average_hops_per_packet(),
        peakpe=round(report.peak_pe_utilization, 3),
        cwait=round(report.total_contention_wait, 1),
        headline_counters=headline_counters,
        schedule_doc=schedule_to_dict(schedule) if spec.return_schedule else None,
    )
