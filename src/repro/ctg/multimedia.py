"""Multimedia System Benchmarks (paper Sec. 6.2 substitute).

The paper profiles an MP3/H.263 audio/video encoder pair (24 tasks), an
A/V decoder pair (16 tasks) and an integrated system (40 tasks) on three
video clips (*akiyo*, *foreman*, *toybox*) by instrumenting C++ code.
We cannot re-run their instrumented codec, so these CTGs are built by
hand from the standard MP3 and H.263 pipeline structures, with costs at
the same order of magnitude as profiled QCIF codecs and with the clip
identity entering exactly the way profiling differences do: as a
**motion-activity factor** scaling the motion-dependent stages
(estimation/compensation/transform) and the residual bitstream volumes,
plus a small deterministic per-clip jitter on every stage.

Frame-rate deadlines match the paper's baseline: 40 frames/s encoding
(25 000 us period) and ~67 frames/s decoding (15 000 us period).  Task
counts match the paper exactly (24 / 16 / 40).

Units: time in microseconds, volumes in bits, energy in nJ.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.arch.pe import STANDARD_PE_TYPES
from repro.ctg.graph import CTG
from repro.ctg.task import CommEdge, Task, TaskCosts
from repro.errors import CTGError
from repro.rng import make_rng

#: The paper's three test clips with their motion-activity factors.
CLIP_MOTION: Dict[str, float] = {
    "akiyo": 0.75,   # head-and-shoulders, very low motion
    "foreman": 1.0,  # moderate motion, camera pan
    "toybox": 1.3,   # high-motion synthetic clip
}
CLIP_NAMES: Tuple[str, ...] = tuple(sorted(CLIP_MOTION))

#: Encoding at 40 frames/s (paper baseline) -> 25 ms period.
ENCODER_PERIOD_US = 25_000.0
#: Decoding at ~67 frames/s (paper baseline) -> ~15 ms period.
DECODER_PERIOD_US = 15_000.0

#: PE classes the cost tables cover (the mesh presets' type cycle).
_PE_CLASSES = ("cpu", "dsp", "arm", "risc")

#: Task-kind cost adjustments on top of the PE catalogue factors:
#: kind -> {pe class: (time multiplier, energy multiplier)}.
_KIND_FACTORS: Dict[str, Dict[str, Tuple[float, float]]] = {
    "generic": {},
    # Signal-processing kernels run disproportionately well on the DSP.
    "dsp-kernel": {"dsp": (0.45, 0.55)},
    # Control/bit-packing code favours the low-power cores.
    "control": {"arm": (0.75, 0.8)},
    "bitops": {"risc": (0.85, 0.9)},
}

# Stage tables: (name, base_time_us, kind, power_density, motion_scaled).
# ``power_density`` is nJ per us on the reference (risc) core; the PE
# catalogue's energy factors spread it across the platform.

_H263_ENCODER_STAGES = [
    ("vcap", 1800.0, "generic", 0.9, False),
    ("vpre", 1400.0, "dsp-kernel", 1.0, False),
    ("vme", 4800.0, "dsp-kernel", 1.4, True),
    ("vmc", 1800.0, "dsp-kernel", 1.2, True),
    ("vdct", 2000.0, "dsp-kernel", 1.3, True),
    ("vquant", 1200.0, "generic", 1.0, False),
    ("viq", 1000.0, "generic", 1.0, False),
    ("vidct", 1800.0, "dsp-kernel", 1.3, False),
    ("vrec", 1000.0, "generic", 0.9, False),
    ("vvlc", 1600.0, "bitops", 1.0, True),
    ("vrate", 600.0, "control", 0.8, False),
    ("vpack", 700.0, "control", 0.8, False),
    ("vsink", 400.0, "control", 0.7, False),
]

_H263_ENCODER_EDGES = [
    ("vcap", "vpre", 304_128.0, False),   # raw QCIF 4:2:0 frame
    ("vpre", "vme", 304_128.0, False),
    ("vpre", "vmc", 152_064.0, False),
    ("vme", "vmc", 24_000.0, True),       # motion vectors
    ("vmc", "vdct", 152_064.0, True),     # residual macroblocks
    ("vdct", "vquant", 152_064.0, False),
    ("vquant", "vvlc", 80_000.0, True),
    ("vquant", "viq", 80_000.0, False),
    ("viq", "vidct", 80_000.0, False),
    ("vidct", "vrec", 152_064.0, False),
    ("vmc", "vrec", 76_032.0, False),
    ("vquant", "vrate", 8_000.0, False),
    ("vrate", "vpack", 4_000.0, False),
    ("vvlc", "vpack", 64_000.0, True),    # coded bitstream
    ("vpack", "vsink", 64_000.0, True),
]

_MP3_ENCODER_STAGES = [
    ("apcm", 500.0, "generic", 0.7, False),
    ("aframe", 600.0, "generic", 0.8, False),
    ("asub_l", 1400.0, "dsp-kernel", 1.2, False),
    ("asub_r", 1400.0, "dsp-kernel", 1.2, False),
    ("amdct_l", 1300.0, "dsp-kernel", 1.2, False),
    ("amdct_r", 1300.0, "dsp-kernel", 1.2, False),
    ("apsy", 2400.0, "generic", 1.3, False),
    ("aquant", 2200.0, "generic", 1.1, False),
    ("ahuff", 1400.0, "bitops", 1.0, False),
    ("abitres", 500.0, "control", 0.8, False),
    ("apack", 600.0, "control", 0.8, False),
]

_MP3_ENCODER_EDGES = [
    ("apcm", "aframe", 36_864.0, False),   # 1152 samples x 16 bit x 2 ch
    ("aframe", "asub_l", 18_432.0, False),
    ("aframe", "asub_r", 18_432.0, False),
    ("aframe", "apsy", 36_864.0, False),
    ("asub_l", "amdct_l", 18_432.0, False),
    ("asub_r", "amdct_r", 18_432.0, False),
    ("amdct_l", "aquant", 18_432.0, False),
    ("amdct_r", "aquant", 18_432.0, False),
    ("apsy", "aquant", 6_000.0, False),
    ("aquant", "ahuff", 16_000.0, False),
    ("ahuff", "abitres", 8_000.0, False),
    ("abitres", "apack", 8_000.0, False),
]

_H263_DECODER_STAGES = [
    ("dparse", 600.0, "control", 0.8, False),
    ("dvld", 1800.0, "bitops", 1.0, True),
    ("diq", 1000.0, "generic", 1.0, False),
    ("didct", 1800.0, "dsp-kernel", 1.3, False),
    ("dmc", 1600.0, "dsp-kernel", 1.2, True),
    ("drec", 1000.0, "generic", 0.9, False),
    ("dfilt", 1400.0, "dsp-kernel", 1.1, False),
    ("dconv", 1600.0, "dsp-kernel", 1.1, False),
    ("ddisp", 800.0, "control", 0.7, False),
]

_H263_DECODER_EDGES = [
    ("dparse", "dvld", 64_000.0, True),    # coded bitstream
    ("dparse", "dmc", 8_000.0, False),
    ("dvld", "diq", 80_000.0, True),
    ("dvld", "dmc", 24_000.0, True),       # motion vectors
    ("diq", "didct", 80_000.0, False),
    ("didct", "drec", 152_064.0, False),
    ("dmc", "drec", 152_064.0, True),
    ("drec", "dfilt", 304_128.0, False),
    ("dfilt", "dconv", 304_128.0, False),
    ("dconv", "ddisp", 304_128.0, False),
]

_MP3_DECODER_STAGES = [
    ("msync", 400.0, "control", 0.7, False),
    ("mhuff", 1400.0, "bitops", 1.0, False),
    ("mreq", 1200.0, "generic", 1.0, False),
    ("mstereo", 800.0, "generic", 0.9, False),
    ("mimdct", 1600.0, "dsp-kernel", 1.2, False),
    ("msynth", 2000.0, "dsp-kernel", 1.3, False),
    ("mout", 500.0, "control", 0.7, False),
]

_MP3_DECODER_EDGES = [
    ("msync", "mhuff", 16_000.0, False),
    ("mhuff", "mreq", 18_432.0, False),
    ("mreq", "mstereo", 18_432.0, False),
    ("mstereo", "mimdct", 18_432.0, False),
    ("mimdct", "msynth", 18_432.0, False),
    ("msynth", "mout", 36_864.0, False),
]

#: Deadline placement: sinks that must meet the frame period.
_ENCODER_DEADLINES = {
    "vsink": ENCODER_PERIOD_US,
    "vrec": ENCODER_PERIOD_US,   # reference frame ready before next frame
    "apack": ENCODER_PERIOD_US,  # audio keeps up with the A/V mux rate
}
_DECODER_DEADLINES = {
    "ddisp": DECODER_PERIOD_US,
    "mout": DECODER_PERIOD_US,
}


def _make_costs(base_time: float, kind: str, power: float) -> Dict[str, TaskCosts]:
    """Expand a stage's base cost over the PE classes."""
    factors = _KIND_FACTORS[kind]
    costs: Dict[str, TaskCosts] = {}
    for pe_name in _PE_CLASSES:
        pe = STANDARD_PE_TYPES[pe_name]
        time_mult, energy_mult = factors.get(pe_name, (1.0, 1.0))
        costs[pe_name] = TaskCosts(
            time=base_time * pe.speed_factor * time_mult,
            energy=base_time * power * pe.energy_factor * energy_mult,
        )
    return costs


def _motion_factor(clip: str) -> float:
    try:
        return CLIP_MOTION[clip]
    except KeyError:
        raise CTGError(f"unknown clip {clip!r}; known: {CLIP_NAMES}") from None


def _build(
    name: str,
    clip: str,
    stages,
    edges,
    deadlines: Dict[str, float],
) -> CTG:
    """Assemble one benchmark CTG with clip-dependent profiling."""
    motion = _motion_factor(clip)
    jitter_rng = make_rng(f"{name}:{clip}")
    ctg = CTG(name=f"{name}-{clip}")
    for stage_name, base_time, kind, power, motion_scaled in stages:
        time = base_time * (motion if motion_scaled else 1.0)
        time *= jitter_rng.uniform(0.95, 1.05)  # per-clip profile variation
        ctg.add_task(
            Task(
                name=stage_name,
                costs=_make_costs(time, kind, power),
                deadline=deadlines.get(stage_name, math.inf),
                task_type=kind,
            )
        )
    for src, dst, volume, motion_scaled in edges:
        scaled = volume * (motion if motion_scaled else 1.0)
        ctg.add_edge(CommEdge(src=src, dst=dst, volume=scaled))
    return ctg


def av_encoder_ctg(clip: str = "foreman") -> CTG:
    """The 24-task MP3/H.263 A/V **encoder** benchmark (Table 1 system)."""
    return _build(
        "av-enc",
        clip,
        _H263_ENCODER_STAGES + _MP3_ENCODER_STAGES,
        _H263_ENCODER_EDGES + _MP3_ENCODER_EDGES,
        _ENCODER_DEADLINES,
    )


def av_decoder_ctg(clip: str = "foreman") -> CTG:
    """The 16-task MP3/H.263 A/V **decoder** benchmark (Table 2 system)."""
    return _build(
        "av-dec",
        clip,
        _H263_DECODER_STAGES + _MP3_DECODER_STAGES,
        _H263_DECODER_EDGES + _MP3_DECODER_EDGES,
        _DECODER_DEADLINES,
    )


def av_integrated_ctg(clip: str = "foreman") -> CTG:
    """The 40-task integrated encoder+decoder system (Table 3 / Fig. 7).

    The two pipelines are independent subgraphs sharing the platform —
    the contention between them is what makes the 3x3 mapping
    interesting.  Fig. 7 divides both frame periods by the same unified
    ratio through the benchmark recipe (:mod:`repro.parallel.spec`).
    """
    merged = av_encoder_ctg(clip).merged_with(av_decoder_ctg(clip))
    merged.name = f"av-integrated-{clip}"
    return merged
