"""repro — Energy-Aware Communication and Task Scheduling for NoCs.

A full reproduction of Hu & Marculescu, *"Energy-Aware Communication and
Task Scheduling for Network-on-Chip Architectures under Real-Time
Constraints"* (DATE 2004): the EAS algorithm (slack budgeting,
level-based energy-aware scheduling with contention-aware communication
scheduling, and search-and-repair), the EDF baseline, the heterogeneous
tile-based NoC platform model, TGFF-style random benchmarks and the
multimedia system benchmarks, plus the full evaluation harness.

Quickstart::

    from repro import av_encoder_ctg, mesh_2x2, eas_schedule, edf_schedule

    ctg = av_encoder_ctg("foreman")
    acg = mesh_2x2()
    eas = eas_schedule(ctg, acg)
    edf = edf_schedule(ctg, acg)
    print(eas.total_energy(), edf.total_energy())
"""

from repro.arch import (
    ACG,
    BitEnergyModel,
    HoneycombTopology,
    Mesh2D,
    Torus2D,
    XYRouting,
    YXRouting,
    get_routing,
    hetero_mesh,
    mesh_2x2,
    mesh_3x3,
    mesh_4x4,
)
from repro.baselines import edf_schedule
from repro.core import (
    EASConfig,
    RepairConfig,
    compute_budgets,
    eas_base_schedule,
    eas_schedule,
    rebuild_schedule,
    search_and_repair,
)
from repro.ctg import (
    CLIP_NAMES,
    CTG,
    CommEdge,
    GeneratorConfig,
    Task,
    TaskCosts,
    av_decoder_ctg,
    av_encoder_ctg,
    av_integrated_ctg,
    ctg_from_json,
    ctg_to_json,
    generate_category,
    generate_ctg,
)
from repro import obs
from repro.schedule import Schedule, render_gantt
from repro.sim import SimulationReport, simulate_schedule

__version__ = "1.0.0"

__all__ = [
    "ACG",
    "BitEnergyModel",
    "CLIP_NAMES",
    "CTG",
    "CommEdge",
    "EASConfig",
    "GeneratorConfig",
    "HoneycombTopology",
    "Mesh2D",
    "RepairConfig",
    "Schedule",
    "SimulationReport",
    "Task",
    "TaskCosts",
    "Torus2D",
    "XYRouting",
    "YXRouting",
    "__version__",
    "av_decoder_ctg",
    "av_encoder_ctg",
    "av_integrated_ctg",
    "compute_budgets",
    "ctg_from_json",
    "ctg_to_json",
    "eas_base_schedule",
    "eas_schedule",
    "edf_schedule",
    "generate_category",
    "generate_ctg",
    "get_routing",
    "hetero_mesh",
    "mesh_2x2",
    "mesh_3x3",
    "mesh_4x4",
    "obs",
    "rebuild_schedule",
    "render_gantt",
    "search_and_repair",
    "simulate_schedule",
]
