"""Communication Task Graph (CTG) substrate.

A CTG (paper, Definition 1) is a DAG whose vertices are computation tasks
annotated with per-PE execution time and energy arrays plus optional
deadlines, and whose arcs carry communication volumes.
"""

from repro.ctg.task import CommEdge, Task, TaskCosts
from repro.ctg.graph import CTG
from repro.ctg.analysis import (
    critical_path_length,
    effective_deadlines,
    longest_mean_path_into,
)
from repro.ctg.generator import GeneratorConfig, TaskTypeLibrary, generate_ctg, generate_category
from repro.ctg.multimedia import (
    CLIP_NAMES,
    av_decoder_ctg,
    av_encoder_ctg,
    av_integrated_ctg,
)
from repro.ctg.serialization import ctg_from_dict, ctg_from_json, ctg_to_dict, ctg_to_json

__all__ = [
    "CTG",
    "CLIP_NAMES",
    "CommEdge",
    "GeneratorConfig",
    "Task",
    "TaskCosts",
    "TaskTypeLibrary",
    "av_decoder_ctg",
    "av_encoder_ctg",
    "av_integrated_ctg",
    "critical_path_length",
    "ctg_from_dict",
    "ctg_from_json",
    "ctg_to_dict",
    "ctg_to_json",
    "effective_deadlines",
    "generate_category",
    "generate_ctg",
    "longest_mean_path_into",
]
