"""SCALING — evaluation-engine cost beyond paper scale.

The paper's Step 2 recomputes every F(i,k) each RTL iteration; the
incremental evaluation cache (see ``src/repro/core/eas.py``) makes that
cost proportional to what a commit actually dirties.  This bench runs
Steps 1-2 of EAS cached vs naive (``repro.core.reference``'s
``NaiveLevelScheduler``) on generated CTGs of ~50/100/200 tasks mapped
onto growing meshes (4x4 -> 6x6), checks the two paths agree exactly,
and records the speedup trajectory — Fig. 3 evaluation counts, wall
times (best of interleaved warm pairs, ``conftest.warm_ab``), ratios —
into ``BENCH_scaling.json`` via the benchstore.

``test_scaling_smoke`` is the CI gate: the smallest size only, one cold
pass per side, run with ``--bench-check`` so a >10 % median wall-time
regression fails the build.
"""

from typing import Any, Dict

from repro import obs
from repro.arch.presets import mesh_4x4, mesh_5x5, mesh_6x6
from repro.core.eas import EASConfig, LevelBasedScheduler, run_eas
from repro.core.reference import NaiveLevelScheduler
from repro.ctg.generator import generate_category

from benchmarks.conftest import run_once, warm_ab

#: (label, task count, platform builder) per scaling point.
SIZES = [
    ("50", 50, mesh_4x4),
    ("100", 100, mesh_5x5),
    ("200", 200, mesh_6x6),
]

#: Steps 1-2 only (the scaling presets meet every deadline anyway).
STEPS_1_2 = EASConfig(repair=False)

#: acceptance floor at the 200-task point: the cache must cut full
#: Fig. 3 evaluations by at least this factor.
MIN_EVAL_RATIO_AT_200 = 3.0


def _run_variant(ctg, acg, level_class):
    """One Step-1 + Step-2 run; returns (schedule, evaluations)."""
    ins = obs.Instrumentation.disabled()
    with obs.activate(ins):
        schedule, _report = run_eas(ctg, acg, STEPS_1_2, algorithm="eas", level_class=level_class)
    return schedule, ins.metrics.counter("eas.evaluations").value


def _scaling_point(label: str, n_tasks: int, mesh, pairs: int = 5) -> Dict[str, Any]:
    ctg = generate_category(1, 0, n_tasks=n_tasks)
    acg = mesh(shuffle_seed=100)
    ab = warm_ab(
        lambda: _run_variant(ctg, acg, NaiveLevelScheduler),
        lambda: _run_variant(ctg, acg, LevelBasedScheduler),
        pairs=pairs,
    )
    (naive, naive_evals), (cached, cached_evals) = ab.result_a, ab.result_b
    # The cache must be invisible in the output before its speed counts.
    assert cached.task_placements == naive.task_placements
    assert cached.comm_placements == naive.comm_placements
    return {
        "tasks": n_tasks,
        "pes": len(acg.pes),
        "evals_naive": naive_evals,
        "evals_cached": cached_evals,
        "eval_ratio": round(naive_evals / cached_evals, 2),
        "wall_naive_s": round(ab.best_a, 4),
        "wall_cached_s": round(ab.best_b, 4),
        "speedup": round(ab.speedup, 2),
        "energy_nJ": cached.total_energy(),
        "misses": len(cached.deadline_misses()),
    }


def _describe(points: Dict[str, Dict[str, Any]]) -> str:
    lines = ["SCALING: incremental F(i,k) cache vs naive recompute"]
    for label, p in points.items():
        lines.append(
            f"  {p['tasks']:>4} tasks / {p['pes']:>2} PEs: "
            f"evals {p['evals_naive']:.0f} -> {p['evals_cached']:.0f} "
            f"(x{p['eval_ratio']:.2f}), wall {p['wall_naive_s'] * 1e3:.0f} -> "
            f"{p['wall_cached_s'] * 1e3:.0f} ms (x{p['speedup']:.2f})"
        )
    return "\n".join(lines)


def test_scaling(benchmark, show):
    """Full trajectory: 50/100/200 tasks on 4x4/5x5/6x6 meshes."""

    def experiment():
        points = {label: _scaling_point(label, n, mesh) for label, n, mesh in SIZES}
        show(_describe(points))
        flat: Dict[str, Any] = {f"{label}.{k}": v for label, p in points.items() for k, v in p.items()}
        flat["energy_nJ"] = points["200"]["energy_nJ"]
        flat["misses"] = points["200"]["misses"]
        # Acceptance: the 200-task point must show the engine working.
        assert points["200"]["eval_ratio"] >= MIN_EVAL_RATIO_AT_200
        assert points["200"]["wall_cached_s"] < points["200"]["wall_naive_s"]
        return flat

    run_once(benchmark, experiment)


def test_scaling_smoke(benchmark, show):
    """CI smoke: smallest size only, gated with ``--bench-check``."""

    def experiment():
        label, n_tasks, mesh = SIZES[0]
        # One cold pass per side: the wall --bench-check gates.
        point = _scaling_point(label, n_tasks, mesh, pairs=0)
        show(_describe({label: point}))
        assert point["eval_ratio"] > 1.0
        return point

    run_once(benchmark, experiment)
