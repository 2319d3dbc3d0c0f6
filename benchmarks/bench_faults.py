"""FLT — fault-injection sweep: recovery wall time and survivability.

A committed EAS schedule is hit with a seeded Monte Carlo corpus of
fault plans (PE deaths, link cuts, transient link windows) and rerun
through degraded-mode recovery.  The bench times the whole
inject-and-recover campaign and reports what fraction of plans the
recovery schedule survives (no new deadline misses).
"""

from benchmarks.conftest import run_once
from repro.faults.sweep import run_fault_sweep
from repro.parallel.spec import BenchmarkSpec

N_PLANS = 12


def run_faults():
    benchmark = BenchmarkSpec(
        kind="random",
        acg_preset="mesh_4x4",
        category=1,
        index=0,
        n_tasks=40,
        base_seed=42,
    )
    report = run_fault_sweep(benchmark, n_plans=N_PLANS, seed=7, jobs=1)
    return {
        "plans": report.n_plans,
        "recovered": report.recovered,
        "survived": report.survived,
        "survived_fraction": round(report.survived_fraction, 4),
        "mean_energy_delta": round(report.mean_energy_delta(), 3),
        "by_kind": {
            kind: {"plans": plans, "survived": survived}
            for kind, (plans, survived) in report.by_kind().items()
        },
    }


def test_faults(benchmark, show):
    result = run_once(benchmark, run_faults)
    lines = [
        f"fault sweep over {result['plans']} seeded plans:",
        f"  recovered {result['recovered']}/{result['plans']}, "
        f"survived {result['survived']}/{result['plans']} "
        f"({100 * result['survived_fraction']:.0f}%), "
        f"mean energy delta {result['mean_energy_delta']:+.3g} nJ",
    ]
    for kind, row in result["by_kind"].items():
        lines.append(f"  {kind:>9}: {row['survived']}/{row['plans']} survived")
    show("\n".join(lines))
    # Every seeded plan recovers and keeps its deadlines.
    assert result["recovered"] == N_PLANS
    assert result["survived"] == N_PLANS
    assert result["by_kind"] == {kind: {"plans": 4, "survived": 4} for kind in ("pe", "link", "transient")}
