"""ABL-W — ablation of the Step-1 weight policy (ours, not in paper).

The paper's slack weights are ``W = VAR_e * VAR_r`` — tasks whose PE
choice matters most (for energy AND time) get the most slack.  This
ablation reruns EAS with degenerate policies (energy-variance only,
time-variance only, uniform) on category-II graphs and reports the
energy and miss differences, quantifying how much the combined weight
buys.
"""

from benchmarks.conftest import run_once
from repro.core.eas import EASConfig, eas_schedule
from repro.core.slack import WEIGHT_POLICIES
from repro.evalx.experiments import default_n_tasks
from repro.parallel.spec import paper_benchmark

N_GRAPHS = 4


def run_ablation():
    results = {name: {"energy": 0.0, "misses": 0} for name in WEIGHT_POLICIES}
    n_tasks = max(60, default_n_tasks() // 2)
    for index in range(N_GRAPHS):
        ctg, acg = paper_benchmark("random", category=2, index=index, n_tasks=n_tasks).build()
        for name, policy in WEIGHT_POLICIES.items():
            schedule = eas_schedule(ctg, acg, EASConfig(weight_policy=policy))
            results[name]["energy"] += schedule.total_energy()
            results[name]["misses"] += len(schedule.deadline_misses())
    return results


def test_weight_policy_ablation(benchmark, show):
    results = run_once(benchmark, run_ablation)
    base = results["var-product"]["energy"]
    lines = [f"weight-policy ablation over {N_GRAPHS} category-II graphs:"]
    for name, agg in results.items():
        delta = 100 * (agg["energy"] / base - 1)
        lines.append(
            f"  {name:>12}: total energy {agg['energy']:.4g} nJ "
            f"({delta:+.1f}% vs var-product), misses {agg['misses']}"
        )
    show("\n".join(lines))

    # Every policy must still produce schedulable results ...
    for agg in results.values():
        assert agg["energy"] > 0
    # ... and the paper's policy must be competitive with the best.
    best = min(agg["energy"] for agg in results.values())
    assert results["var-product"]["energy"] <= best * 1.15
