"""ABL-C — ablation of contention-aware communication scheduling.

The paper's introduction: most prior work "just assumes a fixed delay
proportional to the communication volume, without taking into
consideration subtle effects like the communication congestion ...
considering communication effects is critical for NoC architectures."

This bench quantifies that claim: EAS is run with the fixed-delay
(contention-blind) model, its mapping is then re-timed under the real
link-contention model, and the *optimistic gap* — how much later tasks
actually finish than the blind scheduler predicted — is reported,
together with the deadline misses the blind schedule would silently
incur.
"""

from benchmarks.conftest import run_once
from repro.core.eas import EASConfig, eas_base_schedule
from repro.core.rebuild import rebuild_schedule
from repro.evalx.experiments import default_n_tasks
from repro.parallel.spec import paper_benchmark

N_GRAPHS = 4


def run_ablation():
    rows = []
    n_tasks = max(60, default_n_tasks() // 2)
    for index in range(N_GRAPHS):
        ctg, acg = paper_benchmark("random", category=2, index=index, n_tasks=n_tasks).build()

        blind = eas_base_schedule(ctg, acg, EASConfig(contention_aware=False, repair=False))
        actual = rebuild_schedule(ctg, acg, blind.mapping(), blind.pe_order())
        aware = eas_base_schedule(ctg, acg)

        rows.append(
            {
                "benchmark": ctg.name,
                "predicted_makespan": blind.makespan(),
                "actual_makespan": actual.makespan(),
                "blind_misses": len(actual.deadline_misses()),
                "aware_misses": len(aware.deadline_misses()),
                "aware_makespan": aware.makespan(),
            }
        )
    return rows


def test_contention_ablation(benchmark, show):
    rows = run_once(benchmark, run_ablation)
    lines = ["fixed-delay (blind) vs contention-aware scheduling:"]
    for row in rows:
        gap = 100 * (row["actual_makespan"] / row["predicted_makespan"] - 1)
        lines.append(
            f"  {row['benchmark']:>8}: blind prediction {row['predicted_makespan']:.4g}, "
            f"real timing {row['actual_makespan']:.4g} ({gap:+.1f}%), "
            f"misses blind={row['blind_misses']} aware={row['aware_misses']}"
        )
    show("\n".join(lines))

    for row in rows:
        # The fixed-delay model never over-predicts: reality is >= plan.
        assert row["actual_makespan"] >= row["predicted_makespan"] - 1e-6
    # Across the suite the blind schedules must be no better on misses
    # than contention-aware ones (the paper's criticality claim).
    assert sum(r["blind_misses"] for r in rows) >= sum(
        r["aware_misses"] for r in rows
    )
