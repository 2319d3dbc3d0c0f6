"""Tests for the Monte Carlo fault sweep and its pooled determinism."""

import json

import pytest

from repro import obs
from repro.faults.sweep import (
    FaultRunSpec,
    FaultSweepReport,
    execute_fault_spec,
    run_fault_sweep,
    sweep_view,
)
from repro.obs.ledger import RunLedger, read_ledger
from repro.parallel.spec import BenchmarkSpec
from repro.render import render


@pytest.fixture(scope="module")
def small_benchmark():
    return BenchmarkSpec(
        kind="random",
        acg_preset="mesh_3x3",
        category=1,
        index=0,
        n_tasks=20,
        base_seed=42,
    )


class TestSweep:
    def test_twenty_plan_corpus_jobs_equivalence(self, small_benchmark):
        """Acceptance: >= 20 plans, byte-identical at --jobs 1 and 2."""
        serial = run_fault_sweep(small_benchmark, n_plans=20, seed=3, jobs=1)
        pooled = run_fault_sweep(small_benchmark, n_plans=20, seed=3, jobs=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            pooled.to_dict(), sort_keys=True
        )
        kinds = {row.kind for row in serial.rows}
        assert kinds == {"pe", "link", "transient"}

    def test_report_aggregates(self, small_benchmark):
        report = run_fault_sweep(small_benchmark, n_plans=6, seed=1, jobs=1)
        assert report.n_plans == 6
        assert 0 <= report.survived <= report.recovered <= 6
        assert report.survived_fraction == pytest.approx(report.survived / 6)
        by_kind = report.by_kind()
        assert sum(plans for plans, _ in by_kind.values()) == 6
        doc = report.to_dict()
        assert doc["format"] == "repro-fault-sweep"
        assert len(doc["plans"]) == 6
        # Deterministic document: no wall times or pids leak in.
        assert "wall_seconds" not in json.dumps(doc)

    def test_format_text_has_verdicts(self, small_benchmark):
        report = run_fault_sweep(small_benchmark, n_plans=3, seed=1, jobs=1)
        text = render(sweep_view(report), "text")
        assert "fault sweep" in text
        assert "plan-000" in text

    def test_counters_accumulate(self, small_benchmark):
        bundle = obs.Instrumentation.enabled()
        with obs.activate(bundle):
            run_fault_sweep(small_benchmark, n_plans=3, seed=1, jobs=1)
        counters = bundle.metrics.counter_values()
        assert counters.get("faults.plans") == 3
        assert counters.get("faults.recovered", 0) <= 3

    def test_seed_changes_corpus(self, small_benchmark):
        a = run_fault_sweep(small_benchmark, n_plans=4, seed=1, jobs=1)
        b = run_fault_sweep(small_benchmark, n_plans=4, seed=2, jobs=1)
        assert [r.plan_name for r in a.rows] == [r.plan_name for r in b.rows]
        assert json.dumps(a.to_dict()) != json.dumps(b.to_dict())


class TestWorkerProtocol:
    def test_spec_is_picklable_and_self_contained(self, small_benchmark):
        import pickle

        from repro.core.eas import eas_schedule
        from repro.faults.plan import generate_fault_plans
        from repro.schedule.serialization import schedule_to_dict

        ctg, acg = small_benchmark.build()
        committed = eas_schedule(ctg, acg)
        plan = generate_fault_plans(
            acg, 1, seed=0, horizon=committed.makespan()
        )[0]
        spec = FaultRunSpec(
            benchmark=small_benchmark,
            plan_doc=plan.to_dict(),
            schedule_doc=schedule_to_dict(committed),
        )
        clone = pickle.loads(pickle.dumps(spec))
        result = execute_fault_spec(clone)
        assert result.plan_name == plan.name
        assert result.recovered

    def test_unsurvivable_is_a_result_not_a_crash(self):
        # 1x2 row: task b is dsp-only; kill the dsp at t=0.
        from repro.arch.acg import ACG  # noqa: F401 (doc: platform below)

        bench = BenchmarkSpec(
            kind="random",
            acg_preset="mesh_2x2",
            category=1,
            index=0,
            n_tasks=12,
            base_seed=42,
        )
        from repro.core.eas import eas_schedule
        from repro.faults.plan import FaultPlan, PEFault
        from repro.schedule.serialization import schedule_to_dict

        ctg, acg = bench.build()
        committed = eas_schedule(ctg, acg)
        # Killing every PE but one is not expressible as one plan; force
        # unsurvivability by killing a PE before anything ran and then
        # checking the row only if the platform truly cannot host a task.
        plan = FaultPlan(name="pe0", pe_faults=(PEFault(pe=0, time=0.0),))
        spec = FaultRunSpec(
            benchmark=bench,
            plan_doc=plan.to_dict(),
            schedule_doc=schedule_to_dict(committed),
        )
        result = execute_fault_spec(spec)
        # Either outcome is legal; what matters is no exception escaped
        # and the row is well-formed.
        assert result.plan_name == "pe0"
        assert isinstance(result.recovered, bool)
        if not result.recovered:
            assert result.reason


class TestEnvelope:
    """The pool's worker envelope treats a sweep like any other grid."""

    def _sweep(self, benchmark, bundle, jobs):
        with obs.activate(bundle):
            return run_fault_sweep(benchmark, n_plans=3, seed=1, jobs=jobs)

    def test_worker_spans_identical_across_jobs(self, small_benchmark):
        names = []
        for jobs in (1, 2):
            bundle = obs.Instrumentation.enabled()
            self._sweep(small_benchmark, bundle, jobs)
            names.append(
                [s.name for s in bundle.tracer.spans if s.name != "faults.sweep.pool"]
            )
        assert names[0] == names[1]
        assert names[0].count("faults.recover") == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_wall_sample_per_plan(self, small_benchmark, heartbeat_walls, jobs):
        run_fault_sweep(small_benchmark, n_plans=3, seed=1, jobs=jobs)
        assert len(heartbeat_walls) == 3
        assert all(wall is not None and wall >= 0 for wall in heartbeat_walls)

    def test_ledger_and_counters_identical_across_jobs(self, small_benchmark, tmp_path):
        """Workers buffer; the parent appends one record per plan, in plan order."""
        records, counters = [], []
        for jobs in (1, 2):
            bundle = obs.Instrumentation.disabled()
            bundle.ledger = RunLedger(tmp_path / f"ledger-{jobs}.jsonl")
            report = self._sweep(small_benchmark, bundle, jobs)
            phases = read_ledger(bundle.ledger.path)
            assert {r["run_id"] for r in phases} == {bundle.ledger.run_id}
            records.append(
                [{k: v for k, v in r.items() if k not in ("t", "pid", "run_id")} for r in phases]
            )
            counters.append(
                {
                    k: v
                    for k, v in bundle.metrics.counter_values().items()
                    if not k.startswith("jobs.")
                }
            )
        assert [r["name"] for r in records[0]] == ["fault_plan"] * 3
        assert [r["plan"] for r in records[0]] == [row.plan_name for row in report.rows]
        assert records[0] == records[1]
        assert counters[0] == counters[1]


class TestReportShape:
    def test_empty_report(self):
        report = FaultSweepReport(
            benchmark="x",
            scheduler="eas",
            seed=0,
            n_plans=0,
            committed_misses=0,
            committed_energy=0.0,
            committed_makespan=0.0,
        )
        assert report.survived_fraction == 0.0
        assert report.mean_energy_delta() == 0.0
        assert report.to_dict()["plans"] == []
