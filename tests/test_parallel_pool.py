"""Tests for the process-pool execution engine (specs, pool, merging)."""

import os
import pickle

import pytest

from repro import obs
from repro.core.eas import EASConfig
from repro.parallel.pool import JOBS_ENV_VAR, parallel_map, pool_map, resolve_jobs
from repro.parallel.spec import (
    ACG_PRESETS,
    MSB_SYSTEMS,
    BenchmarkSpec,
    RunSpec,
    execute_spec,
    paper_benchmark,
    run_scheduler,
)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(0) == 5

    def test_negative_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)
        monkeypatch.setenv(JOBS_ENV_VAR, "-1")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "lots")
        assert resolve_jobs(None) == 1
        monkeypatch.setenv(JOBS_ENV_VAR, "0")
        assert resolve_jobs(None) == 1


class TestBenchmarkSpec:
    def test_random_build_matches_direct_generation(self):
        from repro.arch.presets import mesh_4x4
        from repro.ctg.generator import generate_category

        spec = BenchmarkSpec(
            kind="random", category=1, index=2, n_tasks=25, shuffle_seed=102
        )
        ctg, acg = spec.build()
        direct = generate_category(1, 2, n_tasks=25)
        assert ctg.name == direct.name
        assert sorted(t.name for t in ctg.tasks()) == sorted(t.name for t in direct.tasks())
        assert [pe.type_name for pe in acg.pes] == [
            pe.type_name for pe in mesh_4x4(shuffle_seed=102).pes
        ]

    def test_msb_build(self):
        spec = BenchmarkSpec(kind="msb", system="encoder", clip="akiyo", acg_preset="mesh_2x2")
        ctg, acg = spec.build()
        assert len(acg.pes) == 4
        assert spec.row_name == "akiyo"

    def test_msb_without_preset_uses_its_system_mesh(self):
        ctg, acg = BenchmarkSpec(kind="msb", system="integrated", clip="foreman").build()
        assert len(acg.pes) == 9
        assert ctg.n_tasks == 40

    def test_paper_benchmark_recipe(self):
        random_spec = paper_benchmark("random", category=2, index=3, n_tasks=25)
        assert (random_spec.acg_preset, random_spec.shuffle_seed) == ("mesh_4x4", 103)
        assert random_spec.row_name == "cat2-3"
        for system, n_pes in (("encoder", 4), ("decoder", 4), ("integrated", 9)):
            spec = paper_benchmark(system, clip="akiyo")
            assert spec.acg_preset == MSB_SYSTEMS[system][1]
            assert len(spec.build()[1].pes) == n_pes
        with pytest.raises(ValueError, match="unknown system"):
            paper_benchmark("transcoder")

    def test_build_is_shared_by_equal_specs(self):
        spec = paper_benchmark("random", index=1, n_tasks=15)
        first = spec.build()
        again = paper_benchmark("random", index=1, n_tasks=15).build()
        assert again[0] is first[0] and again[1] is first[1]
        other = paper_benchmark("random", index=2, n_tasks=15).build()
        assert other[0] is not first[0]

    def test_unknown_kind_and_preset(self):
        with pytest.raises(ValueError, match="unknown benchmark kind"):
            BenchmarkSpec(kind="nope").build()
        with pytest.raises(ValueError, match="unknown ACG preset"):
            BenchmarkSpec(kind="random", acg_preset="torus_9x9").build()
        with pytest.raises(ValueError, match="unknown MSB system"):
            BenchmarkSpec(kind="msb", system="transcoder").build()

    def test_spec_is_picklable(self):
        spec = RunSpec(
            scheduler="eas",
            benchmark=BenchmarkSpec(kind="random", index=1, n_tasks=20),
            eas_config=EASConfig(repair=False),
            tag="cell",
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_every_preset_is_buildable(self):
        for name in ACG_PRESETS:
            spec = BenchmarkSpec(kind="random", n_tasks=5, acg_preset=name, shuffle_seed=1)
            _ctg, acg = spec.build()
            assert len(acg.pes) >= 4


class TestExecuteSpec:
    def test_matches_direct_run(self):
        spec = RunSpec(
            scheduler="eas", benchmark=BenchmarkSpec(kind="random", index=0, n_tasks=20)
        )
        result = execute_spec(spec)
        ctg, acg = spec.benchmark.build()
        schedule = run_scheduler("eas", ctg, acg)
        assert result.energy == schedule.total_energy()
        assert result.misses == len(schedule.deadline_misses())
        assert result.comp_energy == schedule.computation_energy()
        assert result.benchmark == ctg.name
        assert result.runtime_seconds > 0
        assert result.wall_seconds >= result.runtime_seconds

    def test_fresh_bundle_does_not_touch_parent_metrics(self):
        ins = obs.Instrumentation.disabled()
        with obs.activate(ins):
            execute_spec(
                RunSpec(
                    scheduler="eas",
                    benchmark=BenchmarkSpec(kind="random", index=0, n_tasks=15),
                )
            )
            assert ins.metrics.counter_values() == {}

    def test_record_flag_ships_trace_and_decisions(self):
        spec = RunSpec(
            scheduler="eas",
            benchmark=BenchmarkSpec(kind="random", index=0, n_tasks=15),
            record=True,
        )
        result = execute_spec(spec)
        assert result.trace is not None
        names = {payload["name"] for payload in result.trace["spans"]}
        assert "eas" in names
        assert len(result.decisions) > 0
        unrecorded = execute_spec(
            RunSpec(scheduler="eas", benchmark=spec.benchmark, record=False)
        )
        assert unrecorded.trace is None
        assert unrecorded.decisions == []

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            execute_spec(
                RunSpec(scheduler="sa", benchmark=BenchmarkSpec(kind="random", n_tasks=5))
            )


def _square(value: int) -> int:
    return value * value


def _boom(value: int) -> int:
    raise RuntimeError(f"boom {value}")


class TestPoolMap:
    def test_order_preserved(self):
        items = list(range(12))
        assert pool_map(_square, items, jobs=4) == [v * v for v in items]

    def test_serial_path(self):
        assert pool_map(_square, [3, 4], jobs=1) == [9, 16]
        assert pool_map(_square, [], jobs=4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            pool_map(_boom, [1, 2], jobs=2)
        with pytest.raises(RuntimeError, match="boom"):
            pool_map(_boom, [1, 2], jobs=1)

    def test_jobs_metrics_recorded(self):
        ins = obs.Instrumentation.enabled()
        with obs.activate(ins):
            pool_map(_square, [1, 2, 3], jobs=2)
        counters = ins.metrics.counter_values()
        assert counters["jobs.dispatched"] == 3
        assert ins.metrics.gauge("jobs.workers").value == 2
        assert any(span.name == "parallel_map" for span in ins.tracer.spans)


class TestParallelMapTelemetry:
    def _specs(self, count=2):
        return [
            RunSpec(
                scheduler="edf",
                benchmark=BenchmarkSpec(kind="random", index=i, n_tasks=15),
                tag=f"cell{i}",
            )
            for i in range(count)
        ]

    def test_metrics_merged_into_parent(self):
        ins = obs.Instrumentation.disabled()
        with obs.activate(ins):
            results = parallel_map(self._specs(), jobs=2)
        assert [r.tag for r in results] == ["cell0", "cell1"]
        counters = ins.metrics.counter_values()
        # Worker-side scheduler counters made it home via merge.
        assert counters["edf.evaluations"] > 0
        assert counters["jobs.dispatched"] == 2

    def test_recording_parent_absorbs_worker_spans(self):
        ins = obs.Instrumentation.enabled()
        with obs.activate(ins):
            parallel_map(self._specs(2), jobs=2)
        names = [span.name for span in ins.tracer.spans]
        assert names.count("edf") == 2
        assert "parallel_map" in names
        # Worker top-level spans re-parent under the dispatch span.
        worker_spans = [s for s in ins.tracer.spans if s.name == "edf"]
        assert all(s.parent == "parallel_map" for s in worker_spans)
        assert len(ins.decisions) > 0

    def test_non_recording_parent_ships_no_trace(self):
        ins = obs.Instrumentation.disabled()
        with obs.activate(ins):
            results = parallel_map(self._specs(1), jobs=2)
        assert results[0].trace is None
