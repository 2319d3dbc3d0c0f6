"""Tests for the process-pool execution engine (specs, pool, merging)."""

import os
import pickle

import pytest

from repro import obs
from repro.obs.ledger import RunLedger, read_ledger
from repro.parallel.pool import JOBS_ENV_VAR, _Envelope, pool_map, resolve_jobs
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

    def test_msb_without_preset_uses_its_system_mesh(self):
        ctg, acg = BenchmarkSpec(kind="msb", system="integrated", clip="foreman").build()
        assert len(acg.pes) == 9
        assert ctg.n_tasks == 40

    def test_paper_benchmark_recipe(self):
        random_spec = paper_benchmark("random", category=2, index=3, n_tasks=25)
        assert (random_spec.acg_preset, random_spec.shuffle_seed) == ("mesh_4x4", 103)
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

    def test_fresh_bundle_does_not_touch_parent_metrics(self):
        ins = obs.Instrumentation.disabled()
        ins.metrics.counter("eas.evaluations").inc(10**6)
        spec = RunSpec(
            scheduler="eas", benchmark=BenchmarkSpec(kind="random", index=0, n_tasks=15)
        )
        with obs.activate(ins):
            (result,) = pool_map(execute_spec, [spec], jobs=1)
        # The cell counted in its own registry; the parent gained it by merge.
        evaluations = result.headline_counters["eas.evaluations"]
        assert 0 < evaluations < 10**6
        assert ins.metrics.counter("eas.evaluations").value == 10**6 + evaluations

    def test_envelope_ships_trace_and_decisions_iff_recording(self):
        spec = RunSpec(
            scheduler="eas", benchmark=BenchmarkSpec(kind="random", index=0, n_tasks=15)
        )
        recorded = _Envelope(execute_spec, record=True, run_id=None)(spec)
        names = {payload["name"] for payload in recorded.trace["spans"]}
        assert "eas" in names
        assert len(recorded.decisions) > 0
        assert recorded.ledger_records == []
        unrecorded = _Envelope(execute_spec, record=False, run_id=None)(spec)
        assert unrecorded.trace is None
        assert unrecorded.decisions == []
        assert unrecorded.wall_seconds >= unrecorded.result.runtime_seconds > 0

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            execute_spec(
                RunSpec(scheduler="sa", benchmark=BenchmarkSpec(kind="random", n_tasks=5))
            )


def _square(value: int) -> int:
    return value * value


def _boom(value: int) -> int:
    raise RuntimeError(f"boom {value}")


def _worker_view(item: int):
    """What a pooled item sees of its envelope bundle."""
    ins = obs.get()
    ledger = ins.ledger
    if ledger is not None:
        ledger.phase("cell", tag=f"item{item}")
    return ins.recording, None if ledger is None else (ledger.path, ledger.run_id)


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
            results = pool_map(execute_spec, self._specs(), jobs=2)
        assert [r.tag for r in results] == ["cell0", "cell1"]
        counters = ins.metrics.counter_values()
        # Worker-side scheduler counters made it home via merge.
        assert counters["edf.evaluations"] > 0
        assert counters["jobs.dispatched"] == 2

    def test_recording_parent_absorbs_worker_spans(self):
        ins = obs.Instrumentation.enabled()
        with obs.activate(ins):
            pool_map(execute_spec, self._specs(2), jobs=2)
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
            views = pool_map(_worker_view, [0, 1], jobs=2)
        assert views == [(False, None), (False, None)]


class TestWorkerEnvelope:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_workers_buffer_under_the_parent_run_id(self, tmp_path, jobs):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ins = obs.Instrumentation.enabled()
        ins.ledger = ledger
        with obs.activate(ins):
            views = pool_map(_worker_view, [0, 1, 2], jobs=jobs)
        # Workers record iff the parent records and never open the file:
        # their ledger is buffered under the parent's run id.
        assert views == [(True, (None, ledger.run_id))] * 3
        records = [r for r in read_ledger(ledger.path) if r["type"] == "phase"]
        assert [r["tag"] for r in records] == ["item0", "item1", "item2"]
        assert {r["run_id"] for r in records} == {ledger.run_id}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_wall_sample_per_item(self, heartbeat_walls, jobs):
        assert pool_map(_square, [1, 2, 3], jobs=jobs) == [1, 4, 9]
        assert len(heartbeat_walls) == 3
        assert all(wall is not None and wall >= 0 for wall in heartbeat_walls)
