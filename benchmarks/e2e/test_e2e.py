"""Tests of the end-to-end benchmark: ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import trace, workloads
from benchmarks.e2e.__main__ import main as suite_main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV = dict(os.environ, REPRO_LEDGER="off", REPRO_BENCH_DIR="off")


def _run(workload: str, trace_flag: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), "--workload", workload]
    cmd += ["--seed", "0", "--seconds", "0", "--trace", str(trace_flag), "--quick"]
    return subprocess.run(cmd, cwd=root, env=ENV, capture_output=True, text=True, timeout=300)


def _parse(proc: subprocess.CompletedProcess):
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line[len("detail "):] for line in lines if line.startswith("detail ")))
    return json.loads(lines[-1]), detail


@pytest.fixture(scope="module")
def quick():
    """Per workload: two untraced ``--quick`` runs and one traced run."""
    runs = {}
    for workload in WORKLOADS:
        procs = [_run(workload, 0), _run(workload, 0), _run(workload, 1)]
        for proc in procs:
            assert proc.returncode == 0, proc.stderr
        runs[workload] = [_parse(proc) for proc in procs]
    return runs


def test_quick_runs_emit_every_declared_metric_with_its_unit(quick):
    for workload, runs in quick.items():
        for (result, _detail), declared in zip(runs, ("end_to_end", "end_to_end", "per_layer")):
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[declared]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, workload
        assert all(v["value"] > 0 for v in runs[0][0]["metrics"].values()), workload


def test_quick_runs_repeat_deterministic_metrics_and_digests(quick):
    for workload, ((first, first_detail), (second, second_detail), (_, traced_detail)) in quick.items():
        assert first_detail["digest"] == second_detail["digest"] == traced_detail["digest"], workload
        for name in ("energy_per_task_nJ", "deadlines_met_frac"):
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


def test_traced_pass_sees_each_layer_where_it_runs(quick):
    layers = {
        workload: {k: v["value"] for k, v in runs[2][0]["metrics"].items()}
        for workload, runs in quick.items()
    }
    eas, repair = layers["eas-cat1-6x6"], layers["repair-cat2-5x5"]
    assert eas["increbuild.evaluate.calls"] == 0 and eas["repair.rounds"] == 0
    assert repair["eas.evaluations"] == 0 and repair["slack.budgets.calls"] == 0
    assert repair["repair.calls"] == 1 and repair["increbuild.evaluate.calls"] > 0
    assert layers["faults-5x5"]["faults.recover.calls"] == 1
    assert layers["msb-paper"]["serial.dump.calls"] == 1 and layers["msb-paper"]["serial.bytes"] > 0
    for workload, values in layers.items():
        assert values["overlay.path_probe.calls"] > 0, workload
        # A declared time must never read exactly 0: layers that skip some
        # workload are declared by calls and share only.
        assert all(values[m["name"]] > 0 for m in SPEC["per_layer"] if m["unit"] == "s"), workload
        # Calibration samples taken inside an op are no layer's time.
        shares = [value for name, value in values.items() if name.endswith(".share")]
        assert min(shares) >= 0 and abs(sum(shares) - 1) < 0.02, workload


def test_tracer_restores_every_binding_and_leaves_schedules_unchanged():
    items = workloads.WORKLOADS["msb-paper"](0)[:3]
    plain = [item.check(item.op(), {}).digest for item in items]
    before = trace.bindings()
    with trace.LayerTracer() as tracer:
        assert trace.bindings() != before
        traced = []
        for item in items:
            tracer.begin()
            result = item.op()
            values = tracer.end()
            traced.append(item.check(result, {}).digest)
            assert values["serial.dump.calls"] == 1 and values["comm.lct.calls"] > 0
    after = trace.bindings()
    assert {key: after.get(key) for key in before} == before
    assert traced == plain


def test_compare_exits_1_only_outside_the_bounds(tmp_path):
    def document(scale: float = 1.0, digest: str = "d") -> dict:
        values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        values["tasks_per_s"] = 100.0 * scale
        result = {"correct": True, "attempted": 1, "failed": 0, "digest": digest, "end_to_end": values}
        return {"seed": 0, "workloads": {w: result for w in WORKLOADS}}

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "tasks_per_s")
    cases = [
        (document(), 0),
        (document(1 - bound / 2), 0),  # slower, within the bound
        (document(1 + 3 * bound), 0),  # faster
        (document(1 - 2 * bound), 1),  # slower beyond the bound
        (document(digest="other"), 1),  # a schedule changed
    ]
    a = tmp_path / "a.json"
    a.write_text(json.dumps(document()))
    paths = []
    for index, (b_doc, expected) in enumerate(cases):
        paths.append(tmp_path / f"b{index}.json")
        paths[-1].write_text(json.dumps(b_doc))
        assert suite_main(["compare", str(a), str(paths[-1])]) == expected, index
    # Several files per side compare by their medians: one slow run of three passes.
    assert suite_main(["compare", str(a), "--vs", str(paths[3]), str(paths[0]), str(paths[1])]) == 0


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("msb-paper", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
