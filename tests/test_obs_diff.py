"""Tests for the differential run diagnostics (obs.diff).

The acceptance invariants: per-task energy/tardiness attributions sum
exactly (±1e-9) to the headline deltas, output is byte-identical across
repeated invocations and across ``--jobs 1`` vs ``--jobs 2``, and moves
classify into root-cause vs cascade along graph edges.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors, obs
from repro.arch.presets import mesh_3x3, mesh_4x4
from repro.baselines.edf import edf_schedule
from repro.core.eas import EASConfig, eas_schedule
from repro.core.reference import reference_eas_schedule
from repro.ctg.generator import generate_category
from repro.obs.diff import (
    DIFF_SCHEMA_VERSION,
    diff_schedules,
    diff_view,
    run_delta,
)
from repro.obs.ledger import RunLedger, read_ledger
from repro.render import render


def _pair(n_tasks=35, index=1):
    ctg = generate_category(2, index, n_tasks=n_tasks)
    acg = mesh_3x3(shuffle_seed=index)
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        a = eas_schedule(ctg, acg, EASConfig())
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        b = edf_schedule(ctg, acg)
    return ctg, acg, a, b


class TestExactAttribution:
    def test_energy_and_tardiness_deltas_sum_exactly(self):
        _, _, a, b = _pair()
        diff = diff_schedules(a, b)
        assert sum(diff.energy_by_task.values()) == pytest.approx(
            diff.energy_delta, abs=1e-9
        )
        assert sum(diff.tardiness_by_task.values()) == pytest.approx(
            diff.tardiness_delta, abs=1e-9
        )

    def test_identical_schedules_diff_empty(self):
        ctg = generate_category(1, 0, n_tasks=25)
        acg = mesh_3x3()
        a = eas_schedule(ctg, acg)
        b = reference_eas_schedule(ctg, acg)
        diff = diff_schedules(a, b)
        assert diff.moves == []
        assert diff.energy_by_task == {}
        assert diff.tardiness_by_task == {}
        assert diff.energy_delta == 0.0

    def test_mismatched_benchmarks_rejected(self):
        ctg1 = generate_category(1, 0, n_tasks=20)
        ctg2 = generate_category(1, 1, n_tasks=20)
        acg = mesh_3x3()
        with pytest.raises(ValueError, match="different CTGs"):
            diff_schedules(edf_schedule(ctg1, acg), edf_schedule(ctg2, acg))
        with pytest.raises(ValueError, match="different platforms"):
            diff_schedules(
                edf_schedule(ctg1, acg), edf_schedule(ctg1, mesh_4x4())
            )


class TestCauseClassification:
    def test_every_move_is_classified_and_cascades_name_movers(self):
        ctg, _, a, b = _pair()
        diff = diff_schedules(a, b)
        assert diff.moves, "eas vs edf must move tasks"
        moved = {m.task for m in diff.moves}
        for move in diff.moves:
            assert move.cause in ("root-cause", "cascade")
            preds = {edge.src for edge in ctg.in_edges(move.task)}
            if move.cause == "cascade":
                # A cascade names at least one moved predecessor.
                named = set(move.reason.replace("inherited from ", "").split(", "))
                assert named <= preds
                assert named <= moved
            else:
                # Root causes have no moved predecessor.
                assert not (preds & moved) or all(
                    m.task not in preds
                    or m.start_a >= a.task_placements[move.task].start
                    for m in diff.moves
                )

    def test_source_tasks_always_root_cause(self):
        ctg, _, a, b = _pair(index=2)
        diff = diff_schedules(a, b)
        for move in diff.moves:
            if ctg.in_degree(move.task) == 0:
                assert move.cause == "root-cause"

    def test_root_cause_reason_uses_provenance(self):
        _, _, a, b = _pair()
        assert a.provenance and b.provenance
        diff = diff_schedules(a, b)
        roots = diff.root_causes()
        assert roots
        assert any("algorithm" in m.reason or "winner" in m.reason for m in roots)


class TestDeterminism:
    def test_repeated_renders_byte_identical(self):
        _, _, a, b = _pair()
        first = render(diff_view(diff_schedules(a, b, "x", "y")), "text")
        second = render(diff_view(diff_schedules(a, b, "x", "y")), "text")
        assert first == second
        assert render(diff_view(diff_schedules(a, b, "x", "y")), "json") == render(
            diff_view(diff_schedules(a, b, "x", "y")), "json"
        )

    def test_jobs_1_and_2_byte_identical(self):
        from repro.evalx.experiments import schedules_for_specs
        from repro.parallel.spec import BenchmarkSpec, RunSpec

        specs = [
            RunSpec(
                scheduler="eas",
                benchmark=BenchmarkSpec(
                    kind="random", category=2, index=1, n_tasks=30,
                    acg_preset="mesh_3x3", shuffle_seed=101,
                ),
                tag="a",
            ),
            RunSpec(
                scheduler="edf",
                benchmark=BenchmarkSpec(
                    kind="random", category=2, index=1, n_tasks=30,
                    acg_preset="mesh_3x3", shuffle_seed=101,
                ),
                tag="b",
            ),
        ]
        serial = schedules_for_specs(specs, jobs=1)
        pooled = schedules_for_specs(specs, jobs=2)
        text_serial = render(diff_view(diff_schedules(serial[0], serial[1])), "text")
        text_pooled = render(diff_view(diff_schedules(pooled[0], pooled[1])), "text")
        assert text_serial == text_pooled
        # The rebuilt schedules carry provenance for cause analysis.
        assert serial[0].provenance and pooled[0].provenance


class TestRenderers:
    def test_all_formats(self):
        _, _, a, b = _pair()
        diff = diff_schedules(a, b, "A", "B")
        text = render(diff_view(diff), "text")
        assert "root-cause" in text
        assert "(sums to)" in text
        markdown = render(diff_view(diff), "markdown")
        assert markdown.startswith("# Diff")
        assert "| task |" in markdown
        document = json.loads(render(diff_view(diff), "json"))
        assert document["schema_version"] == DIFF_SCHEMA_VERSION
        assert document["energy_delta"] == pytest.approx(
            sum(document["energy_by_task"].values()), abs=1e-9
        )
        with pytest.raises(ValueError):
            render(diff_view(diff), "html")

    def test_run_delta_section(self):
        _, _, a, b = _pair()

        def ledgered(cell_wall, wall, evaluations):
            # The records the CLI writes: a cell phase, then the terminal
            # record with the counter snapshot under ``metrics``.
            ledger = RunLedger(None)
            ledger.phase("cell", tag="x", runtime_seconds=cell_wall)
            ledger.run_finished(wall_seconds=wall, metrics={"eas.evaluations": evaluations})
            return ledger.buffered

        records_a = ledgered(1.0, 2.0, 10)
        records_b = ledgered(1.5, 3.0, 14)
        delta = run_delta("r1", records_a, "r2", records_b)
        assert delta.phase_walls["x"] == [1.0, 1.5]
        assert delta.phase_walls["(total wall)"] == [2.0, 3.0]
        assert delta.counters["eas.evaluations"] == [10.0, 14.0]
        text = render(diff_view(diff_schedules(a, b), delta), "text")
        assert "run telemetry r1 vs r2" in text
        assert "eas.evaluations" in text

    def test_run_delta_missing_side_is_none(self):
        delta = run_delta(
            "r1",
            [{"type": "phase", "name": "cell", "tag": "only-a", "runtime_seconds": 1.0}],
            "r2",
            [],
        )
        assert delta.phase_walls["only-a"] == [1.0, None]


class TestCliEndpoints:
    def test_removed_cache_key_is_unknown(self, capsys):
        from repro.cli import main

        assert main(["diff", "algorithm=eas,cache=off", "algorithm=edf"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["repro-noc: error: diff endpoint 'algorithm=eas,cache=off': unknown key 'cache'"]

    def test_legacy_ledger_params_still_resolve(self, tmp_path, capsys):
        """Records from before the oracle refactor carry the old switches."""
        from repro.cli import main

        ledger = tmp_path / "ledger.jsonl"
        legacy = {
            "system": "random",
            "category": 2,
            "index": 1,
            "n_tasks": 20,
            "no_eval_cache": True,
            "no_path_cache": False,
            "no_incremental_repair": True,
        }
        with open(ledger, "w") as handle:
            for run_id, algorithm in (("old-eas", "eas"), ("old-edf", "edf")):
                record = {
                    "type": "run_started",
                    "run_id": run_id,
                    "command": "schedule",
                    "params": dict(legacy, algorithm=algorithm),
                }
                handle.write(json.dumps(record) + "\n")
        status = main(
            ["diff", "run:old-eas", "run:old-edf", "--ledger", str(ledger), "--format", "json"]
        )
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["moves"]

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"algorithm": "eas", "n_tasks": "x"}, ": 'n_tasks' must be an integer, got 'x'"),
            ({"algorithm": "eas", "n_tasks": [3]}, ": 'n_tasks' must be an integer, got [3]"),
            ({"algorithm": "eas", "index": "3"}, ": 'index' must be an integer, got '3'"),
            ({"algorithm": "eas", "system": 7}, ": 'system' must be a string, got 7"),
            ("algorithm", " must be a JSON object, got str"),
        ],
    )
    def test_wrongly_typed_ledger_params_are_one_line_errors(
        self, tmp_path, monkeypatch, capsys, params, message
    ):
        """A ``run:<id>`` endpoint reads its recorded params typed."""
        from repro.cli import main

        ledger = tmp_path / "ledger.jsonl"
        started = {"type": "run_started", "run_id": "r1", "command": "schedule", "params": params}
        ledger.write_text(json.dumps(started) + "\n")
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        argv = ["diff", "run:r1", "algorithm=edf", "--system", "random", "--n-tasks", "10"]
        assert main(argv) == 1
        expected = f"run 'r1' params{message}"
        assert capsys.readouterr().err == f"repro-noc: error: {expected}\n"
        terminal = read_ledger(ledger)[-1]
        assert terminal["type"] == "run_failed"
        assert terminal["error"] == f"LedgerError: {expected}"


#: endpoint values: the known names, a few wrong ones and free text.
_SPEC_VALUES = {
    "algorithm": ["eas", "edf", "eas-base", "bogus"],
    "system": ["random", "encoder", "decoder", "bogus"],
    "clip": ["akiyo", "foreman", "nope"],
}
_spec_part = st.one_of(
    st.tuples(
        st.sampled_from(["category", "index", "n_tasks"]),
        st.one_of(st.integers(-2, 12).map(str), st.text(max_size=4)),
    ),
    st.sampled_from(sorted(_SPEC_VALUES)).flatmap(
        lambda key: st.tuples(
            st.just(key), st.one_of(st.sampled_from(_SPEC_VALUES[key]), st.text(max_size=4))
        )
    ),
    st.tuples(st.text(alphabet="acfn_xyz ", max_size=6), st.text(max_size=3)),
).map("=".join)
#: ``key=value,...`` tokens, with parts that lack the ``=`` mixed in.
_spec_tokens = (
    st.lists(st.one_of(_spec_part, st.text(max_size=4)), max_size=4)
    .map(",".join)
    .filter(lambda token: not token.startswith("-") and not Path(token).exists())
)


class TestInlineSpecFuzz:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(a=_spec_tokens, b=_spec_tokens)
    def test_spec_tokens_run_or_fail_in_one_line(self, a, b, monkeypatch, capsys):
        """Every inline spec either diffs or is one typed ``ReproError`` line."""
        from repro.cli import main

        capsys.readouterr()
        with tempfile.TemporaryDirectory() as tmp:
            ledger = Path(tmp) / "ledger.jsonl"
            monkeypatch.setenv("REPRO_LEDGER", str(ledger))
            status = main(["diff", a, b, "--system", "random", "--n-tasks", "6"])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if status == 0:
                return
            assert status == 1
            assert err.count("\n") == 1 and err.startswith("repro-noc: error: ")
            terminal = read_ledger(ledger)[-1]
            assert terminal["type"] == "run_failed"
            error_class = getattr(errors, terminal["error"].split(":")[0])
            assert issubclass(error_class, errors.ReproError)
