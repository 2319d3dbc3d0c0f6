"""Tests for the CLI observability flags and SchedulingError handling."""

import json

import pytest

from repro.arch.presets import mesh_2x2
from repro.cli import main
from repro.ctg.graph import CTG
from repro.ctg.multimedia import av_encoder_ctg
from repro.errors import SchedulingError
from repro.obs.export import TRACE_SCHEMA_VERSION
from repro.obs.ledger import read_ledger
from tests.conftest import make_task


class TestProfileFlag:
    def test_profile_prints_summary_to_stderr(self, capsys):
        assert main(["schedule", "--system", "encoder", "--clip", "foreman", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "Gantt" in captured.out  # normal output unaffected
        assert "== phase timings ==" in captured.err
        assert "level_schedule" in captured.err
        assert "slack_budgeting" in captured.err
        assert "eas.evaluations" in captured.err
        assert "task commits" in captured.err

    def test_profile_works_on_table_command(self, capsys):
        assert main(["table2", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "== counters ==" in err
        assert "edf.evaluations" in err


class TestTraceFlag:
    def test_trace_writes_valid_jsonl_covering_every_task(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        assert (
            main(
                [
                    "schedule",
                    "--system",
                    "encoder",
                    "--clip",
                    "foreman",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        assert "trace:" in capsys.readouterr().err
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert records[0]["schema_version"] == TRACE_SCHEMA_VERSION
        assert records[0]["command"] == "schedule"

        decisions = [r for r in records if r["type"] == "decision"]
        expected = sorted(av_encoder_ctg("foreman").task_names())
        assert sorted(d["task"] for d in decisions) == expected

        spans = {r["name"] for r in records if r["type"] == "span"}
        assert {"slack_budgeting", "level_schedule", "cli"} <= spans
        counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
        assert counters["eas.commits"] == len(expected)

    def test_unwritable_trace_path_gives_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "missing-dir" / "out.jsonl"
        assert main(["schedule", "--system", "decoder", "--trace", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "repro-noc: error: cannot write trace" in err
        assert "Traceback" not in err

    def test_default_run_produces_no_trace_io(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["schedule", "--system", "decoder"]) == 0
        captured = capsys.readouterr()
        assert "trace" not in captured.err
        assert "phase timings" not in captured.err
        assert list(tmp_path.iterdir()) == []  # no files written


class TestSchedulingErrorHandling:
    def _boom(self, *args, **kwargs):
        raise SchedulingError("task 'x' has no feasible PE")

    def test_clean_one_line_error_and_nonzero_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.parallel.spec.eas_schedule", self._boom)
        assert main(["schedule", "--system", "encoder"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "repro-noc: error: task 'x' has no feasible PE"
        assert "Traceback" not in err

    def test_error_is_logged_through_tracer(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.parallel.spec.eas_schedule", self._boom)
        trace = tmp_path / "err.jsonl"
        assert main(["schedule", "--system", "encoder", "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "repro-noc: error:" in err
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        events = [r for r in records if r["type"] == "event"]
        assert any(
            e["name"] == "scheduling_error" and "no feasible PE" in e["attrs"]["error"]
            for e in events
        )
        counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
        assert counters["cli.scheduling_errors"] == 1
        cli_span = next(r for r in records if r["type"] == "span" and r["name"] == "cli")
        assert cli_span["status"] == "ok"  # handler caught the error itself

    def test_non_scheduling_errors_still_propagate(self, monkeypatch):
        def bad(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr("repro.parallel.spec.eas_schedule", bad)
        with pytest.raises(RuntimeError):
            main(["schedule", "--system", "encoder"])


def _infeasible_benchmark(spec):
    """A CTG whose only task names a PE type no mesh tile provides."""
    ctg = CTG(name="infeasible")
    ctg.add_task(make_task("t0", {"fpga": 100}, deadline=1000.0))
    return ctg, mesh_2x2()


class TestInfeasibleRunPostmortem:
    """A genuinely infeasible CTG dies cleanly AND leaves a ledger record."""

    def test_clean_error_and_run_failed_record(self, capsys, monkeypatch, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        monkeypatch.setattr("repro.parallel.spec.BenchmarkSpec.build", _infeasible_benchmark)

        assert main(["schedule", "--system", "encoder"]) == 1

        captured = capsys.readouterr()
        error_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(error_lines) == 1
        assert error_lines[0].startswith("repro-noc: error:")
        assert "t0" in error_lines[0]
        assert "cannot run on any PE" in error_lines[0]
        assert "Traceback" not in captured.err

        records = read_ledger(ledger)
        assert records[0]["type"] == "run_started"
        terminal = records[-1]
        assert terminal["type"] == "run_failed"
        assert terminal["error"] == (
            "InfeasibleTaskError: task 't0' cannot run on any PE of the platform"
        )
        assert "Traceback" in terminal["traceback"]
        assert "InfeasibleTaskError" in terminal["traceback"]
        # partial counter snapshot at death: scheduling began before dying
        assert isinstance(terminal["metrics"], dict)

    def test_crash_also_leaves_run_failed_record(self, monkeypatch, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))

        def bad(*args, **kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr("repro.parallel.spec.eas_schedule", bad)
        with pytest.raises(RuntimeError):
            main(["schedule", "--system", "encoder"])
        terminal = read_ledger(ledger)[-1]
        assert terminal["type"] == "run_failed"
        assert terminal["error"] == "RuntimeError: worker exploded"
        assert "worker exploded" in terminal["traceback"]


#: CLI invocations whose bad input surfaces as a typed library error:
#: ``(argv, error class, message)``.  ``{tmp}`` is the test's tmp_path,
#: where the ``bad_inputs`` fixture writes a JSON document that is not
#: a schedule and one that is not a fault plan.
BAD_INPUT_COMMANDS = {
    "schedule-zero-tasks": (
        ["schedule", "--system", "random", "--n-tasks", "0"],
        "CTGError",
        "n_tasks must be >= 1",
    ),
    "diff-unknown-category": (
        ["diff", "category=3", "algorithm=edf", "--system", "random"],
        "CTGError",
        "unknown category 3; use 1 or 2",
    ),
    "diff-unknown-clip": (
        ["diff", "clip=nope", "algorithm=edf"],
        "CTGError",
        "unknown clip 'nope'; known: ('akiyo', 'foreman', 'toybox')",
    ),
    "diff-unknown-system": (
        ["diff", "system=bogus", "algorithm=edf"],
        "InvalidArgumentError",
        "unknown system 'bogus'; known: ['random', 'decoder', 'encoder', 'integrated']",
    ),
    "explain-load-non-schedule": (
        ["explain", "--load", "{tmp}/not-a-schedule.json"],
        "SerializationError",
        "cannot load {tmp}/not-a-schedule.json: not a repro-schedule document: format=None",
    ),
    "diff-unknown-spec-key": (
        ["diff", "algorithm=eas", "foo=1"],
        "InvalidArgumentError",
        "diff endpoint 'foo=1': unknown key 'foo'",
    ),
    "faults-inject-non-plan": (
        ["faults", "inject", "--plan", "{tmp}/not-a-plan.json"],
        "SerializationError",
        "repro-fault-plan document must be a JSON object, got list",
    ),
    "faults-sweep-unknown-kind": (
        ["faults", "sweep", "--kinds", "bogus", "--plans", "2"],
        "InvalidArgumentError",
        "unknown fault kind 'bogus'; known: ['pe', 'link', 'transient']",
    ),
    "inspect-out-missing-dir": (
        ["inspect", "--out", "{tmp}/missing/x"],
        "SerializationError",
        "cannot write {tmp}/missing/x: [Errno 2] No such file or directory: '{tmp}/missing/x'",
    ),
    "report-prune-without-ledger": (
        ["report", "--prune-ledger", "1", "--ledger", "off"],
        "LedgerError",
        "no run ledger to prune",
    ),
}


@pytest.fixture
def bad_inputs(tmp_path):
    (tmp_path / "not-a-schedule.json").write_text('{"a": 1}\n')
    (tmp_path / "not-a-plan.json").write_text("[1, 2]\n")
    return str(tmp_path)


def _bad_input_case(case_id, tmp):
    argv, error_class, message = BAD_INPUT_COMMANDS[case_id]
    return [arg.format(tmp=tmp) for arg in argv], error_class, message.format(tmp=tmp)


class TestLibraryInputErrors:
    """Any library error is a one-line exit 1, never a traceback.

    ``main`` is the one place that maps a ``ReproError`` to that exit, so
    every case also leaves a ``run_failed`` ledger record that names the
    error class.
    """

    @pytest.mark.parametrize("case_id", BAD_INPUT_COMMANDS)
    def test_clean_error_without_instrumentation(self, case_id, bad_inputs, capsys):
        argv, _error_class, message = _bad_input_case(case_id, bad_inputs)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"repro-noc: error: {message}\n"

    @pytest.mark.parametrize(
        "case_id",
        [case for case, (argv, _cls, _msg) in BAD_INPUT_COMMANDS.items() if "--ledger" not in argv],
    )
    def test_clean_error_and_run_failed_record(
        self, case_id, bad_inputs, capsys, monkeypatch, tmp_path
    ):
        argv, error_class, message = _bad_input_case(case_id, bad_inputs)
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"repro-noc: error: {message}\n"
        terminal = read_ledger(ledger)[-1]
        assert terminal["type"] == "run_failed"
        assert terminal["error"] == f"{error_class}: {message}"

    @pytest.mark.parametrize("case_id", BAD_INPUT_COMMANDS)
    def test_error_line_is_last_under_trace(self, case_id, bad_inputs, capsys, tmp_path):
        argv, _error_class, message = _bad_input_case(case_id, bad_inputs)
        assert main(argv + ["--trace", str(tmp_path / "trace.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"repro-noc: error: {message}"
        assert "Traceback" not in err

    def test_unwritable_trace_keeps_the_handler_error(self, bad_inputs, capsys, tmp_path):
        argv, _error_class, message = _bad_input_case("diff-unknown-system", bad_inputs)
        bad = tmp_path / "missing-dir" / "trace.jsonl"
        assert main(argv + ["--trace", str(bad)]) == 1
        first, last = capsys.readouterr().err.splitlines()
        assert first.startswith("repro-noc: error: cannot write trace: ")
        assert last == f"repro-noc: error: {message}"


class TestTraceStdoutWithJobs:
    """--trace - must stay machine-parseable even under a worker pool."""

    def test_every_stdout_line_is_json_and_workers_merge(self, capsys):
        assert main(["table1", "--jobs", "2", "--trace", "-"]) == 0
        captured = capsys.readouterr()
        lines = [ln for ln in captured.out.splitlines() if ln.strip()]
        records = [json.loads(ln) for ln in lines]  # every line parses
        assert records[0]["type"] == "meta"
        # worker-side spans were merged before the single stdout emission
        spans = [r for r in records if r["type"] == "span"]
        assert {"level_schedule", "slack_budgeting"} <= {s["name"] for s in spans}
        # the tables the command normally prints moved to stderr
        assert "Table 1" in captured.err or "encoder" in captured.err
        assert "trace:" in captured.err

    def test_trace_stdout_with_heartbeat_stays_clean(self, capsys):
        assert (
            main(["table1", "--jobs", "2", "--trace", "-", "--heartbeat", "0.01"]) == 0
        )
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            if line.strip():
                json.loads(line)  # heartbeat lines must not leak to stdout
        assert "heartbeat:" in captured.err
