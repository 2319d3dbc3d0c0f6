"""Tests for the postmortem reporter (obs.report + CLI)."""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.obs.report import build_report, report_view
from repro.render import render
from tests.document_fuzz import variants


@pytest.fixture
def ledger_path(tmp_path):
    path = tmp_path / "ledger.jsonl"
    good = RunLedger(path, run_id="run-good")
    good.run_started(command="table1", argv=["table1"])
    good.phase("cell", tag="encoder[akiyo]:eas", scheduler="eas",
               benchmark="encoder[akiyo]", runtime_seconds=0.5)
    good.phase("cell", tag="encoder[akiyo]:edf", scheduler="edf",
               benchmark="encoder[akiyo]", runtime_seconds=0.1)
    good.run_finished(
        status=0,
        wall_seconds=0.7,
        top_phases=[
            {"name": "grid", "count": 1, "total_seconds": 0.6, "self_seconds": 0.1},
            {"name": "eas", "count": 2, "total_seconds": 0.5, "self_seconds": 0.5},
        ],
    )
    bad = RunLedger(path, run_id="run-bad")
    bad.run_started(command="schedule", argv=["schedule", "--system", "encoder"])
    try:
        raise RuntimeError("no feasible PE")
    except RuntimeError as exc:
        bad.run_failed(exc)
    return path


class TestLedgerSections:
    def test_failures_joined_with_command(self, ledger_path):
        report = build_report(ledger_path=ledger_path)
        (failure,) = report["failures"]
        assert failure["run_id"] == "run-bad"
        assert failure["command"] == "schedule"
        assert "no feasible PE" in failure["error"]
        assert "Traceback" in failure["traceback"]

    def test_run_stats(self, ledger_path):
        report = build_report(ledger_path=ledger_path)
        assert report["runs"] == {"total": 2, "finished": 1, "failed": 1, "open": 0}

    def test_exclude_run_id_drops_the_reporting_run(self, ledger_path):
        report = build_report(ledger_path=ledger_path, exclude_run_id="run-bad")
        assert report["runs"]["total"] == 1
        assert report["failures"] == []

    def test_slow_phases_aggregate_self_time(self, ledger_path):
        report = build_report(ledger_path=ledger_path)
        assert [p["name"] for p in report["slow_phases"]] == ["eas", "grid"]
        assert report["slow_phases"][0]["self_seconds"] == 0.5

    def test_slow_cells_ranked_by_runtime(self, ledger_path):
        report = build_report(ledger_path=ledger_path)
        tags = [c["tag"] for c in report["slow_cells"]]
        assert tags == ["encoder[akiyo]:eas", "encoder[akiyo]:edf"]

    def test_cache_rates_include_rebuild_probes(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for run_id, hits, probes in (("run-a", 30, 10), ("run-b", 10, 10)):
            ledger = RunLedger(path, run_id=run_id)
            ledger.run_started(command="schedule", argv=["schedule"])
            ledger.run_finished(
                status=0,
                metrics={"rebuild.probe_hits": hits, "rebuild.probes": probes},
            )
        report = build_report(ledger_path=path)
        assert report["caches"] == [
            {"cache": "rebuild probe", "hits": 40, "misses": 20, "hit_rate_pct": 66.7}
        ]
        rows = [line.split() for line in render(report_view(report), "text").splitlines()]
        assert ["rebuild", "probe", "40", "20", "66.7%"] in rows

    @pytest.mark.parametrize(
        "field, value",
        [
            ("top_phases", "oops"),
            ("top_phases", [1, {"name": "eas", "count": "2"}]),
            ("top_phases", [{"name": "eas", "self_seconds": None}]),
            ("metrics", [1]),
            ("metrics", "oops"),
        ],
    )
    def test_wrongly_typed_terminal_fields_are_skipped(self, ledger_path, field, value):
        ledger = RunLedger(ledger_path, run_id="run-odd")
        ledger.run_started(command="table1", argv=["table1"])
        ledger.run_finished(status=0, wall_seconds=0.2, **{field: value})
        report = build_report(ledger_path=ledger_path)
        assert [p["name"] for p in report["slow_phases"]] == ["eas", "grid"]
        assert report["slow_phases"][0]["self_seconds"] == 0.5
        assert report["runs"]["finished"] == 2
        for fmt in ("text", "markdown", "json"):
            render(report_view(report), fmt)

    def test_no_ledger_sections_without_path(self):
        report = build_report(ledger_path=None)
        assert report["failures"] == []
        assert report["runs"]["total"] == 0


#: a ledger holding each record kind the report reads, as ``read_ledger`` returns it,
#: wrapped in the document shape ``tests/document_fuzz.py`` edits.
LEDGER = {
    "version": 1,
    "records": [
        {"type": "run_started", "run_id": "r1", "t": 1.7e9, "command": "table1", "argv": ["table1"]},
        {"type": "phase", "run_id": "r1", "name": "cell", "tag": "c", "scheduler": "eas",
         "benchmark": "b", "runtime_seconds": 0.5},
        {"type": "phase", "run_id": "r1", "name": "fault_plan", "tag": "p", "kind": "pe",
         "recovered": True, "survived": True, "energy_delta": 1.0},
        {"type": "heartbeat", "run_id": "r1", "elapsed": 1.0},
        {"type": "run_finished", "run_id": "r1", "t": 1.7e9, "wall_seconds": 0.7,
         "top_phases": [{"name": "eas", "count": 1, "self_seconds": 0.2}],
         "metrics": {"eas.cache_hits": 3, "eas.evaluations": 4}},
        {"type": "run_started", "run_id": "r2", "command": "table1", "argv": ["table1"]},
        {"type": "run_finished", "run_id": "r2", "wall_seconds": 0.6, "metrics": {"eas.cache_hits": 3}},
        {"type": "run_started", "run_id": "r3", "command": "schedule", "argv": ["schedule"]},
        {"type": "run_failed", "run_id": "r3", "t": 1.7e9, "error": "RuntimeError: x",
         "traceback": "Traceback\nRuntimeError: x"},
    ],
}


class TestGeneratedLedgers:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(variants(LEDGER, (1,)))
    def test_every_variant_yields_a_report(self, tmp_path, document):
        records = document.get("records") if isinstance(document, dict) else None
        lines = [json.dumps(record) + "\n" for record in records] if isinstance(records, list) else []
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(lines))
        report = build_report(ledger_path=path)
        json.loads(render(report_view(report), "json"))
        render(report_view(report), "text")
        render(report_view(report), "markdown")


class TestRendering:
    def test_text_sections(self, ledger_path):
        report = build_report(ledger_path=ledger_path)
        text = render(report_view(report), "text")
        assert text.startswith("== runs ==")
        assert "== recent failures ==" in text
        assert "no feasible PE" in text
        assert "== slowest phases (self time) ==" in text

    def test_markdown_tables(self, ledger_path):
        report = build_report(ledger_path=ledger_path)
        md = render(report_view(report), "markdown")
        assert md.startswith("# repro-noc run report\n\n## Runs\n")
        assert "| phase | count | self ms |" in md
        assert "| schedule | RuntimeError: no feasible PE |" in md

    def test_json_round_trips(self, ledger_path):
        report = build_report(ledger_path=ledger_path)
        parsed = json.loads(render(report_view(report), "json"))
        assert parsed["runs"]["failed"] == 1

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render(report_view(build_report()), "yaml")


class TestCli:
    def test_report_json_parses(self, ledger_path, monkeypatch, capsys):
        """Acceptance: ``repro-noc report --format json`` emits valid JSON."""
        monkeypatch.setenv("REPRO_LEDGER", str(ledger_path))
        assert main(["report", "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["runs"]["failed"] == 1

    def test_report_text_default(self, ledger_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", str(ledger_path))
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== runs ==")
        assert "no feasible PE" in out

    def test_report_threshold_flag(self, capsys):
        """The trend section is gone, and with it its two flags."""
        for flag in (["--threshold", "0.05"], ["--bench-dir", "."]):
            with pytest.raises(SystemExit) as exit_info:
                main(["report", *flag])
            assert exit_info.value.code == 2

    def test_report_is_a_function_of_the_ledger(self, ledger_path, tmp_path, monkeypatch, capsys):
        """Two reports over copies of one ledger agree bar ``generated_at``.

        ``ledger_bytes`` is the copy's size before the report ran: the
        reporting run's own records do not count.
        """
        documents = []
        for name in ("a", "b"):
            directory = tmp_path / name
            directory.mkdir()
            copy = directory / "runs.jsonl"
            copy.write_bytes(ledger_path.read_bytes())
            size = copy.stat().st_size
            monkeypatch.chdir(directory)
            monkeypatch.setenv("REPRO_LEDGER", "runs.jsonl")
            assert main(["report", "--format", "json"]) == 0
            document = json.loads(capsys.readouterr().out)
            assert copy.stat().st_size > size  # the report recorded itself
            assert document["ledger_bytes"] == size
            del document["generated_at"]
            documents.append(document)
        assert documents[0] == documents[1]

    def test_reporting_run_not_counted_as_open(self, tmp_path, monkeypatch, capsys):
        """The report run flight-records itself but excludes itself."""
        ledger = tmp_path / "self.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        assert main(["report", "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["runs"]["total"] == 0

    def test_last_run_delta_carries_counters(self, tmp_path, monkeypatch, capsys):
        """Two ledgered runs of one command: the report diffs their counters."""
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "runs.jsonl"))
        for _ in range(2):
            assert main(["schedule", "--system", "encoder"]) == 0
        capsys.readouterr()
        assert main(["report", "--format", "json"]) == 0
        delta = json.loads(capsys.readouterr().out)["run_delta"]
        evaluations = delta["counters"]["eas.evaluations"]
        assert evaluations[0] == evaluations[1] > 0
