"""Tests for the trend & postmortem reporter (obs.report + CLI)."""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.cli import main
from repro.obs.benchstore import BenchRun, BenchStore
from repro.obs.ledger import RunLedger
from repro.obs.report import build_report, format_report
from tests.document_fuzz import variants


@pytest.fixture
def store(tmp_path):
    return BenchStore(tmp_path)


def seed_history(store, name="fig5", walls=(1.0, 1.0, 1.0, 1.0), cpu_count=4, **kwargs):
    for wall in walls:
        store.append(
            BenchRun(name=name, wall_seconds=wall, cpu_count=cpu_count, **kwargs)
        )


def strip_cpu_counts(path):
    """Rewrite a history file as if recorded before the cpu_count field."""
    document = json.loads(path.read_text())
    for run in document["runs"]:
        run.pop("cpu_count", None)
        run.pop("jobs", None)
    path.write_text(json.dumps(document))


class TestBenchTrends:
    def test_healthy_history_is_not_flagged(self, store, tmp_path):
        seed_history(store, walls=(1.0, 1.02, 0.98, 1.01))
        report = build_report(bench_dir=tmp_path, threshold=0.10)
        (row,) = report["benchmarks"]
        assert row["benchmark"] == "fig5"
        assert row["runs"] == 4
        assert row["regressed"] is False
        assert report["regressions"] == []

    def test_outlier_last_run_is_flagged(self, store, tmp_path):
        """Acceptance: a +25% wall-time outlier trips the 10% threshold."""
        seed_history(store, walls=(1.0, 1.0, 1.0, 1.25))
        report = build_report(bench_dir=tmp_path, threshold=0.10)
        (row,) = report["benchmarks"]
        assert row["regressed"] is True
        assert row["delta_pct"] == 25.0
        assert report["regressions"] == ["fig5"]

    def test_cross_cpu_runs_are_ignored(self, store, tmp_path):
        """Acceptance: 1-CPU container walls never pollute a 4-CPU cohort."""
        # Slow container runs first, then fast 4-CPU history, then a last
        # 4-CPU run that would look *fast* against the container medians
        # but is +25% against its own cohort.
        seed_history(store, walls=(10.0, 10.0, 10.0), cpu_count=1)
        seed_history(store, walls=(1.0, 1.0, 1.0, 1.25), cpu_count=4)
        report = build_report(bench_dir=tmp_path, threshold=0.10)
        (row,) = report["benchmarks"]
        assert row["cpu_count"] == 4
        assert row["ignored_runs"] == 3
        assert row["median_wall_seconds"] == 1.0
        assert row["regressed"] is True

    def test_legacy_records_without_cpu_count_are_wildcards(self, store, tmp_path):
        seed_history(store, walls=(1.0, 1.0), cpu_count=3)
        strip_cpu_counts(store.path_for("fig5"))  # pre-schema records
        seed_history(store, walls=(1.0, 1.25), cpu_count=4)
        report = build_report(bench_dir=tmp_path, threshold=0.10)
        (row,) = report["benchmarks"]
        assert row["ignored_runs"] == 0
        assert row["regressed"] is True

    def test_single_run_has_no_median(self, store, tmp_path):
        seed_history(store, walls=(1.0,))
        (row,) = build_report(bench_dir=tmp_path)["benchmarks"]
        assert row["median_wall_seconds"] is None
        assert row["delta_pct"] is None
        assert row["regressed"] is False

    def test_multiple_benchmarks_sorted_by_name(self, store, tmp_path):
        seed_history(store, name="table1", walls=(1.0, 1.0))
        seed_history(store, name="fig5", walls=(1.0, 1.0))
        names = [row["benchmark"] for row in build_report(bench_dir=tmp_path)["benchmarks"]]
        assert names == ["fig5", "table1"]


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
    def test_failures_joined_with_command(self, tmp_path, ledger_path):
        report = build_report(bench_dir=tmp_path, ledger_path=ledger_path)
        (failure,) = report["failures"]
        assert failure["run_id"] == "run-bad"
        assert failure["command"] == "schedule"
        assert "no feasible PE" in failure["error"]
        assert "Traceback" in failure["traceback"]

    def test_run_stats(self, tmp_path, ledger_path):
        report = build_report(bench_dir=tmp_path, ledger_path=ledger_path)
        assert report["runs"] == {"total": 2, "finished": 1, "failed": 1, "open": 0}

    def test_exclude_run_id_drops_the_reporting_run(self, tmp_path, ledger_path):
        report = build_report(
            bench_dir=tmp_path, ledger_path=ledger_path, exclude_run_id="run-bad"
        )
        assert report["runs"]["total"] == 1
        assert report["failures"] == []

    def test_slow_phases_aggregate_self_time(self, tmp_path, ledger_path):
        report = build_report(bench_dir=tmp_path, ledger_path=ledger_path)
        assert [p["name"] for p in report["slow_phases"]] == ["eas", "grid"]
        assert report["slow_phases"][0]["self_seconds"] == 0.5

    def test_slow_cells_ranked_by_runtime(self, tmp_path, ledger_path):
        report = build_report(bench_dir=tmp_path, ledger_path=ledger_path)
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
        report = build_report(bench_dir=tmp_path, ledger_path=path)
        assert report["caches"] == [
            {"cache": "rebuild probe", "hits": 40, "misses": 20, "hit_rate_pct": 66.7}
        ]
        assert "rebuild probe      hits 40" in format_report(report, "text")

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
    def test_wrongly_typed_terminal_fields_are_skipped(self, tmp_path, ledger_path, field, value):
        ledger = RunLedger(ledger_path, run_id="run-odd")
        ledger.run_started(command="table1", argv=["table1"])
        ledger.run_finished(status=0, wall_seconds=0.2, **{field: value})
        report = build_report(bench_dir=tmp_path, ledger_path=ledger_path)
        assert [p["name"] for p in report["slow_phases"]] == ["eas", "grid"]
        assert report["slow_phases"][0]["self_seconds"] == 0.5
        assert report["runs"]["finished"] == 2
        for fmt in ("text", "markdown", "json"):
            format_report(report, fmt)

    def test_no_ledger_sections_without_path(self, tmp_path):
        report = build_report(bench_dir=tmp_path, ledger_path=None)
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
        report = build_report(bench_dir=tmp_path, ledger_path=path)
        json.loads(format_report(report, "json"))
        format_report(report, "text")
        format_report(report, "markdown")


class TestRendering:
    def test_text_sections(self, store, tmp_path, ledger_path):
        seed_history(store, walls=(1.0, 1.0, 1.25))
        report = build_report(bench_dir=tmp_path, ledger_path=ledger_path)
        text = format_report(report, "text")
        assert "== benchmark trends ==" in text
        assert "REGRESSION" in text
        assert "flagged: fig5" in text
        assert "== recent failures ==" in text
        assert "no feasible PE" in text
        assert "== slowest phases (self time) ==" in text

    def test_markdown_tables(self, store, tmp_path, ledger_path):
        seed_history(store, walls=(1.0, 1.0))
        report = build_report(bench_dir=tmp_path, ledger_path=ledger_path)
        md = format_report(report, "markdown")
        assert md.startswith("# repro-noc run report")
        assert "| benchmark | runs |" in md
        assert "**schedule** — RuntimeError: no feasible PE" in md

    def test_json_round_trips(self, store, tmp_path, ledger_path):
        seed_history(store, walls=(1.0, 1.0))
        report = build_report(bench_dir=tmp_path, ledger_path=ledger_path)
        parsed = json.loads(format_report(report, "json"))
        assert parsed["runs"]["failed"] == 1

    def test_unknown_format_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            format_report(build_report(bench_dir=tmp_path), "yaml")


class TestCli:
    def test_report_json_parses(self, store, tmp_path, ledger_path, monkeypatch, capsys):
        """Acceptance: ``repro-noc report --format json`` emits valid JSON."""
        seed_history(store, walls=(1.0, 1.0, 1.3))
        monkeypatch.setenv("REPRO_LEDGER", str(ledger_path))
        assert (
            main(["report", "--format", "json", "--bench-dir", str(tmp_path)]) == 0
        )
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["regressions"] == ["fig5"]
        assert parsed["runs"]["failed"] == 1

    def test_report_text_default(self, store, tmp_path, monkeypatch, capsys):
        seed_history(store, walls=(1.0, 1.0))
        assert main(["report", "--bench-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== benchmark trends ==" in out
        assert "fig5" in out

    def test_report_threshold_flag(self, store, tmp_path, monkeypatch, capsys):
        seed_history(store, walls=(1.0, 1.0, 1.08))
        assert (
            main(["report", "--format", "json", "--bench-dir", str(tmp_path),
                  "--threshold", "0.05"]) == 0
        )
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["regressions"] == ["fig5"]

    def test_reporting_run_not_counted_as_open(self, store, tmp_path, monkeypatch, capsys):
        """The report run flight-records itself but excludes itself."""
        ledger = tmp_path / "self.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        assert main(["report", "--format", "json", "--bench-dir", str(tmp_path)]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["runs"]["total"] == 0

    def test_last_run_delta_carries_counters(self, tmp_path, monkeypatch, capsys):
        """Two ledgered runs of one command: the report diffs their counters."""
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "runs.jsonl"))
        for _ in range(2):
            assert main(["schedule", "--system", "encoder"]) == 0
        capsys.readouterr()
        assert main(["report", "--format", "json", "--bench-dir", str(tmp_path)]) == 0
        delta = json.loads(capsys.readouterr().out)["run_delta"]
        evaluations = delta["counters"]["eas.evaluations"]
        assert evaluations[0] == evaluations[1] > 0
