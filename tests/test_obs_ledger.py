"""Tests for the run ledger flight recorder (obs.ledger)."""

import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.obs.ledger import (
    RUN_LEDGER_SCHEMA_VERSION,
    RunLedger,
    current_git_rev,
    group_runs,
    iter_failures,
    ledger_size_bytes,
    new_run_id,
    prune_ledger,
    read_ledger,
    resolve_ledger_path,
)


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "ledger.jsonl"


class TestRecordPlumbing:
    def test_every_record_carries_schema_id_and_time(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.record("phase", name="cell")
        (record,) = read_ledger(ledger_path)
        assert record["schema_version"] == RUN_LEDGER_SCHEMA_VERSION
        assert record["run_id"] == ledger.run_id
        assert record["type"] == "phase"
        assert record["t"] > 0

    def test_run_started_provenance_header(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.run_started(
            command="table1", argv=["table1", "--jobs", "2"], params={"jobs": 2}, jobs=2
        )
        ledger.run_finished(status=0)
        started, finished = read_ledger(ledger_path)
        assert started["command"] == "table1"
        assert started["argv"] == ["table1", "--jobs", "2"]
        assert started["params"] == {"jobs": 2}
        assert started["pid"] == os.getpid()
        assert started["cpu_count"] == os.cpu_count()
        assert started["host"]
        assert started["git_rev"]
        assert finished["type"] == "run_finished"

    def test_terminal_record_written_once(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.run_started(command="x")
        ledger.run_finished(status=0)
        ledger.run_failed(RuntimeError("late"))  # ignored: already closed
        ledger.run_finished(status=0)  # ignored too
        types = [r["type"] for r in read_ledger(ledger_path)]
        assert types == ["run_started", "run_finished"]

    def test_run_failed_carries_traceback(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.run_started(command="x")
        try:
            raise ValueError("boom from test")
        except ValueError as exc:
            ledger.run_failed(exc, metrics={"eas.commits": 3.0})
        _, failed = read_ledger(ledger_path)
        assert failed["error"] == "ValueError: boom from test"
        assert "Traceback" in failed["traceback"]
        assert "boom from test" in failed["traceback"]
        assert failed["metrics"] == {"eas.commits": 3.0}

    def test_buffered_mode_never_touches_disk(self, tmp_path):
        ledger = RunLedger(None)
        ledger.phase("cell", tag="a")
        ledger.phase("cell", tag="b")
        assert [r["tag"] for r in ledger.buffered] == ["a", "b"]
        assert list(tmp_path.iterdir()) == []

    def test_absorb_appends_worker_records_verbatim(self, ledger_path):
        parent = RunLedger(ledger_path)
        worker = RunLedger(None, run_id=parent.run_id)
        worker.phase("cell", tag="w0")
        parent.absorb(worker.buffered)
        (record,) = read_ledger(ledger_path)
        assert record["tag"] == "w0"
        assert record["run_id"] == parent.run_id

    def test_unwritable_path_degrades_without_raising(self, tmp_path):
        ledger = RunLedger(tmp_path)  # a directory: open() for append fails
        ledger.phase("cell")
        ledger.phase("cell")
        assert ledger.io_errors >= 1

    def test_run_ids_are_unique(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64


class TestCrashSafety:
    def test_torn_last_line_is_skipped(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.run_started(command="x")
        ledger.phase("cell", tag="ok")
        with open(ledger_path, "a") as handle:
            handle.write('{"type": "phase", "run_id": "x", "trunc')  # killed mid-write
        records = read_ledger(ledger_path)
        assert [r["type"] for r in records] == ["run_started", "phase"]

    def test_non_utf8_line_is_skipped(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.run_started(command="x")
        with open(ledger_path, "ab") as handle:
            handle.write(b'{"type":"phase","name":"\xc3\n')  # a lone UTF-8 lead byte
        ledger.phase("cell", tag="ok")
        records = read_ledger(ledger_path)
        assert [r["type"] for r in records] == ["run_started", "phase"]
        assert records[1]["tag"] == "ok"

    def test_non_finite_constant_line_is_skipped(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.run_started(command="x")
        with open(ledger_path, "a") as handle:
            handle.write('{"type": "run_finished", "wall_seconds": NaN}\n')
        assert [r["type"] for r in read_ledger(ledger_path)] == ["run_started"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_ledger(tmp_path / "nope.jsonl") == []

    def test_atexit_marks_abandoned_run_failed(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.run_started(command="x")
        ledger._atexit_close()  # what atexit would invoke on interpreter exit
        _, terminal = read_ledger(ledger_path)
        assert terminal["type"] == "run_failed"
        assert "without a terminal record" in terminal["reason"]

    def test_atexit_noop_after_clean_finish(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.run_started(command="x")
        ledger.run_finished(status=0)
        ledger._atexit_close()
        assert [r["type"] for r in read_ledger(ledger_path)] == [
            "run_started",
            "run_finished",
        ]

    def test_process_exiting_mid_run_leaves_run_failed(self, ledger_path):
        """The real atexit path: a subprocess opens a run, then exits
        without ever writing a terminal record.  The interpreter's
        atexit machinery must leave the ``run_failed`` fallback."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.obs.ledger import RunLedger\n"
            f"ledger = RunLedger({str(ledger_path)!r}, run_id='abandoned')\n"
            "ledger.run_started(command='fig5')\n"
            "ledger.phase('cell', tag='half-done')\n"
            "sys.exit(3)  # bail mid-run: no run_finished/run_failed\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        records = read_ledger(ledger_path)
        assert [r["type"] for r in records] == ["run_started", "phase", "run_failed"]
        terminal = records[-1]
        assert terminal["run_id"] == "abandoned"
        assert "without a terminal record" in terminal["reason"]


def _append_from_process(path, worker, count):
    ledger = RunLedger(path, run_id=f"run-{worker}")
    for i in range(count):
        ledger.phase("cell", tag=f"{worker}:{i}")


class TestConcurrency:
    def test_concurrent_writers_interleave_whole_lines(self, ledger_path):
        workers = 4
        count = 25
        processes = [
            multiprocessing.Process(
                target=_append_from_process, args=(ledger_path, w, count)
            )
            for w in range(workers)
        ]
        for p in processes:
            p.start()
        for p in processes:
            p.join()
        assert all(p.exitcode == 0 for p in processes)
        records = read_ledger(ledger_path)
        assert len(records) == workers * count
        # every line parsed (no torn interleavings), nothing dropped
        tags = {r["tag"] for r in records}
        assert len(tags) == workers * count


class TestGrouping:
    def test_group_runs_partitions_by_run_id(self, ledger_path):
        a = RunLedger(ledger_path, run_id="run-a")
        a.run_started(command="fig5")
        a.phase("cell", tag="0")
        a.run_finished(status=0)
        b = RunLedger(ledger_path, run_id="run-b")
        b.run_started(command="table1")
        runs = group_runs(read_ledger(ledger_path))
        assert set(runs) == {"run-a", "run-b"}
        assert runs["run-a"]["terminal"]["type"] == "run_finished"
        assert len(runs["run-a"]["phases"]) == 1
        assert runs["run-b"]["terminal"] is None  # still open

    def test_iter_failures_joins_start_context(self, ledger_path):
        ledger = RunLedger(ledger_path, run_id="run-f")
        ledger.run_started(command="schedule", argv=["schedule", "--system", "encoder"])
        try:
            raise RuntimeError("worker hung")
        except RuntimeError as exc:
            ledger.run_failed(exc)
        (failure,) = iter_failures(read_ledger(ledger_path))
        assert failure["run_id"] == "run-f"
        assert failure["command"] == "schedule"
        assert failure["argv"] == ["schedule", "--system", "encoder"]
        assert "worker hung" in failure["error"]


class TestPruning:
    def _three_runs(self, ledger_path):
        for run_id in ("run-1", "run-2", "run-3"):
            ledger = RunLedger(ledger_path, run_id=run_id)
            ledger.run_started(command="fig5")
            ledger.phase("cell", tag=run_id)
            ledger.run_finished(status=0)

    def test_keeps_last_n_runs(self, ledger_path):
        self._three_runs(ledger_path)
        stats = prune_ledger(ledger_path, 2)
        assert stats == {
            "runs_before": 3,
            "runs_kept": 2,
            "records_before": 9,
            "records_kept": 6,
        }
        runs = group_runs(read_ledger(ledger_path))
        assert list(runs) == ["run-2", "run-3"]
        # Surviving records are intact, in original order.
        assert [r["type"] for r in runs["run-2"].values() if isinstance(r, dict)]

    def test_keep_zero_empties_and_larger_keep_is_noop(self, ledger_path):
        self._three_runs(ledger_path)
        before = read_ledger(ledger_path)
        prune_ledger(ledger_path, 10)
        assert read_ledger(ledger_path) == before
        prune_ledger(ledger_path, 0)
        assert read_ledger(ledger_path) == []

    def test_negative_keep_rejected(self, ledger_path):
        from repro.errors import LedgerError

        self._three_runs(ledger_path)
        with pytest.raises(LedgerError):
            prune_ledger(ledger_path, -1)

    def test_prune_drops_torn_lines(self, ledger_path):
        self._three_runs(ledger_path)
        with open(ledger_path, "a") as handle:
            handle.write('{"type": "phase", "trunc')
        prune_ledger(ledger_path, 3)
        assert len(read_ledger(ledger_path)) == 9

    def test_appends_after_prune_still_work(self, ledger_path):
        self._three_runs(ledger_path)
        prune_ledger(ledger_path, 1)
        ledger = RunLedger(ledger_path, run_id="run-4")
        ledger.run_started(command="table1")
        ledger.run_finished(status=0)
        assert list(group_runs(read_ledger(ledger_path))) == ["run-3", "run-4"]

    def test_size_helper(self, ledger_path, tmp_path):
        assert ledger_size_bytes(tmp_path / "nope.jsonl") == 0
        self._three_runs(ledger_path)
        assert ledger_size_bytes(ledger_path) == os.path.getsize(ledger_path)

    def test_cli_report_prune_ledger(self, ledger_path, monkeypatch, capsys):
        self._three_runs(ledger_path)
        monkeypatch.setenv("REPRO_LEDGER", str(ledger_path))
        assert main(["report", "--prune-ledger", "1"]) == 0
        captured = capsys.readouterr()
        assert "ledger pruned: kept 1/3 runs" in captured.err
        # The reporting run itself appends after the prune, so the file
        # now holds the survivor plus the report invocation's own run.
        runs = group_runs(read_ledger(ledger_path))
        assert "run-3" in runs
        assert "run-1" not in runs and "run-2" not in runs


class TestPathResolution:
    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert resolve_ledger_path() is None

    def test_explicit_override_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert resolve_ledger_path(str(tmp_path / "l.jsonl")) is not None

    def test_default_is_repo_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        path = resolve_ledger_path()
        assert path.name == "RUN_LEDGER.jsonl"
        assert (path.parent / "pyproject.toml").exists()


class TestEnvironment:
    def test_git_rev_resolves_in_repo(self):
        rev = current_git_rev()
        assert rev  # "unknown" outside a repo, a short hash inside

    def test_git_rev_unknown_outside_repo(self, tmp_path):
        assert current_git_rev(tmp_path / "nowhere") == "unknown"


class TestCliIntegration:
    def test_every_invocation_opens_and_closes_a_run(self, ledger_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", str(ledger_path))
        assert main(["schedule", "--system", "encoder", "--clip", "akiyo"]) == 0
        records = read_ledger(ledger_path)
        types = [r["type"] for r in records]
        assert types[0] == "run_started"
        assert types[-1] == "run_finished"
        started = records[0]
        assert started["command"] == "schedule"
        assert started["params"]["system"] == "encoder"
        assert started["params"]["clip"] == "akiyo"
        assert started["params"]["eas_config"]["repair"] is True
        finished = records[-1]
        assert finished["status"] == 0
        assert finished["wall_seconds"] > 0
        assert finished["metrics"]["eas.commits"] > 0

    def test_ledger_off_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        monkeypatch.chdir(tmp_path)
        assert main(["schedule", "--system", "decoder"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_explicit_ledger_flag_wins(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        target = tmp_path / "explicit.jsonl"
        assert main(["table2", "--ledger", str(target)]) == 0
        assert read_ledger(target)[0]["command"] == "table2"

    def test_unwritable_explicit_ledger_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "file"
        bad.write_text("occupied")
        assert main(["table2", "--ledger", str(bad / "sub.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "repro-noc: error: cannot write run ledger" in err
        assert "Traceback" not in err

    def test_pooled_grid_reconstructs_from_ledger(self, ledger_path, monkeypatch, capsys):
        """Acceptance: table1 --jobs 2 --heartbeat leaves a full grid."""
        monkeypatch.setenv("REPRO_LEDGER", str(ledger_path))
        assert main(["table1", "--jobs", "2", "--heartbeat", "0.05"]) == 0
        records = read_ledger(ledger_path)
        started = records[0]
        assert started["type"] == "run_started"
        assert started["jobs"] == 2
        cells = [r for r in records if r["type"] == "phase" and r["name"] == "cell"]
        # 3 clips x 2 schedulers, every cell with its construction seeds
        # and worker-measured runtime.
        assert sorted(c["tag"] for c in cells) == sorted(
            f"encoder[{clip}]:{sched}"
            for clip in ("akiyo", "foreman", "toybox")
            for sched in ("eas", "edf")
        )
        for cell in cells:
            assert cell["run_id"] == started["run_id"]
            assert cell["runtime_seconds"] > 0
            assert cell["spec"]["system"] == "encoder"
            assert cell["spec"]["clip"] in ("akiyo", "foreman", "toybox")
        assert any(r["type"] == "heartbeat" for r in records)
        assert records[-1]["type"] == "run_finished"
        assert json.dumps(records[-1]["top_phases"])  # JSON-clean span summary

    def test_cell_records_identical_across_jobs(self, tmp_path, monkeypatch, capsys):
        """One worker and two leave the same cells, in the same order."""
        cells = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            monkeypatch.setenv("REPRO_LEDGER", str(path))
            assert main(["table2", "--jobs", str(jobs)]) == 0
            cells[jobs] = [
                (r["tag"], r["spec"])
                for r in read_ledger(path)
                if r["type"] == "phase" and r["name"] == "cell"
            ]
        assert len(cells[1]) == 6
        assert cells[1] == cells[2]
        assert cells[1][0][0] == "decoder[akiyo]:eas"
