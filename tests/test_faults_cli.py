"""Tests for the faults/validate CLI surface and the report section."""

import json

import pytest

from repro.cli import main
from repro.faults.plan import FaultPlan, LinkFault, TransientFault
from repro.obs.ledger import read_ledger


BENCH = ["--system", "random", "--n-tasks", "20"]


class TestFaultsCommand:
    def test_bare_faults_prints_help(self, capsys):
        assert main(["faults"]) == 2
        assert "inject" in capsys.readouterr().out

    def test_inject_generated_plan(self, capsys):
        assert main(["faults", "inject", *BENCH, "--kind", "pe"]) == 0
        out = capsys.readouterr().out
        assert "fault time t=" in out
        assert "verdict" in out
        assert "utilization:" in out

    def test_inject_dvs_schedule(self, capsys):
        """DVS stretches tasks past their cost-table durations, so the
        committed schedule is checked before that post-pass."""
        assert main(["faults", "inject", *BENCH, "--kind", "pe", "--dvs"]) == 0
        captured = capsys.readouterr()
        assert "verdict" in captured.out
        assert captured.err == ""

    def test_inject_save_and_validate_roundtrip(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        rec_path = tmp_path / "recovery.json"
        assert (
            main(
                [
                    "faults",
                    "inject",
                    *BENCH,
                    "--kind",
                    "transient",
                    "--simulate",
                    "--save",
                    str(rec_path),
                    "--save-plan",
                    str(plan_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "flit-level delivery confirmed" in out
        assert plan_path.exists() and rec_path.exists()
        # The saved plan is a valid schema document.
        doc = json.loads(plan_path.read_text())
        assert doc["format"] == "repro-fault-plan"
        # The recovery schedule passes the validate subcommand.
        assert main(["validate", str(rec_path), *BENCH]) == 0
        assert "validate: PASS" in capsys.readouterr().out

    def test_inject_reads_saved_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert (
            main(
                ["faults", "inject", *BENCH, "--kind", "link",
                 "--save-plan", str(plan_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["faults", "inject", *BENCH, "--plan", str(plan_path)]) == 0
        assert "link" in capsys.readouterr().out

    def test_inject_missing_plan_file(self, capsys):
        assert main(["faults", "inject", *BENCH, "--plan", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(name="bad-cut", link_faults=(LinkFault((0, 0), (1, 1), 1.0),)),
            FaultPlan(
                name="bad-transient",
                transient_faults=(TransientFault((0, 0), (3, 3), 1.0, 2.0),),
            ),
        ],
        ids=["cut", "transient"],
    )
    def test_inject_plan_with_missing_channel_fails(
        self, plan, tmp_path, capsys, monkeypatch
    ):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text(plan.to_json())
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        assert main(["faults", "inject", *BENCH, "--plan", str(plan_path)]) == 1
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        fault = (plan.link_faults + plan.transient_faults)[0]
        message = (
            f"plan {plan.name!r}: channel {fault.src}<->{fault.dst} "
            "is not a link of the platform"
        )
        assert captured.err == f"repro-noc: error: {message}\n"
        terminal = read_ledger(ledger)[-1]
        assert terminal["type"] == "run_failed"
        assert terminal["error"] == f"ArchitectureError: {message}"

    @pytest.mark.parametrize(
        "fault",
        ['{"pe": 3, "time": NaN}', '{"pe": 3, "time": Infinity}',
         '{"pe": 3.7, "time": 1.0}', '{"pe": "3", "time": 1.0}', '{"pe": true, "time": 1.0}',
         '{"pe": -1, "time": 1.0}', '{"pe": 3, "time": true}', '{"pe": 3, "time": "5"}'],
        ids=["nan-time", "inf-time", "fractional-pe", "string-pe", "bool-pe", "negative-pe",
             "bool-time", "string-time"],
    )
    def test_inject_malformed_plan_fails_in_one_line(self, fault, tmp_path, capsys):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text(
            '{"format": "repro-fault-plan", "version": 1, "name": "bad", '
            f'"pe_faults": [{fault}]}}'
        )
        assert main(["faults", "inject", *BENCH, "--plan", str(plan_path)]) == 1
        captured = capsys.readouterr()
        assert "SURVIVED" not in captured.out and "verdict" not in captured.out
        assert captured.err.startswith("repro-noc: error: plan 'bad': ")
        assert captured.err.count("\n") == 1

    def test_sweep_text_output(self, capsys):
        assert (
            main(["faults", "sweep", *BENCH, "--plans", "3", "--fault-seed", "1"])
            == 0
        )
        out = capsys.readouterr().out
        assert "fault sweep" in out
        assert "survived" in out

    def test_sweep_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "faults",
                    "sweep",
                    *BENCH,
                    "--plans",
                    "3",
                    "--format",
                    "json",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["format"] == "repro-fault-sweep"
        assert len(doc["plans"]) == 3

    def test_sweep_bad_kinds(self, capsys):
        assert main(["faults", "sweep", *BENCH, "--kinds", "bogus"]) == 1
        assert "error" in capsys.readouterr().err


class TestValidateCommand:
    def test_validate_healthy_schedule(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        assert main(["schedule", *BENCH, "--save", str(path)]) == 0
        capsys.readouterr()
        assert main(["validate", str(path), *BENCH]) == 0
        assert "validate: PASS" in capsys.readouterr().out

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.json", *BENCH]) == 1
        assert "validate: FAIL" in capsys.readouterr().out

    def test_validate_tampered_schedule_fails(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        assert main(["schedule", *BENCH, "--save", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        # Fabricate an impossible transaction window on the first
        # network transaction: flit-level replay must reject it.
        moving = [c for c in doc["comms"] if c["links"]]
        if not moving:
            pytest.skip("no network traffic in this instance")
        moving[0]["finish"] = moving[0]["start"]
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path), *BENCH, "--slack-hops-factor", "0"]) == 1
        assert "validate: FAIL" in capsys.readouterr().out

    def _saved(self, tmp_path, capsys, *flags):
        path = tmp_path / "sched.json"
        assert main(["schedule", *BENCH, *flags, "--save", str(path)]) == 0
        capsys.readouterr()
        return path, json.loads(path.read_text())

    def _fails_once(self, path, doc, capsys):
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path), *BENCH]) == 1
        out = capsys.readouterr().out
        assert out.count("validate: FAIL") == 1 and "PASS" not in out
        return out

    def test_validate_zeroed_energies_fails(self, tmp_path, capsys):
        path, doc = self._saved(tmp_path, capsys)
        for entry in doc["tasks"] + doc["comms"]:
            entry["energy"] = 0.0
        assert "!= Eq. 2 energy" in self._fails_once(path, doc, capsys)

    def test_validate_remote_transfer_rewritten_as_local_fails(self, tmp_path, capsys):
        path, doc = self._saved(tmp_path, capsys)
        comm = next(c for c in doc["comms"] if c["links"])
        comm.update(dst_pe=comm["src_pe"], links=[], finish=comm["start"], energy=0.0)
        assert "not between its tasks' PEs" in self._fails_once(path, doc, capsys)

    def test_validate_dvs_schedule_passes(self, tmp_path, capsys):
        # DVS scales task energies and durations but no transaction.
        path, _doc = self._saved(tmp_path, capsys, "--dvs")
        assert main(["validate", str(path), *BENCH]) == 0
        assert "validate: PASS" in capsys.readouterr().out

    def test_validate_wrong_benchmark_fails(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        assert main(["schedule", *BENCH, "--save", str(path)]) == 0
        capsys.readouterr()
        assert main(["validate", str(path), "--system", "encoder"]) == 1
        assert "validate: FAIL" in capsys.readouterr().out


class TestLedgerAndReport:
    def test_sweep_ledgers_fault_plans_and_report_shows_them(
        self, tmp_path, capsys, monkeypatch
    ):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        assert (
            main(
                ["faults", "sweep", *BENCH, "--plans", "3",
                 "--ledger", str(ledger)]
            )
            == 0
        )
        capsys.readouterr()
        records = [
            json.loads(line) for line in ledger.read_text().splitlines() if line
        ]
        fault_rows = [
            r for r in records if r.get("type") == "phase" and r.get("name") == "fault_plan"
        ]
        assert len(fault_rows) == 3
        assert main(["report", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "fault survivability" in out
        assert "3 plans injected" in out

    def test_report_json_contains_survivability(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert (
            main(
                ["faults", "sweep", *BENCH, "--plans", "3",
                 "--ledger", str(ledger)]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                ["report", "--format", "json", "--ledger", str(ledger)]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        surv = doc["survivability"]
        assert surv["plans"] == 3
        assert set(surv["by_kind"]) <= {"pe", "link", "transient"}

    @staticmethod
    def _fault_plan_records(ledger):
        return [
            r
            for r in read_ledger(ledger)
            if r.get("type") == "phase" and r.get("name") == "fault_plan"
        ]

    def test_inject_ledgers_its_plan(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert (
            main(["faults", "inject", *BENCH, "--kind", "pe", "--ledger", str(ledger)])
            == 0
        )
        out = capsys.readouterr().out
        (record,) = self._fault_plan_records(ledger)
        assert out.startswith(f"fault: {record['plan']}: ")
        assert record["tag"] == record["plan"]
        assert record["kind"] == "pe"
        verdict = "SURVIVED" if record["survived"] else "DEGRADED"
        assert f"verdict  : {verdict}" in out
        assert (
            main(
                ["report", "--format", "json", "--ledger", str(ledger)]
            )
            == 0
        )
        surv = json.loads(capsys.readouterr().out)["survivability"]
        assert surv["plans"] == 1
        assert surv["survived"] == int(record["survived"])

    def test_unsurvivable_inject_ledgers_and_fails(self, tmp_path, capsys, monkeypatch):
        from repro.faults import sweep
        from repro.faults.recovery import UnsurvivableFaultError

        def no_recovery(committed, plan, config=None):
            raise UnsurvivableFaultError(f"plan {plan.name!r}: no live host")

        monkeypatch.setattr(sweep, "inject_and_recover", no_recovery)
        ledger = tmp_path / "ledger.jsonl"
        assert (
            main(["faults", "inject", *BENCH, "--kind", "pe", "--ledger", str(ledger)])
            == 1
        )
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        (record,) = self._fault_plan_records(ledger)
        message = f"plan {record['plan']!r}: no live host"
        assert captured.err == f"repro-noc: error: {message}\n"
        assert record["recovered"] is False
        assert record["survived"] is False
        assert record["reason"] == message
        assert read_ledger(ledger)[-1]["type"] == "run_failed"
