"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro-noc" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE1" in out
        for clip in ("akiyo", "foreman", "toybox"):
            assert clip in out
        assert "savings" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "decoder" in capsys.readouterr().out


class TestFigures:
    def test_fig5_small(self, capsys):
        assert main(["fig5", "--n-tasks", "25", "--benchmarks", "2"]) == 0
        out = capsys.readouterr().out
        assert "FIG5" in out
        assert "cat1-0" in out and "cat1-1" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--steps", "2", "--max-ratio", "1.2"]) == 0
        out = capsys.readouterr().out
        assert "FIG7" in out
        assert "1.2" in out


class TestScheduleCommand:
    def test_schedule_encoder(self, capsys):
        assert main(["schedule", "--system", "encoder", "--clip", "akiyo"]) == 0
        out = capsys.readouterr().out
        assert "Gantt" in out
        assert "misses=0" in out

    def test_schedule_random_edf(self, capsys):
        assert (
            main(
                [
                    "schedule",
                    "--system",
                    "random",
                    "--algorithm",
                    "edf",
                    "--n-tasks",
                    "20",
                ]
            )
            == 0
        )
        assert "Gantt" in capsys.readouterr().out

    def test_schedule_with_links(self, capsys):
        assert main(["schedule", "--system", "decoder", "--links"]) == 0
        out = capsys.readouterr().out
        assert "->" in out  # link rows present

    def test_schedule_with_dvs_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "schedule.json"
        assert (
            main(
                ["schedule", "--system", "decoder", "--dvs", "--save", str(out_file)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "DVS" in out
        assert out_file.exists()
        # The saved schedule round-trips.
        from repro.arch.presets import mesh_2x2
        from repro.ctg.multimedia import av_decoder_ctg
        from repro.schedule.serialization import schedule_from_json

        restored = schedule_from_json(
            out_file.read_text(), av_decoder_ctg("foreman"), mesh_2x2()
        )
        assert restored.is_complete


    @pytest.mark.parametrize(
        "switch", ["--no-eval-cache", "--no-path-cache", "--no-incremental-repair"]
    )
    def test_reference_switches_are_gone(self, switch, capsys):
        # The paper-literal paths live in repro.core.reference, not the CLI.
        with pytest.raises(SystemExit):
            main(["schedule", "--system", "decoder", switch])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRepairStarts:
    """``--repair-starts K`` > 1 runs the Step-3 portfolio, which only EAS has."""

    #: EAS-base misses one deadline here; EAS's repair clears it.
    ARGV = ["schedule", "--system", "random", "--category", "2", "--index", "5", "--n-tasks", "40"]

    def test_eas_runs_the_portfolio(self, capsys):
        assert main(self.ARGV + ["--algorithm", "eas", "--repair-starts", "2"]) == 0
        captured = capsys.readouterr()
        assert "repair portfolio: 2 start(s)" in captured.err
        assert "Schedule[eas] of cat2-5" in captured.out
        assert "misses=0" in captured.out

    def test_eas_base_rejects_k_above_one(self, capsys):
        assert main(self.ARGV + ["--algorithm", "eas-base"]) == 0
        assert "misses=1" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGV + ["--algorithm", "eas-base", "--repair-starts", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--repair-starts 2" in err and "(got eas-base)" in err

    def test_edf_rejects_k_above_one(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGV + ["--algorithm", "edf", "--repair-starts", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--repair-starts 2" in err and "(got edf)" in err

    @pytest.mark.parametrize("k", ["0", "-4"])
    def test_k_below_one_is_a_parse_error(self, capsys, k):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGV + ["--algorithm", "eas", "--repair-starts", k])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument --repair-starts: K must be >= 1, got {k}" in captured.err
        assert captured.out == ""


class TestAnalysisCommands:
    def test_compare(self, capsys):
        assert main(["compare", "--system", "encoder", "--clip", "akiyo"]) == 0
        out = capsys.readouterr().out
        assert "total energy" in out
        assert "PE utilisation" in out

    def test_optimal(self, capsys):
        assert main(["optimal", "--n-tasks", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out and "EAS" in out

    def test_export_ctg(self, capsys, tmp_path):
        out_file = tmp_path / "ctg.json"
        assert main(["export-ctg", str(out_file), "--n-tasks", "20"]) == 0
        from repro.ctg.serialization import ctg_from_json

        restored = ctg_from_json(out_file.read_text())
        assert restored.n_tasks == 20
