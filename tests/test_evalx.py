"""Tests for the evaluation harness (experiments + reporting)."""

import math

import pytest

from repro import obs
from repro.evalx.experiments import (
    ExperimentRow,
    FigureSeries,
    average_extra_energy_pct,
    default_n_tasks,
    run_fig7,
    run_msb_table,
    run_random_category,
    run_repair_runtime,
)
from repro.evalx.reporting import format_figure, format_table
from repro.obs.ledger import RunLedger, read_ledger
from repro.parallel.pool import JOBS_ENV_VAR


class TestRandomCategoryRunner:
    def test_small_run_shape(self):
        rows = run_random_category(1, n_benchmarks=2, n_tasks=30)
        assert len(rows) == 2
        for row in rows:
            assert set(row.energies) == {"eas-base", "eas", "edf"}
            assert all(e > 0 for e in row.energies.values())
            # EAS with repair never misses more than EAS-base.
            assert row.misses["eas"] <= row.misses["eas-base"]

    def test_edf_loses_on_energy(self):
        rows = run_random_category(1, n_benchmarks=3, n_tasks=40)
        assert average_extra_energy_pct(rows, "edf", "eas") > 0

    def test_scheduler_subset(self):
        rows = run_random_category(1, n_benchmarks=1, n_tasks=20, schedulers=["edf"])
        assert set(rows[0].energies) == {"edf"}

    def test_progress_callback(self):
        messages = []
        run_random_category(1, n_benchmarks=1, n_tasks=20, progress=messages.append)
        assert len(messages) == 1

    def test_default_n_tasks_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert default_n_tasks() == 150
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_n_tasks() == 500


class TestMSBRunner:
    def test_encoder_rows(self):
        rows = run_msb_table("encoder", clips=["akiyo", "foreman"])
        assert [r.benchmark for r in rows] == ["akiyo", "foreman"]
        for row in rows:
            assert row.savings_pct("eas", "edf") > 0
            assert row.extras["eas:comp"] + row.extras["eas:comm"] == pytest.approx(
                row.energies["eas"]
            )

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            run_msb_table("transcoder")

    def test_decoder_and_integrated_meet_deadlines(self):
        for system in ("decoder", "integrated"):
            rows = run_msb_table(system, clips=["foreman"])
            assert rows[0].misses == {"eas": 0, "edf": 0}


class TestFig7Runner:
    def test_series_shape(self):
        figure = run_fig7(ratios=(1.0, 1.3))
        assert figure.x_values == [1.0, 1.3]
        assert set(figure.series) == {"eas", "edf"}
        assert len(figure.series["eas"]) == 2

    def test_eas_energy_nondecreasing_with_pressure(self):
        figure = run_fig7(ratios=(1.0, 1.4))
        eas = figure.series["eas"]
        if not any(math.isnan(v) for v in eas):
            assert eas[1] >= eas[0] - 1e-6


class TestFig7Grid:
    """Fig. 7 runs on the pooled grid engine like every other paper grid."""

    @staticmethod
    def _points(figure):
        # NaN != NaN, so compare the miss positions explicitly.
        return {
            name: [None if math.isnan(v) else v for v in values]
            for name, values in figure.series.items()
        }

    def test_series_identical_across_jobs(self, monkeypatch):
        points = []
        for jobs in ("1", "2"):
            monkeypatch.setenv(JOBS_ENV_VAR, jobs)
            points.append(self._points(run_fig7(ratios=(1.0, 1.3, 1.6))))
        assert points[0] == points[1]

    def test_cells_ledger_their_deadline_scale(self, tmp_path):
        ratios = (1.0, 1.6)
        bundle = obs.Instrumentation.disabled()
        bundle.ledger = RunLedger(tmp_path / "ledger.jsonl")
        with obs.activate(bundle):
            figure = run_fig7(ratios=ratios)
        cells = [r for r in read_ledger(bundle.ledger.path) if r["name"] == "cell"]
        grid = [(i, r, name) for i, r in enumerate(ratios) for name in ("eas", "edf")]
        assert [c["tag"] for c in cells] == [f"fig7[{r:g}]:{name}" for _, r, name in grid]
        for (i, ratio, name), cell in zip(grid, cells):
            assert cell["spec"]["deadline_scale"] == 1.0 / ratio
            value = figure.series[name][i]
            assert (math.isnan(value) and cell["misses"]) or value == cell["energy"]


class TestRepairRuntimeRunner:
    def test_rows_only_for_missy_benchmarks(self):
        rows = run_repair_runtime(category=2, n_benchmarks=4, n_tasks=60)
        for row in rows:
            assert row.misses["eas-base"] > 0
            assert row.runtimes["eas"] >= row.runtimes["eas-base"]


class TestRowHelpers:
    def test_ratio_and_savings(self):
        row = ExperimentRow(
            benchmark="b", energies={"eas": 50.0, "edf": 100.0}, misses={}
        )
        assert row.ratio("edf", "eas") == 2.0
        assert row.savings_pct("eas", "edf") == 50.0

    def test_average_extra_energy(self):
        rows = [
            ExperimentRow(benchmark="x", energies={"eas": 1.0, "edf": 1.5}, misses={}),
            ExperimentRow(benchmark="y", energies={"eas": 1.0, "edf": 2.5}, misses={}),
        ]
        assert average_extra_energy_pct(rows, "edf", "eas") == pytest.approx(100.0)


class TestReporting:
    def _rows(self):
        return [
            ExperimentRow(
                benchmark="akiyo",
                energies={"eas": 100.0, "edf": 200.0},
                misses={"eas": 0, "edf": 0},
                extras={"eas:hops": 1.5},
            ),
            ExperimentRow(
                benchmark="foreman",
                energies={"eas": 150.0, "edf": 250.0},
                misses={"eas": 0, "edf": 2},
                extras={"eas:hops": 1.8},
            ),
        ]

    def test_table_contains_all_rows_and_savings(self):
        text = format_table(self._rows(), "TAB", better="eas", worse="edf")
        assert "akiyo" in text and "foreman" in text
        assert "savings" in text
        assert "mean savings" in text
        assert "50.0" in text  # akiyo saves 50%

    def test_table_miss_column_appears_when_needed(self):
        text = format_table(self._rows(), "TAB")
        assert "edf:2" in text

    def test_table_extra_columns(self):
        text = format_table(self._rows(), "TAB", extra_columns=("eas:hops",))
        assert "1.5" in text and "1.8" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], "TAB")

    def test_figure_formatting(self):
        figure = FigureSeries(
            x_label="ratio",
            x_values=[1.0, 1.2],
            series={"eas": [10.0, float("nan")], "edf": [20.0, 21.0]},
        )
        text = format_figure(figure, "FIG")
        assert "ratio" in text
        assert "miss" in text  # NaN rendering
        assert "21" in text
