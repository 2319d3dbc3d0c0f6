"""Tests for schedule comparison and utilisation analysis."""

import pytest

from repro.arch.presets import mesh_2x2
from repro.baselines.edf import edf_schedule
from repro.core.eas import eas_schedule
from repro.ctg.multimedia import av_decoder_ctg, av_encoder_ctg
from repro.errors import ReproError
from repro.evalx.analysis import (
    compare_schedules,
    utilization_table,
)


@pytest.fixture
def schedules():
    ctg = av_encoder_ctg("foreman")
    acg = mesh_2x2()
    return eas_schedule(ctg, acg), edf_schedule(ctg, acg)


class TestCompareSchedules:
    def test_decomposition_adds_up(self, schedules):
        eas, edf = schedules
        cmp = compare_schedules(eas, edf)
        assert cmp.energy_a == pytest.approx(cmp.computation_a + cmp.communication_a)
        assert cmp.energy_b == pytest.approx(cmp.computation_b + cmp.communication_b)
        assert cmp.n_tasks == 24

    def test_savings_sign(self, schedules):
        eas, edf = schedules
        cmp = compare_schedules(eas, edf)
        assert cmp.savings_pct > 0  # EAS saves vs EDF
        reverse = compare_schedules(edf, eas)
        assert reverse.savings_pct < 0

    def test_moved_tasks_counted(self, schedules):
        eas, edf = schedules
        cmp = compare_schedules(eas, edf)
        assert 0 < cmp.moved_tasks <= cmp.n_tasks
        identity = compare_schedules(eas, eas)
        assert identity.moved_tasks == 0
        assert identity.savings_pct == 0.0

    def test_different_apps_rejected(self, schedules):
        eas, _edf = schedules
        other_ctg = av_decoder_ctg("foreman")
        other = eas_schedule(other_ctg, mesh_2x2())
        with pytest.raises(ReproError):
            compare_schedules(eas, other)

    def test_describe_mentions_all_sections(self, schedules):
        eas, edf = schedules
        text = compare_schedules(eas, edf).describe()
        for needle in ("total energy", "computation", "communication", "hops", "makespan"):
            assert needle in text


class TestUtilizationTable:
    def test_one_row_per_pe(self, schedules):
        eas, _edf = schedules
        text = utilization_table(eas)
        assert text.count("PE ") >= 4 or text.count("PE") >= 4
        lines = text.splitlines()
        assert len(lines) == 1 + eas.acg.n_pes

    def test_task_counts_sum(self, schedules):
        eas, _edf = schedules
        text = utilization_table(eas)
        counts = [
            int(line.split(":")[1].split("tasks")[0].strip())
            for line in text.splitlines()[1:]
        ]
        assert sum(counts) == 24

    def test_utilisation_bounded(self, schedules):
        import re

        eas, _edf = schedules
        text = utilization_table(eas)
        percents = [float(m) for m in re.findall(r"\(\s*([\d.]+)%\)", text)]
        assert len(percents) == eas.acg.n_pes
        for pct in percents:
            assert 0.0 <= pct <= 100.0 + 1e-6
