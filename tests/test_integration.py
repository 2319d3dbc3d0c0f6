"""End-to-end integration tests reproducing the paper's headline claims
at test-friendly scale.  These are the repository's acceptance tests:
if one of them fails, the reproduction has lost a paper-level property.
"""

import math

import pytest

from repro.arch.presets import mesh_2x2, mesh_3x3, mesh_4x4
from repro.baselines.edf import edf_schedule
from repro.core.eas import EASConfig, eas_base_schedule, eas_schedule
from repro.core.slack import weight_uniform
from repro.ctg.generator import generate_category
from repro.ctg.multimedia import CLIP_NAMES, av_decoder_ctg, av_encoder_ctg, av_integrated_ctg
from repro.evalx.experiments import average_extra_energy_pct, run_fig7, run_random_category
from repro.sim.replay import simulate_schedule


class TestHeadlineEnergySavings:
    """Sec. 6: EAS saves substantial energy vs EDF while meeting deadlines."""

    def test_random_graphs_eas_beats_edf(self):
        rows = run_random_category(1, n_benchmarks=3, n_tasks=60)
        extra = average_extra_energy_pct(rows, "edf", "eas")
        # Paper: +55 % for category I; accept anything clearly positive.
        assert extra > 15.0

    def test_tight_deadlines_shrink_the_gap(self):
        """Category II (tight) must leave EAS less room than category I."""
        loose = run_random_category(1, n_benchmarks=3, n_tasks=60, schedulers=["eas", "edf"])
        tight = run_random_category(2, n_benchmarks=3, n_tasks=60, schedulers=["eas", "edf"])
        gap_loose = average_extra_energy_pct(loose, "edf", "eas")
        gap_tight = average_extra_energy_pct(tight, "edf", "eas")
        assert gap_tight < gap_loose

    @pytest.mark.parametrize("clip", CLIP_NAMES)
    def test_encoder_table1_savings(self, clip):
        ctg = av_encoder_ctg(clip)
        acg = mesh_2x2()
        eas = eas_schedule(ctg, acg)
        edf = edf_schedule(ctg, acg)
        assert eas.meets_deadlines
        savings = 100.0 * (edf.total_energy() - eas.total_energy()) / edf.total_energy()
        # Paper reports ~44 % average on this system.
        assert savings > 25.0

    def test_decoder_table2_savings(self):
        ctg = av_decoder_ctg("foreman")
        acg = mesh_2x2()
        eas = eas_schedule(ctg, acg)
        edf = edf_schedule(ctg, acg)
        assert eas.meets_deadlines
        assert eas.total_energy() < edf.total_energy()

    def test_integrated_table3_savings_and_validity(self):
        ctg = av_integrated_ctg("foreman")
        acg = mesh_3x3()
        eas = eas_schedule(ctg, acg)
        edf = edf_schedule(ctg, acg)
        eas.validate()
        edf.validate_structure()
        assert eas.total_energy() < edf.total_energy()
        # Both pipelines' sinks meet their frame periods under EAS.
        assert eas.deadline_misses() == []


class TestRepairClaims:
    """Sec. 6.1: repair fixes misses at negligible energy cost."""

    def test_repair_never_hurts_miss_count(self):
        for index in range(4):
            ctg = generate_category(2, index, n_tasks=60)
            acg = mesh_4x4(shuffle_seed=100 + index)
            base = eas_base_schedule(ctg, acg)
            full = eas_schedule(ctg, acg)
            assert len(full.deadline_misses()) <= len(base.deadline_misses())

    def test_repair_energy_increase_negligible(self):
        found = False
        for index in range(8):
            ctg = generate_category(2, index, n_tasks=100)
            acg = mesh_4x4(shuffle_seed=100 + index)
            base = eas_base_schedule(ctg, acg)
            if not base.deadline_misses():
                continue
            full = eas_schedule(ctg, acg)
            if full.meets_deadlines:
                found = True
                assert full.total_energy() <= base.total_energy() * 1.3
        if not found:
            pytest.skip("no repairable miss at this scale")


class TestTradeoffClaims:
    """Fig. 7: EAS energy grows as performance requirements tighten."""

    def test_eas_monotone_trend(self):
        figure = run_fig7(ratios=(1.0, 1.3, 1.6))
        eas = [v for v in figure.series["eas"] if not math.isnan(v)]
        assert len(eas) >= 2
        assert eas[-1] >= eas[0]

    def test_edf_roughly_flat(self):
        figure = run_fig7(ratios=(1.0, 1.4))
        edf = figure.series["edf"]
        if not any(math.isnan(v) for v in edf):
            assert edf[1] == pytest.approx(edf[0], rel=0.15)


class TestCrossValidation:
    """Every produced schedule is independently executable."""

    @pytest.mark.parametrize("clip", CLIP_NAMES)
    def test_msb_schedules_replay(self, clip):
        for builder, acg_builder in (
            (av_encoder_ctg, mesh_2x2),
            (av_decoder_ctg, mesh_2x2),
            (av_integrated_ctg, mesh_3x3),
        ):
            ctg = builder(clip)
            acg = acg_builder()
            for scheduler in (eas_schedule, edf_schedule):
                schedule = scheduler(ctg, acg)
                report = simulate_schedule(schedule)
                assert report.total_energy == pytest.approx(schedule.total_energy())

    def test_random_graph_both_schedulers_replay(self):
        ctg = generate_category(1, 5, n_tasks=100)
        acg = mesh_4x4(shuffle_seed=105)
        for scheduler in (eas_base_schedule, edf_schedule):
            simulate_schedule(scheduler(ctg, acg))


class TestAblationHooks:
    """The design choices DESIGN.md calls out are actually pluggable."""

    def test_uniform_weight_policy_runs_and_differs(self):
        ctg = generate_category(2, 2, n_tasks=60)
        acg = mesh_4x4(shuffle_seed=102)
        paper = eas_base_schedule(ctg, acg)
        uniform = eas_base_schedule(ctg, acg, EASConfig(weight_policy=weight_uniform))
        uniform.validate_structure()
        # Policies may tie on tiny instances, but at 60 tasks the slack
        # split should shift at least one placement.
        assert (
            paper.mapping() != uniform.mapping()
            or paper.total_energy() == uniform.total_energy()
        )
