"""Tests for the multimedia system benchmarks (Sec. 6.2 substitutes)."""


import pytest

from repro.ctg.multimedia import (
    CLIP_MOTION,
    CLIP_NAMES,
    DECODER_PERIOD_US,
    ENCODER_PERIOD_US,
    av_decoder_ctg,
    av_encoder_ctg,
    av_integrated_ctg,
)
from repro.ctg.analysis import critical_path_length
from repro.errors import CTGError
from repro.parallel.spec import paper_benchmark

PE_TYPES = ["cpu", "dsp", "arm", "risc"]


class TestTaskCounts:
    """The paper's partition sizes must match exactly."""

    def test_encoder_24_tasks(self):
        assert av_encoder_ctg("foreman").n_tasks == 24

    def test_decoder_16_tasks(self):
        assert av_decoder_ctg("foreman").n_tasks == 16

    def test_integrated_40_tasks(self):
        assert av_integrated_ctg("foreman").n_tasks == 40


class TestStructure:
    @pytest.mark.parametrize("builder", [av_encoder_ctg, av_decoder_ctg, av_integrated_ctg])
    def test_acyclic_and_feasible(self, builder):
        ctg = builder("foreman")
        ctg.validate(pe_types=PE_TYPES)
        assert len(ctg.topological_order()) == ctg.n_tasks

    def test_encoder_has_video_and_audio_pipelines(self):
        ctg = av_encoder_ctg("akiyo")
        assert "vme" in ctg and "aquant" in ctg
        # The two pipelines are independent (no cross edges).
        video = {n for n in ctg.task_names() if n.startswith("v")}
        for edge in ctg.edges():
            assert (edge.src in video) == (edge.dst in video)

    def test_integrated_contains_both_apps(self):
        ctg = av_integrated_ctg("foreman")
        assert "vme" in ctg and "ddisp" in ctg and "mout" in ctg

    def test_deadlines_placed(self):
        enc = av_encoder_ctg("foreman")
        assert enc.task("vsink").deadline == ENCODER_PERIOD_US
        assert enc.task("apack").deadline == ENCODER_PERIOD_US
        dec = av_decoder_ctg("foreman")
        assert dec.task("ddisp").deadline == DECODER_PERIOD_US
        assert dec.task("mout").deadline == DECODER_PERIOD_US

    def test_deadlines_attainable_on_mean_costs(self):
        """CP (mean costs) must fit within the frame period — otherwise
        the baseline experiments would be infeasible by construction."""
        for clip in CLIP_NAMES:
            enc = av_encoder_ctg(clip)
            assert critical_path_length(enc, PE_TYPES) < ENCODER_PERIOD_US
            dec = av_decoder_ctg(clip)
            assert critical_path_length(dec, PE_TYPES) < DECODER_PERIOD_US


class TestClips:
    def test_known_clips(self):
        assert set(CLIP_NAMES) == {"akiyo", "foreman", "toybox"}

    def test_unknown_clip_rejected(self):
        with pytest.raises(CTGError):
            av_encoder_ctg("matrix")

    def test_motion_scales_me_cost(self):
        lo = av_encoder_ctg("akiyo")
        hi = av_encoder_ctg("toybox")
        # Motion-dependent stage cost grows with motion activity.
        assert (
            hi.task("vme").cost_on("dsp").time > lo.task("vme").cost_on("dsp").time
        )

    def test_motion_scales_residual_volume(self):
        lo = av_encoder_ctg("akiyo")
        hi = av_encoder_ctg("toybox")
        assert hi.edge("vmc", "vdct").volume > lo.edge("vmc", "vdct").volume
        # Motion-independent volumes are identical.
        assert hi.edge("vcap", "vpre").volume == lo.edge("vcap", "vpre").volume

    def test_clip_determinism(self):
        a = av_encoder_ctg("foreman")
        b = av_encoder_ctg("foreman")
        assert {t.name: t.costs for t in a.tasks()} == {
            t.name: t.costs for t in b.tasks()
        }

    def test_motion_ordering(self):
        assert CLIP_MOTION["akiyo"] < CLIP_MOTION["foreman"] < CLIP_MOTION["toybox"]


class TestDeadlineScaling:
    def test_recipe_scales_both_pipelines(self):
        ctg, _ = paper_benchmark("integrated", deadline_scale=0.5).build()
        assert ctg.task("vsink").deadline == ENCODER_PERIOD_US * 0.5
        assert ctg.task("ddisp").deadline == DECODER_PERIOD_US * 0.5

    def test_dsp_affinity_in_costs(self):
        """dsp-kernel stages must run fastest on the DSP tile class."""
        ctg = av_encoder_ctg("foreman")
        dct = ctg.task("vdct")
        assert dct.cost_on("dsp").time == min(c.time for c in dct.costs.values())
