"""Tests for decision provenance: coverage, schema, schedule.explain()."""

import json
import math

import pytest

from repro import obs
from repro.baselines.edf import edf_schedule
from repro.core.eas import eas_schedule
from repro.ctg.multimedia import av_encoder_ctg
from repro.arch.presets import mesh_2x2
from repro.obs.decisions import Candidate, DecisionLog, TaskDecision


class TestDecisionLog:
    def test_disabled_log_records_nothing(self):
        log = DecisionLog(enabled=False)
        log.record(TaskDecision(task="t1", pe=0, algorithm="eas-base"))
        assert len(log) == 0

    def test_record_and_iterate(self):
        log = DecisionLog()
        log.record(TaskDecision(task="t1", pe=0, algorithm="eas-base"))
        log.record(TaskDecision(task="t2", pe=1, algorithm="eas-base", rescue=True))
        assert log.tasks() == ["t1", "t2"]
        assert [d.rescue for d in log] == [False, True]

    def test_to_dict_is_json_safe_with_inf_regret(self):
        decision = TaskDecision(
            task="t1",
            pe=2,
            algorithm="eas-base",
            regret=math.inf,
            candidates=[Candidate(pe=0, finish=10.0, energy=5.0)],
        )
        payload = json.dumps(decision.to_dict(), allow_nan=False)
        restored = json.loads(payload)
        assert restored["regret"] == "inf"
        assert restored["candidates"][0]["pe"] == 0
        assert decision.forced

    def test_describe_mentions_reason(self):
        rescue = TaskDecision(task="t", pe=1, algorithm="eas-base", rescue=True)
        assert "rescue" in rescue.describe()
        regret = TaskDecision(task="t", pe=1, algorithm="eas-base", regret=12.5)
        assert "12.5" in regret.describe()


class TestSchedulerCoverage:
    """The decision log for a small CTG names every task exactly once."""

    @pytest.fixture
    def encoder(self):
        return av_encoder_ctg("foreman"), mesh_2x2()

    def _run_with_log(self, scheduler, ctg, acg):
        ins = obs.Instrumentation.enabled()
        with obs.activate(ins):
            schedule = scheduler(ctg, acg)
        return schedule, ins

    @pytest.mark.parametrize("scheduler", [eas_schedule, edf_schedule])
    def test_every_task_decided_exactly_once(self, encoder, scheduler):
        ctg, acg = encoder
        schedule, ins = self._run_with_log(scheduler, ctg, acg)
        decided = ins.decisions.tasks()
        assert sorted(decided) == sorted(ctg.task_names())
        assert len(decided) == len(set(decided)) == ctg.n_tasks

    def test_decisions_match_actual_placements(self, encoder):
        ctg, acg = encoder
        schedule, ins = self._run_with_log(eas_schedule, ctg, acg)
        mapping = schedule.mapping()
        for decision in ins.decisions:
            # eas_schedule ran without repair here (encoder meets its
            # deadlines), so every decision matches the final mapping.
            assert mapping[decision.task] == decision.pe
            assert all(c.pe != decision.pe for c in decision.candidates)

    def test_provenance_attached_to_schedule(self, encoder):
        ctg, acg = encoder
        schedule, _ins = self._run_with_log(eas_schedule, ctg, acg)
        assert len(schedule.provenance) == ctg.n_tasks
        explained = schedule.explain(schedule.provenance[0].task)
        assert "PE" in explained

    def test_explain_without_provenance_is_graceful(self, encoder):
        ctg, acg = encoder
        schedule = eas_schedule(ctg, acg)  # default: decision log off
        assert "no decision recorded" in schedule.explain("mp3e_0")

    def test_rescue_and_regret_flags_populated(self, chain_ctg, acg2x2):
        schedule, ins = self._run_with_log(eas_schedule, chain_ctg, acg2x2)
        regrets = [d.regret for d in ins.decisions if not d.rescue]
        assert regrets, "expected regret-driven decisions on the chain"
        assert all(r is None or r >= 0 or math.isinf(r) for r in regrets)
