"""Tests for ``run_eas``, the one composition of EAS Steps 1-3.

EAS itself, the paper-literal reference oracle and degraded-mode
recovery all run through ``run_eas``; these tests pin what each caller
relies on: Step 2's decision records survive Step 3, the ``eas_base``
phase nests in ``eas``, and the literal pieces give the oracle's bytes.
"""

from unittest import mock

import pytest

from repro import obs
from repro.arch.presets import mesh_3x3, mesh_4x4
from repro.core.eas import EASConfig, LevelBasedScheduler, eas_schedule, run_eas
from repro.core.rebuild import NO_PREFIX
from repro.core.reference import literal_pieces, reference_eas_schedule
from repro.ctg.generator import generate_category
from repro.errors import InfeasibleOrderError, NoFeasiblePEError
from repro.faults import UnsurvivableFaultError, generate_fault_plans, inject_and_recover
from repro.faults.degraded import DegradedACG
from repro.faults.recovery import classify_salvage, kept_comm_keys, salvage_prefix
from repro.schedule.serialization import schedule_to_json


def recorded(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with tracing and decision records on."""
    bundle = obs.Instrumentation.enabled()
    with obs.activate(bundle):
        result = fn(*args, **kwargs)
    return result, bundle


def dump(schedule) -> str:
    """The serialization without the wall-clock stamp."""
    schedule.runtime_seconds = 0.0
    return schedule_to_json(schedule)


def accepted(report) -> int:
    return report.swaps_accepted + report.migrations_accepted


@pytest.fixture(scope="module")
def tight():
    """A category-II case whose base schedule misses and Step 3 repairs."""
    ctg = generate_category(2, 3, n_tasks=15).with_scaled_deadlines(0.7)
    return ctg, mesh_3x3(shuffle_seed=3)


@pytest.fixture(scope="module")
def committed():
    """A committed schedule and six seeded fault plans striking it."""
    ctg = generate_category(2, 0, n_tasks=20).with_scaled_deadlines(0.7)
    acg = mesh_4x4()
    schedule = eas_schedule(ctg, acg)
    return schedule, generate_fault_plans(acg, 6, seed=0, horizon=schedule.makespan())


class TestProvenance:
    def test_repaired_recovery_keeps_one_record_per_rerun_task(self, committed):
        schedule, plans = committed
        repaired = 0
        for plan in plans:
            result, _ = recorded(inject_and_recover, schedule, plan)
            report = result.repair_report
            if report is None or not accepted(report):
                continue
            repaired += 1
            decided = sorted(d.task for d in result.recovery.provenance)
            assert decided == sorted(result.rerun), plan.name
            assert {d.algorithm for d in result.recovery.provenance} == {"recovery"}
        assert repaired > 0, "no plan of the corpus accepted a repair move"


class TestRecoveryErrors:
    def test_step2_no_feasible_pe_is_a_partition(self, committed):
        schedule, plans = committed
        failure = NoFeasiblePEError("task 't' has no feasible PE")
        with mock.patch.object(LevelBasedScheduler, "run", side_effect=failure):
            with pytest.raises(UnsurvivableFaultError, match="partitioned"):
                inject_and_recover(schedule, plans[0])

    def test_step3_scheduling_errors_propagate(self, committed):
        """A Step-3 failure is a defect, never an unsurvivable verdict."""
        schedule, plans = committed
        calls = []

        def failing_repair(*args, **kwargs):
            calls.append(args)
            raise InfeasibleOrderError("repair stub failed")

        with mock.patch("repro.faults.recovery.search_and_repair", failing_repair):
            for plan in plans:
                before = len(calls)
                try:
                    inject_and_recover(schedule, plan)
                except InfeasibleOrderError:
                    assert len(calls) == before + 1, plan.name
                else:
                    assert len(calls) == before, plan.name
        assert calls, "no plan of the corpus ran Step 3"


class TestPhases:
    def test_eas_base_phase_nests_in_eas(self, tight):
        ctg, acg = tight
        _schedule, bundle = recorded(eas_schedule, ctg, acg)
        parents = {span.name: span.parent for span in bundle.tracer.spans}
        assert parents["eas"] is None
        assert parents["eas_base"] == "eas"
        assert parents["level_schedule"] == "eas_base"
        assert parents["search_and_repair"] == "eas"

    def test_recovery_is_not_an_eas_phase(self, committed):
        schedule, plans = committed
        result, bundle = recorded(inject_and_recover, schedule, plans[0])
        names = {span.name for span in bundle.tracer.spans}
        assert "faults.recover" in names
        assert not names & {"eas", "eas_base"}
        assert result.recovery.runtime_seconds == 0.0


class TestLiteralPieces:
    @pytest.mark.parametrize("literal_tables", [True, False], ids=["literal-tables", "no-prefix"])
    def test_reference_is_run_eas_on_literal_pieces(self, tight, literal_tables):
        ctg, acg = tight
        config = EASConfig()
        reference, _ = recorded(reference_eas_schedule, ctg, acg, config)
        pieces = literal_pieces()
        if not literal_tables:
            pieces["prefix"] = NO_PREFIX
        (schedule, report), _ = recorded(run_eas, ctg, acg, config, **pieces)
        assert report is not None and accepted(report) > 0
        schedule.algorithm = "eas"
        assert dump(schedule) == dump(reference)

    def test_literal_run_eas_matches_production_from_a_salvaged_prefix(self, committed):
        schedule, plans = committed
        ctg = schedule.ctg
        compared = 0
        # The literal Step 2 and Step 3 on the salvaged prefix's tables.
        steps = {key: value for key, value in literal_pieces().items() if key != "prefix"}
        for plan in plans:
            degraded = DegradedACG(schedule.acg, plan)
            salvaged, _rerun = classify_salvage(schedule, plan.fault_time, degraded.dead_pes)
            prefix = salvage_prefix(schedule, salvaged, kept_comm_keys(schedule, salvaged), plan)
            runs = [
                recorded(run_eas, ctg, degraded, prefix=prefix, algorithm="recovery", **pieces)[0]
                for pieces in ({}, steps)
            ]
            (production, production_report), (literal, literal_report) = runs
            assert dump(production) == dump(literal), plan.name
            assert repr(production_report) == repr(literal_report), plan.name
            compared += production_report is not None and accepted(production_report) > 0
        assert compared > 0, "no plan exercised Step 3 from a salvaged prefix"
