"""Tests for the fault-plan model and the seeded Monte Carlo generator."""

import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.arch.presets import mesh_3x3
from repro.arch.topology import Link
from repro.errors import SerializationError
from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_PLAN_SCHEMA_VERSION,
    FaultPlan,
    LinkFault,
    PEFault,
    TransientFault,
    generate_fault_plans,
)
from tests.document_fuzz import variants


def full_plan():
    return FaultPlan(
        name="mixed",
        seed=3,
        pe_faults=(PEFault(pe=2, time=10.0),),
        link_faults=(LinkFault(src=(0, 0), dst=(0, 1), time=8.0),),
        transient_faults=(TransientFault(src=(1, 0), dst=(1, 1), start=5.0, end=9.0),),
    )


class TestFaultPlanModel:
    def test_fault_time_is_earliest_event(self):
        assert full_plan().fault_time == 5.0

    def test_empty_plan_has_no_fault_time(self):
        with pytest.raises(SerializationError):
            FaultPlan(name="empty").fault_time
        assert FaultPlan(name="empty").is_empty

    def test_kind_precedence(self):
        assert full_plan().kind == "pe"
        assert FaultPlan(
            name="l", link_faults=(LinkFault((0, 0), (0, 1), 1.0),)
        ).kind == "link"
        assert FaultPlan(
            name="t", transient_faults=(TransientFault((0, 0), (0, 1), 1.0, 2.0),)
        ).kind == "transient"

    def test_negative_times_rejected(self):
        with pytest.raises(SerializationError):
            FaultPlan(name="bad", pe_faults=(PEFault(pe=0, time=-1.0),))
        with pytest.raises(SerializationError):
            FaultPlan(name="bad", link_faults=(LinkFault((0, 0), (0, 1), -0.5),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["pe", "link", "start", "end"])
    def test_non_finite_times_rejected(self, field, bad):
        with pytest.raises(SerializationError, match="finite"):
            if field == "pe":
                FaultPlan(name="bad", pe_faults=(PEFault(pe=0, time=bad),))
            elif field == "link":
                FaultPlan(name="bad", link_faults=(LinkFault((0, 0), (0, 1), bad),))
            elif field == "start":
                FaultPlan(name="bad", transient_faults=(TransientFault((0, 0), (0, 1), bad, 5.0),))
            else:
                FaultPlan(name="bad", transient_faults=(TransientFault((0, 0), (0, 1), 1.0, bad),))

    def test_empty_transient_window_rejected(self):
        with pytest.raises(SerializationError):
            FaultPlan(
                name="bad",
                transient_faults=(TransientFault((0, 0), (0, 1), 5.0, 5.0),),
            )

    def test_cut_channels_deduplicates_directions(self):
        plan = FaultPlan(
            name="dup",
            link_faults=(
                LinkFault((0, 0), (0, 1), 1.0),
                LinkFault((0, 1), (0, 0), 2.0),
            ),
        )
        assert plan.cut_channels() == (((0, 0), (0, 1)),)

    def test_transient_windows_cover_both_directions(self):
        plan = FaultPlan(
            name="t", transient_faults=(TransientFault((0, 0), (0, 1), 1.0, 4.0),)
        )
        windows = plan.transient_windows()
        assert windows[Link((0, 0), (0, 1))] == ((1.0, 4.0),)
        assert windows[Link((0, 1), (0, 0))] == ((1.0, 4.0),)

    def test_dead_pes_sorted_unique(self):
        plan = FaultPlan(
            name="p",
            pe_faults=(PEFault(5, 1.0), PEFault(2, 2.0), PEFault(5, 3.0)),
        )
        assert plan.dead_pes() == (2, 5)


class TestSerialization:
    def test_roundtrip_is_exact(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_document_carries_schema_version(self):
        doc = full_plan().to_dict()
        assert doc["format"] == "repro-fault-plan"
        assert doc["version"] == FAULT_PLAN_SCHEMA_VERSION

    def test_unknown_version_rejected(self):
        doc = full_plan().to_dict()
        doc["version"] = FAULT_PLAN_SCHEMA_VERSION + 1
        with pytest.raises(SerializationError):
            FaultPlan.from_dict(doc)

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            FaultPlan.from_dict({"format": "repro-schedule", "version": 1})

    def test_malformed_fields_rejected(self):
        doc = full_plan().to_dict()
        doc["pe_faults"] = [{"pe": "nope"}]
        with pytest.raises(SerializationError):
            FaultPlan.from_dict(doc)

    @pytest.mark.parametrize(
        "pe", [3.7, 3.0, "3", True, -1], ids=["fraction", "float", "string", "bool", "negative"]
    )
    def test_non_integer_pe_rejected(self, pe):
        doc = full_plan().to_dict()
        doc["pe_faults"] = [{"pe": pe, "time": 1.0}]
        with pytest.raises(SerializationError, match="PE index must be a non-negative integer"):
            FaultPlan.from_dict(doc)

    @pytest.mark.parametrize("bad", [True, "5"], ids=["bool", "string"])
    @pytest.mark.parametrize("field", ["pe", "link", "start", "end"])
    def test_non_number_times_rejected(self, field, bad):
        doc = full_plan().to_dict()
        if field == "pe":
            doc["pe_faults"][0]["time"] = bad
        elif field == "link":
            doc["link_faults"][0]["time"] = bad
        else:
            doc["transient_faults"][0][field] = bad
        with pytest.raises(SerializationError, match="must be a finite non-negative number"):
            FaultPlan.from_dict(doc)

    def test_integer_times_accepted(self):
        doc = full_plan().to_dict()
        doc["pe_faults"] = [{"pe": 2, "time": 10}]
        doc["transient_faults"][0].update(start=5, end=6)
        plan = FaultPlan.from_dict(doc)
        assert plan.pe_faults[0].time == 10.0
        assert (plan.transient_faults[0].start, plan.transient_faults[0].end) == (5.0, 6.0)

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError):
            FaultPlan.from_json("{not json")


class TestGenerator:
    def test_same_seed_same_corpus(self):
        acg = mesh_3x3()
        a = generate_fault_plans(acg, 12, seed=5, horizon=100.0)
        b = generate_fault_plans(acg, 12, seed=5, horizon=100.0)
        assert a == b

    def test_different_seed_differs(self):
        acg = mesh_3x3()
        a = generate_fault_plans(acg, 12, seed=5, horizon=100.0)
        b = generate_fault_plans(acg, 12, seed=6, horizon=100.0)
        assert a != b

    def test_kinds_rotate_evenly_over_21_plans(self):
        plans = generate_fault_plans(mesh_3x3(), 21, seed=0, horizon=50.0)
        counts = {kind: 0 for kind in FAULT_KINDS}
        for plan in plans:
            counts[plan.kind] += 1
        assert counts == {"pe": 7, "link": 7, "transient": 7}

    def test_times_within_horizon(self):
        horizon = 80.0
        for plan in generate_fault_plans(mesh_3x3(), 30, seed=1, horizon=horizon):
            assert 0.0 < plan.fault_time < horizon

    def test_kind_subset(self):
        plans = generate_fault_plans(
            mesh_3x3(), 6, seed=2, horizon=10.0, kinds=("link",)
        )
        assert all(plan.kind == "link" for plan in plans)

    def test_invalid_arguments(self):
        acg = mesh_3x3()
        with pytest.raises(ValueError):
            generate_fault_plans(acg, -1, seed=0, horizon=10.0)
        with pytest.raises(ValueError):
            generate_fault_plans(acg, 1, seed=0, horizon=0.0)
        with pytest.raises(ValueError):
            generate_fault_plans(acg, 1, seed=0, horizon=10.0, kinds=("alpha",))
        with pytest.raises(ValueError):
            generate_fault_plans(acg, 1, seed=0, horizon=10.0, kinds=())

    def test_generated_plans_serialize(self):
        for plan in generate_fault_plans(mesh_3x3(), 9, seed=3, horizon=40.0):
            assert FaultPlan.from_json(plan.to_json()) == plan


# -- generated variants of a saved fault-plan document ---------------------------

PLAN_DOCUMENT = full_plan().to_dict()


class TestGeneratedDocuments:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(variants(PLAN_DOCUMENT, (FAULT_PLAN_SCHEMA_VERSION,), ("pe",)))
    def test_variant_loads_typed_or_raises_serialization_error(self, document):
        try:
            plan = FaultPlan.from_dict(document)
        except SerializationError:
            return
        assert type(plan.name) is str and type(plan.seed) in (int, type(None))
        for fault in plan.pe_faults:
            assert type(fault.pe) is int and fault.pe >= 0 and type(fault.time) is float
        for fault in plan.link_faults + plan.transient_faults:
            for coord in (fault.src, fault.dst):
                assert type(coord) is tuple and [type(c) for c in coord] == [int, int]
        for fault in plan.link_faults:
            assert type(fault.time) is float
        for fault in plan.transient_faults:
            assert type(fault.start) is float and type(fault.end) is float
