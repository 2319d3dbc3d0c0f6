"""Tests for schedule JSON serialisation."""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.presets import mesh_2x2, mesh_3x3
from repro.arch.topology import LINK_COORD_BITS, Link
from repro.core.eas import eas_schedule
from repro.ctg.graph import CTG
from repro.ctg.multimedia import av_encoder_ctg
from repro.errors import SerializationError
from repro.obs.decisions import Candidate, TaskDecision
from repro.schedule.entries import CommPlacement, TaskPlacement
from repro.schedule.schedule import Schedule
from repro.schedule.serialization import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro.sim.replay import simulate_schedule
from tests.document_fuzz import edited, variants
from tests.test_golden_schedules import CASES


@pytest.fixture
def encoder_schedule():
    ctg = av_encoder_ctg("foreman")
    acg = mesh_2x2()
    return ctg, acg, eas_schedule(ctg, acg)


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, encoder_schedule):
        ctg, acg, schedule = encoder_schedule
        restored = schedule_from_json(schedule_to_json(schedule), ctg, acg)
        assert restored.algorithm == schedule.algorithm
        assert restored.mapping() == schedule.mapping()
        assert restored.total_energy() == pytest.approx(schedule.total_energy())
        assert restored.makespan() == pytest.approx(schedule.makespan())
        assert restored.task_placements == schedule.task_placements
        assert restored.comm_placements == schedule.comm_placements

    def test_restored_schedule_validates_and_replays(self, encoder_schedule):
        ctg, acg, schedule = encoder_schedule
        restored = schedule_from_json(schedule_to_json(schedule), ctg, acg)
        restored.validate_structure()
        simulate_schedule(restored)

    def test_json_deterministic(self, encoder_schedule):
        _ctg, _acg, schedule = encoder_schedule
        assert schedule_to_json(schedule) == schedule_to_json(schedule)

    def test_runtime_preserved(self, encoder_schedule):
        ctg, acg, schedule = encoder_schedule
        restored = schedule_from_json(schedule_to_json(schedule), ctg, acg)
        assert restored.runtime_seconds == schedule.runtime_seconds

    def test_recorded_schedule_resaves_byte_identical(self):
        # The encoder's source tasks have no input transaction, so their
        # candidates carry a zero comm energy that must stay a float.
        ctg, acg = av_encoder_ctg("foreman"), mesh_2x2()
        with obs.activate(obs.Instrumentation.enabled()):
            schedule = eas_schedule(ctg, acg)
        saved = schedule_to_json(schedule)
        assert schedule.provenance and '"comm_energy": 0.0' in saved
        assert schedule_to_json(schedule_from_json(saved, ctg, acg)) == saved


class TestMismatchDetection:
    def test_wrong_ctg_rejected(self, encoder_schedule):
        _ctg, acg, schedule = encoder_schedule
        other = av_encoder_ctg("akiyo")  # different name
        with pytest.raises(SerializationError, match="computed for CTG"):
            schedule_from_json(schedule_to_json(schedule), other, acg)

    def test_wrong_platform_rejected(self, encoder_schedule):
        ctg, _acg, schedule = encoder_schedule
        with pytest.raises(SerializationError, match="platform"):
            schedule_from_json(schedule_to_json(schedule), ctg, mesh_3x3())

    def test_invalid_json(self, encoder_schedule):
        ctg, acg, _schedule = encoder_schedule
        with pytest.raises(SerializationError):
            schedule_from_json("{", ctg, acg)

    def test_wrong_format_marker(self, encoder_schedule):
        ctg, acg, _schedule = encoder_schedule
        with pytest.raises(SerializationError):
            schedule_from_dict({"format": "nope", "version": 1}, ctg, acg)

    def test_unknown_task_rejected(self, encoder_schedule):
        ctg, acg, schedule = encoder_schedule
        data = schedule_to_dict(schedule)
        data["tasks"][0]["task"] = "phantom"
        with pytest.raises(SerializationError):
            schedule_from_dict(data, ctg, acg)

    def test_missing_fields(self, encoder_schedule):
        ctg, acg, _schedule = encoder_schedule
        with pytest.raises(SerializationError):
            schedule_from_dict(
                {"format": "repro-schedule", "version": 1, "ctg": ctg.name},
                ctg,
                acg,
            )


class TestBoundary:
    """Inputs the reader cannot place raise ``SerializationError``."""

    @pytest.mark.parametrize("pe", [-1, -4, 4, 99], ids=["-1", "-n_pes", "n_pes", "far"])
    def test_task_pe_out_of_range_rejected(self, encoder_schedule, pe):
        ctg, acg, schedule = encoder_schedule
        data = schedule_to_dict(schedule)
        data["tasks"][0]["pe"] = pe
        with pytest.raises(SerializationError, match="PE index .* out of range 0..3"):
            schedule_from_dict(data, ctg, acg)

    @pytest.mark.parametrize("side", ["src_pe", "dst_pe"])
    def test_comm_pe_out_of_range_rejected(self, encoder_schedule, side):
        ctg, acg, schedule = encoder_schedule
        data = schedule_to_dict(schedule)
        data["comms"][0][side] = -1
        with pytest.raises(SerializationError, match="out of range"):
            schedule_from_dict(data, ctg, acg)

    @pytest.mark.parametrize("document", ["[]", "3", '"text"', "null"])
    def test_non_object_document_rejected(self, encoder_schedule, document):
        ctg, acg, _schedule = encoder_schedule
        with pytest.raises(SerializationError, match="must be a JSON object"):
            schedule_from_json(document, ctg, acg)

    def test_non_object_provenance_entry_rejected(self):
        data = dict(V2_DOCUMENT, provenance=[3])
        with pytest.raises(SerializationError, match="decision record must be a JSON object"):
            schedule_from_dict(data, *V2_PAIR)


# -- generated variants of a saved v2 document -----------------------------------

V2_PAIR = (av_encoder_ctg("foreman"), mesh_2x2())


def _v2_document():
    with obs.activate(obs.Instrumentation.enabled()):
        schedule = eas_schedule(*V2_PAIR)
    document = schedule_to_dict(schedule)
    assert document["version"] == 2 and document["provenance"]
    return document


V2_DOCUMENT = _v2_document()


class TestGeneratedDocuments:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(variants(V2_DOCUMENT, (1, 2), ("pe", "src_pe", "dst_pe"), V2_PAIR[1].n_pes))
    def test_variant_loads_in_range_or_raises_serialization_error(self, document):
        ctg, acg = V2_PAIR
        try:
            schedule = schedule_from_dict(document, ctg, acg)
        except SerializationError:
            return
        assert type(schedule.runtime_seconds) is float and type(schedule.algorithm) is str
        for placement in schedule.task_placements.values():
            assert type(placement.pe) is int and 0 <= placement.pe < acg.n_pes
            assert {type(placement.start), type(placement.finish), type(placement.energy)} == {float}
        for comm in schedule.comm_placements.values():
            assert type(comm.src_pe) is int and 0 <= comm.src_pe < acg.n_pes
            assert type(comm.dst_pe) is int and 0 <= comm.dst_pe < acg.n_pes
            assert {type(comm.volume), type(comm.start), type(comm.finish), type(comm.energy)} == {float}
            assert all(type(c) is int for link in comm.links for c in link.src + link.dst)
        for decision in schedule.provenance:
            assert type(decision.task) is str and type(decision.pe) is int
            assert type(decision.rescue) is bool and type(decision.algorithm) is str
            assert {type(decision.start), type(decision.finish), type(decision.energy)} == {float}
            assert type(decision.regret) in (float, type(None)) and type(decision.bd) in (float, type(None))
            for candidate in decision.candidates + ([decision.chosen] if decision.chosen else []):
                assert type(candidate.pe) is int and type(candidate.hops) in (int, type(None))
                for field in dataclasses.fields(candidate):
                    if field.name not in ("pe", "hops"):
                        assert type(getattr(candidate, field.name)) in (float, type(None))


class TestTypedFields:
    """Values of the wrong JSON type raise instead of being coerced."""

    @pytest.mark.parametrize("pe", [2.9, "2", True], ids=["fraction", "string", "bool"])
    @pytest.mark.parametrize("path", [("tasks", 0, "pe"), ("comms", 0, "src_pe"), ("comms", 0, "dst_pe")])
    def test_non_integer_pe_rejected(self, path, pe):
        document = edited(V2_DOCUMENT, (path, "set", pe))
        with pytest.raises(SerializationError, match="PE index must be a non-negative integer"):
            schedule_from_dict(document, *V2_PAIR)

    def test_string_rescue_flag_rejected(self):
        document = edited(V2_DOCUMENT, (("provenance", 0, "rescue"), "set", "false"))
        with pytest.raises(SerializationError, match="'rescue' must be a JSON boolean"):
            schedule_from_dict(document, *V2_PAIR)

    def test_fractional_hop_count_rejected(self):
        document = edited(V2_DOCUMENT, (("provenance", 0, "candidates", 0, "hops"), "set", 2.7))
        with pytest.raises(SerializationError, match="'hops' must be a non-negative integer"):
            schedule_from_dict(document, *V2_PAIR)

    @pytest.mark.parametrize("coordinate", [True, 1.0, -1, 1024], ids=["bool", "float", "negative", "far"])
    def test_link_coordinate_must_be_an_encodable_integer(self, coordinate):
        path = next(("comms", i, "links", 0, 0, 0) for i, c in enumerate(V2_DOCUMENT["comms"]) if c["links"])
        with pytest.raises(SerializationError, match="link"):
            schedule_from_dict(edited(V2_DOCUMENT, (path, "set", coordinate)), *V2_PAIR)

    def test_non_finite_decision_fields_round_trip(self):
        decision = TaskDecision(
            task="t", pe=1, algorithm="eas-base", regret=math.inf, bd=-math.inf,
            chosen=Candidate(pe=1, slack=math.nan),
        )
        restored = TaskDecision.from_dict(json.loads(json.dumps(decision.to_dict(), allow_nan=False)))
        assert restored.regret == math.inf and restored.bd == -math.inf
        assert math.isnan(restored.chosen.slack)


# -- the writer against its oracle ----------------------------------------------


def oracle(schedule):
    """What the writer must produce, byte for byte."""
    return json.dumps(schedule_to_dict(schedule), indent=2, sort_keys=True)


#: Non-ASCII, quoted, backslashed and control-character names among plain ones.
names = st.text(alphabet=st.sampled_from('ab\u00e9\u4e2d\U0001f600"\\/\n\t\x00\x1f\x7f'), max_size=6)
names |= st.text(max_size=6)
numbers = (
    st.sampled_from([0, -0.0, 0.0, 5e-324, 1e16, -1e16, 1.5, math.inf, -math.inf, math.nan])
    | st.floats()
    | st.integers(-(2**70), 2**70)
)
indices = st.integers(0, 2**40)
coords = st.tuples(st.integers(0, (1 << LINK_COORD_BITS) - 1), st.integers(0, (1 << LINK_COORD_BITS) - 1))
links = st.lists(st.builds(Link, coords, coords), max_size=3).map(tuple)
tasks = st.builds(TaskPlacement, names, indices, numbers, numbers, numbers)
comms = st.builds(CommPlacement, names, names, numbers, indices, indices, numbers, numbers, links, numbers)
optional = st.none() | st.just(math.inf) | st.just(-math.inf) | st.just(math.nan) | st.floats()
candidates = st.builds(
    Candidate, indices, finish=optional, energy=optional, start=optional, drt=optional,
    compute_energy=optional, comm_energy=optional, hops=st.none() | indices, slack=optional,
)
decisions = st.builds(
    TaskDecision, names, indices, names, rescue=st.booleans(), regret=optional,
    start=st.floats(), finish=st.floats(), energy=st.floats(),
    candidates=st.lists(candidates, max_size=3), bd=optional, chosen=st.none() | candidates,
)


@st.composite
def schedules(draw):
    schedule = Schedule(CTG(name=draw(names)), mesh_2x2(), algorithm=draw(st.just("") | names))
    schedule.runtime_seconds = draw(numbers)
    for placement in draw(st.lists(tasks, max_size=4)):
        schedule.task_placements[placement.task] = placement
    for comm in draw(st.lists(comms, max_size=4)):
        schedule.comm_placements[(comm.src_task, comm.dst_task)] = comm
    schedule.provenance = draw(st.lists(decisions, max_size=2))
    return schedule


class TestWriterOracle:
    """``schedule_to_json`` writes what ``json.dumps(indent=2, sort_keys=True)`` would."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schedules())
    def test_generated_schedule_matches_oracle(self, schedule):
        assert schedule_to_json(schedule) == oracle(schedule)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("recorded", [False, True], ids=["plain", "recorded"])
    def test_golden_case_matches_oracle(self, name, recorded):
        instrumentation = obs.Instrumentation.enabled() if recorded else obs.Instrumentation.disabled()
        with obs.activate(instrumentation):
            schedule = CASES[name]()
        assert schedule_to_json(schedule) == oracle(schedule)

    def test_empty_schedule_matches_oracle(self):
        schedule = Schedule(CTG(name="empty"), mesh_2x2())
        assert schedule_to_json(schedule) == oracle(schedule)
        assert '"comms": [],' in schedule_to_json(schedule)
