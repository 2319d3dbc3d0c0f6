"""Tests for schedule JSON serialisation."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.presets import mesh_2x2, mesh_3x3
from repro.core.eas import eas_schedule
from repro.ctg.multimedia import av_encoder_ctg
from repro.errors import SerializationError
from repro.schedule.serialization import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro.sim.replay import simulate_schedule


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


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _nodes(child, path + (index,))


def _at(document, path):
    for step in path:
        document = document[step]
    return document


DICT_PATHS = [p for p, v in _nodes(V2_DOCUMENT) if isinstance(v, dict) and v]
LIST_PATHS = [p for p, v in _nodes(V2_DOCUMENT) if isinstance(v, list) and v]
PE_PATHS = [
    p
    for p, _v in _nodes(V2_DOCUMENT)
    if p[:1] in (("tasks",), ("comms",)) and p[-1:] in (("pe",), ("src_pe",), ("dst_pe",))
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
non_objects = json_values.filter(lambda v: not isinstance(v, dict))


@st.composite
def mutations(draw):
    """One edit ``(path, action, value)`` of the saved document."""
    kind = draw(st.sampled_from(["drop", "swap", "truncate", "entry", "pe", "version", "root"]))
    if kind in ("drop", "swap"):
        parent = draw(st.sampled_from(DICT_PATHS))
        key = draw(st.sampled_from(sorted(_at(V2_DOCUMENT, parent))))
        if kind == "drop":
            return parent + (key,), "drop", None
        old = _at(V2_DOCUMENT, parent + (key,))
        return parent + (key,), "set", draw(json_values.filter(lambda v: type(v) is not type(old)))
    if kind in ("truncate", "entry"):
        path = draw(st.sampled_from(LIST_PATHS))
        length = len(_at(V2_DOCUMENT, path))
        index = draw(st.integers(0, length - 1))
        if kind == "truncate":
            return path, "truncate", index
        return path + (index,), "set", draw(non_objects)
    if kind == "pe":
        pe = draw(st.integers(max_value=-1) | st.integers(min_value=V2_PAIR[1].n_pes))
        return draw(st.sampled_from(PE_PATHS)), "set", pe
    if kind == "version":
        version = draw(st.integers().filter(lambda v: v not in (1, 2)) | json_values)
        return ("version",), "set", version
    return (), "set", draw(non_objects)


def _apply(document, path, action, value):
    """The document after one edit; a path an earlier edit removed is skipped."""
    if not path:
        return value
    try:
        parent = _at(document, path[:-1])
        if action == "truncate":
            del _at(document, path)[value:]
        elif action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (IndexError, KeyError, TypeError):
        pass
    return document


class TestGeneratedDocuments:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(mutations(), min_size=1, max_size=3))
    def test_variant_loads_in_range_or_raises_serialization_error(self, edits):
        document = copy.deepcopy(V2_DOCUMENT)
        for edit in edits:
            document = _apply(document, *edit)
        ctg, acg = V2_PAIR
        try:
            schedule = schedule_from_dict(document, ctg, acg)
        except SerializationError:
            return
        for placement in schedule.task_placements.values():
            assert 0 <= placement.pe < acg.n_pes
        for comm in schedule.comm_placements.values():
            assert 0 <= comm.src_pe < acg.n_pes and 0 <= comm.dst_pe < acg.n_pes
