"""Tests for CTG JSON serialisation."""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.ctg.multimedia import av_encoder_ctg
from repro.ctg.serialization import ctg_from_dict, ctg_from_json, ctg_to_dict, ctg_to_json
from repro.errors import ReproError, SerializationError
from tests.document_fuzz import edited, variants


class TestRoundTrip:
    def test_random_ctg_round_trip(self):
        original = generate_ctg(GeneratorConfig(n_tasks=40, seed=1))
        restored = ctg_from_json(ctg_to_json(original))
        assert restored.name == original.name
        assert restored.task_names() == original.task_names()
        assert [(e.src, e.dst, e.volume) for e in restored.edges()] == [
            (e.src, e.dst, e.volume) for e in original.edges()
        ]
        for name in original.task_names():
            a, b = original.task(name), restored.task(name)
            assert a.deadline == b.deadline
            assert a.costs == b.costs

    def test_multimedia_round_trip(self):
        original = av_encoder_ctg("toybox")
        restored = ctg_from_json(ctg_to_json(original))
        assert restored.n_tasks == 24
        assert restored.task("vsink").deadline == original.task("vsink").deadline

    def test_infinite_deadline_serialises_as_null(self):
        ctg = generate_ctg(GeneratorConfig(n_tasks=10, deadline_fraction=0.0, seed=2))
        data = ctg_to_dict(ctg)
        assert all(entry["deadline"] is None for entry in data["tasks"])
        restored = ctg_from_dict(data)
        assert all(math.isinf(t.deadline) for t in restored.tasks())

    def test_json_stable(self):
        ctg = generate_ctg(GeneratorConfig(n_tasks=15, seed=3))
        assert ctg_to_json(ctg) == ctg_to_json(ctg)


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            ctg_from_json("{not json")

    def test_wrong_format_marker(self):
        with pytest.raises(SerializationError):
            ctg_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version(self):
        with pytest.raises(SerializationError):
            ctg_from_dict({"format": "repro-ctg", "version": 999})

    def test_missing_fields(self):
        with pytest.raises(SerializationError):
            ctg_from_dict({"format": "repro-ctg", "version": 1, "name": "x"})

    def test_malformed_task_entry(self):
        data = {
            "format": "repro-ctg",
            "version": 1,
            "name": "x",
            "tasks": [{"name": "a"}],  # no costs
            "edges": [],
        }
        with pytest.raises(SerializationError):
            ctg_from_dict(data)


def _document(tasks=("a", "b", "c"), edges=(), deadline=None, time=1.0):
    return {
        "format": "repro-ctg",
        "version": 1,
        "name": "boundary",
        "tasks": [
            {"name": name, "deadline": deadline, "costs": {"cpu": {"time": time, "energy": 1.0}}}
            for name in tasks
        ],
        "edges": [{"src": src, "dst": dst, "volume": 1.0} for src, dst in edges],
    }


class TestBoundary:
    """Structurally bad documents end in a typed error, never in a CTG."""

    @pytest.mark.parametrize(
        "data",
        [
            _document(edges=[("a", "b"), ("b", "c"), ("c", "a")]),
            _document(edges=[("a", "a")]),
            _document(edges=[("a", "zz")]),
            _document(edges=[("a", "b"), ("a", "b")]),
            _document(tasks=("a", "b", "a")),
            _document(tasks=("a", 7)),
            _document(deadline=math.nan),
            _document(time=math.nan),
        ],
        ids=[
            "cycle", "self-loop", "unknown-task", "duplicate-edge", "duplicate-task",
            "non-string-name", "nan-deadline", "nan-time",
        ],
    )
    def test_rejected_with_a_typed_error(self, data):
        with pytest.raises(ReproError):
            ctg_from_json(json.dumps(data))

    def test_infinite_deadline_and_time_stay_legal(self):
        """Infinity means no deadline, and an infeasible PE type."""
        task = ctg_from_json(json.dumps(_document(deadline=math.inf, time=math.inf))).task("a")
        assert math.isinf(task.deadline)
        assert not task.cost_on("cpu").feasible

    def test_well_formed_document_loads(self):
        ctg = ctg_from_json(json.dumps(_document(edges=[("a", "b"), ("b", "c"), ("a", "c")])))
        assert ctg.topological_order() == ["a", "b", "c"]


class TestTypedFields:
    """Values of the wrong JSON type raise instead of being coerced."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("tasks", 0, "costs", "cpu", "time"), True),
            (("tasks", 0, "deadline"), "5"),
            (("edges", 0, "volume"), True),
        ],
        ids=["bool-time", "string-deadline", "bool-volume"],
    )
    def test_non_number_rejected(self, path, value):
        document = edited(_document(edges=[("a", "b")], deadline=5.0), (path, "set", value))
        with pytest.raises(SerializationError, match="must be a number"):
            ctg_from_dict(document)

    def test_null_deadline_and_integer_costs_read_as_floats(self):
        task = ctg_from_dict(_document(time=3)).task("a")
        assert math.isinf(task.deadline)
        assert type(task.cost_on("cpu").time) is float


# -- generated variants of a saved CTG document ----------------------------------

CTG_DOCUMENT = ctg_to_dict(av_encoder_ctg("foreman"))
FIRST_COST = ("tasks", 0, "costs", next(iter(CTG_DOCUMENT["tasks"][0]["costs"])), "time")


class TestGeneratedDocuments:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(variants(CTG_DOCUMENT, (1,)))
    @example(edited(CTG_DOCUMENT, (FIRST_COST, "set", True)))
    def test_variant_loads_typed_or_raises_serialization_error(self, document):
        try:
            ctg = ctg_from_dict(document)
        except SerializationError:
            return
        assert type(ctg.name) is str
        for task in ctg.tasks():
            assert type(task.name) is str and type(task.deadline) is float
            assert type(task.task_type) in (str, type(None))
            for pe_type, cost in task.costs.items():
                assert type(pe_type) is str
                assert type(cost.time) is float and type(cost.energy) is float
        for edge in ctg.edges():
            assert type(edge.src) is str and type(edge.dst) is str and type(edge.volume) is float
