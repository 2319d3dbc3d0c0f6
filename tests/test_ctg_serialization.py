"""Tests for CTG JSON serialisation."""

import json
import math

import pytest

from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.ctg.multimedia import av_encoder_ctg
from repro.ctg.serialization import ctg_from_dict, ctg_from_json, ctg_to_dict, ctg_to_json
from repro.errors import ReproError, SerializationError


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


def _document(tasks=("a", "b", "c"), edges=()):
    return {
        "format": "repro-ctg",
        "version": 1,
        "name": "boundary",
        "tasks": [
            {"name": name, "deadline": None, "costs": {"cpu": {"time": 1.0, "energy": 1.0}}}
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
        ],
        ids=["cycle", "self-loop", "unknown-task", "duplicate-edge", "duplicate-task", "non-string-name"],
    )
    def test_rejected_with_a_typed_error(self, data):
        with pytest.raises(ReproError):
            ctg_from_json(json.dumps(data))

    def test_well_formed_document_loads(self):
        ctg = ctg_from_json(json.dumps(_document(edges=[("a", "b"), ("b", "c"), ("a", "c")])))
        assert ctg.topological_order() == ["a", "b", "c"]
