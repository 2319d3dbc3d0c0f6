"""Tests for the CTG container: construction, queries, transforms."""

import hashlib

import pytest

from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG
from repro.ctg.multimedia import av_integrated_ctg
from repro.ctg.task import Task, TaskCosts
from repro.errors import CTGError

from tests.conftest import uniform_task


def small_ctg():
    ctg = CTG(name="small")
    for name in ("a", "b", "c", "d"):
        ctg.add_task(uniform_task(name, 10, 5))
    ctg.connect("a", "b", volume=100)
    ctg.connect("a", "c", volume=200)
    ctg.connect("b", "d", volume=300)
    ctg.connect("c", "d", volume=400)
    return ctg


class TestConstruction:
    def test_add_and_count(self):
        ctg = small_ctg()
        assert ctg.n_tasks == 4
        assert ctg.n_edges == 4
        assert len(ctg) == 4
        assert "a" in ctg

    def test_duplicate_task_rejected(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.add_task(uniform_task("a", 1, 1))

    def test_duplicate_edge_rejected(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.connect("a", "b", volume=5)

    def test_edge_with_unknown_endpoint_rejected(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.connect("a", "nope")

    def test_cycle_rejected_and_graph_unchanged(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.connect("d", "a")
        assert ctg.n_edges == 4
        assert "a" not in ctg.successors("d")


class TestQueries:
    def test_predecessors_successors(self):
        ctg = small_ctg()
        assert sorted(ctg.predecessors("d")) == ["b", "c"]
        assert sorted(ctg.successors("a")) == ["b", "c"]
        assert ctg.in_degree("d") == 2

    def test_in_out_edges(self):
        ctg = small_ctg()
        volumes = sorted(e.volume for e in ctg.in_edges("d"))
        assert volumes == [300, 400]
        assert [e.dst for e in ctg.out_edges("a")] == ["b", "c"] or [
            e.dst for e in ctg.out_edges("a")
        ] == ["c", "b"]

    def test_sources_sinks(self):
        ctg = small_ctg()
        assert ctg.sources() == ["a"]
        assert ctg.sinks() == ["d"]

    def test_topological_order_respects_edges(self):
        ctg = small_ctg()
        order = ctg.topological_order()
        pos = {name: i for i, name in enumerate(order)}
        for edge in ctg.edges():
            assert pos[edge.src] < pos[edge.dst]

    def test_topological_cache_invalidation(self):
        ctg = small_ctg()
        first = ctg.topological_order()
        ctg.add_task(uniform_task("e", 10, 5))
        ctg.connect("d", "e")
        second = ctg.topological_order()
        assert "e" in second and "e" not in first

    def test_ancestors_descendants(self):
        ctg = small_ctg()
        assert ctg.ancestors("d") == {"a", "b", "c"}
        assert ctg.descendants("a") == {"b", "c", "d"}

    def test_deadline_tasks(self):
        ctg = small_ctg()
        assert ctg.deadline_tasks() == []
        ctg.task("d").deadline = 100.0
        assert ctg.deadline_tasks() == ["d"]

    def test_unknown_lookups_raise(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.task("zz")
        with pytest.raises(CTGError):
            ctg.edge("a", "d")


class TestValidate:
    def test_empty_graph_invalid(self):
        with pytest.raises(CTGError):
            CTG().validate()

    def test_feasibility_check(self):
        ctg = CTG()
        ctg.add_task(Task(name="only-dsp", costs={"dsp": TaskCosts(1, 1)}))
        ctg.validate(pe_types=["dsp", "cpu"])
        with pytest.raises(CTGError):
            ctg.validate(pe_types=["cpu"])

    def test_feasible_on(self):
        ctg = CTG()
        ctg.add_task(Task(name="t", costs={"dsp": TaskCosts(1, 1)}))
        assert ctg.feasible_on(["dsp"])
        assert not ctg.feasible_on(["arm"])


class TestTransforms:
    def test_copy_independent(self):
        ctg = small_ctg()
        clone = ctg.copy()
        clone.task("a").deadline = 1.0
        clone.add_task(uniform_task("x", 1, 1))
        assert not ctg.task("a").has_deadline
        assert "x" not in ctg

    def test_scaled_deadlines(self):
        ctg = small_ctg()
        ctg.task("d").deadline = 1000.0
        tightened = ctg.with_scaled_deadlines(0.5)
        assert tightened.task("d").deadline == 500.0
        assert ctg.task("d").deadline == 1000.0  # original untouched
        # Infinite deadlines stay infinite.
        assert not tightened.task("a").has_deadline

    def test_scaled_deadlines_invalid_factor(self):
        with pytest.raises(CTGError):
            small_ctg().with_scaled_deadlines(0.0)

    def test_merged_with_is_disjoint_union(self):
        left, right = small_ctg(), small_ctg()
        merged = left.merged_with(right, prefix_self="l_", prefix_other="r_")
        assert merged.n_tasks == 8
        assert merged.n_edges == 8
        assert "l_a" in merged and "r_a" in merged
        # No cross edges between the halves.
        assert not any(
            e.src.startswith("l_") != e.dst.startswith("l_") for e in merged.edges()
        )


def _order_digest(ctg):
    return hashlib.sha256("\n".join(ctg.topological_order()).encode()).hexdigest()


class TestPinnedOrder:
    """The topological order feeds every scheduler's tie-breaks, so it is
    pinned by digest.  These digests were recorded from the order
    ``networkx.topological_sort`` 3.6.1 gave before the graph core stopped
    using networkx; the stored-adjacency Kahn must keep reproducing them.
    """

    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                lambda: generate_category(1, 0, n_tasks=160),
                "5927a753b874b7e1e4c1bd23bcb73178d2361d49aeb33ac99d20b97c4cf8a204",
            ),
            (
                lambda: generate_category(1, 1, n_tasks=160),
                "1eb34b7b02b3ab0a232480a0819641c3be7a9d1574df1aaabecf541e59d14b3a",
            ),
            (
                lambda: generate_category(1, 2, n_tasks=160),
                "15c866d9e53824c05cc1966a24e74189aa83d1b84b0728b9dc811a135d2d6f8f",
            ),
            (
                lambda: generate_category(2, 0, n_tasks=500),
                "0a6076940359a03e553fcc15445c6585cd7e3e252359f9b994d3b05e6eb6126b",
            ),
            (
                lambda: av_integrated_ctg("foreman"),
                "7e223c753f61007a6602e79a4e9534cc700c123edf63dd325003951afeba3a4f",
            ),
        ],
        ids=["cat1-0-160", "cat1-1-160", "cat1-2-160", "cat2-0-500", "av-integrated-foreman"],
    )
    def test_topological_order_digest(self, build, digest):
        ctg = build()
        assert _order_digest(ctg) == digest
        assert _order_digest(ctg.copy()) == digest
