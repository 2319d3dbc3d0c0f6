"""Tests for Task / TaskCosts / CommEdge records."""

import math

import pytest

from repro.ctg.task import CommEdge, Task, TaskCosts
from repro.errors import CTGError


class TestTaskCosts:
    def test_valid(self):
        cost = TaskCosts(time=10.0, energy=5.0)
        assert cost.feasible

    def test_infeasible_marker(self):
        cost = TaskCosts(time=math.inf, energy=0.0)
        assert not cost.feasible

    def test_negative_time_rejected(self):
        with pytest.raises(CTGError):
            TaskCosts(time=-1.0, energy=0.0)

    def test_invalid_energy_rejected(self):
        with pytest.raises(CTGError):
            TaskCosts(time=1.0, energy=-0.5)
        with pytest.raises(CTGError):
            TaskCosts(time=1.0, energy=math.inf)


class TestTask:
    def test_cost_lookup(self):
        task = Task(name="t", costs={"dsp": TaskCosts(10, 20)})
        assert task.cost_on("dsp").time == 10
        assert task.energy_on("dsp") == 20

    def test_unknown_type_is_infeasible(self):
        task = Task(name="t", costs={"dsp": TaskCosts(10, 20)})
        assert task.cost_on("cpu").time == math.inf
        assert not task.cost_on("cpu").feasible

    def test_feasible_types(self):
        task = Task(
            name="t",
            costs={"dsp": TaskCosts(10, 20), "cpu": TaskCosts(math.inf, 0)},
        )
        assert list(task.feasible_types()) == ["dsp"]

    def test_empty_name_rejected(self):
        with pytest.raises(CTGError):
            Task(name="")

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(CTGError):
            Task(name="t", deadline=0.0)

    def test_has_deadline(self):
        assert Task(name="t", deadline=100.0).has_deadline
        assert not Task(name="t").has_deadline

    def test_copy_is_independent(self):
        task = Task(name="t", costs={"dsp": TaskCosts(10, 20)}, deadline=50)
        clone = task.copy()
        clone.costs["cpu"] = TaskCosts(1, 1)
        clone.deadline = 99
        assert "cpu" not in task.costs
        assert task.deadline == 50


class TestTaskStats:
    def test_stats_per_instance(self):
        # Platform with repeated types: stats are per PE *instance*.
        task = Task(name="t", costs={"a": TaskCosts(10, 100), "b": TaskCosts(30, 300)})
        stats = task.stats_over(["a", "a", "b", "b"])
        assert stats.mean_time == 20
        assert stats.mean_energy == 200
        assert stats.n_feasible == 4
        # Population variance of [10, 10, 30, 30] is 100.
        assert stats.var_time == pytest.approx(100.0)
        assert stats.var_energy == pytest.approx(10000.0)

    def test_infeasible_instances_excluded(self):
        task = Task(
            name="t",
            costs={"a": TaskCosts(10, 100), "x": TaskCosts(math.inf, 0)},
        )
        stats = task.stats_over(["a", "x", "x"])
        assert stats.n_feasible == 1
        assert stats.mean_time == 10
        assert stats.var_time == 0.0

    def test_no_feasible_pe_raises(self):
        task = Task(name="t", costs={"a": TaskCosts(math.inf, 0)})
        with pytest.raises(CTGError):
            task.stats_over(["a"])

    def test_homogeneous_platform_zero_variance(self):
        task = Task(name="t", costs={"a": TaskCosts(10, 100)})
        stats = task.stats_over(["a", "a", "a"])
        assert stats.var_time == 0.0
        assert stats.var_energy == 0.0


class TestCommEdge:
    def test_valid(self):
        edge = CommEdge(src="a", dst="b", volume=100.0)
        assert edge.volume == 100.0

    def test_self_loop_rejected(self):
        with pytest.raises(CTGError):
            CommEdge(src="a", dst="a")

    def test_negative_volume_rejected(self):
        with pytest.raises(CTGError):
            CommEdge(src="a", dst="b", volume=-1.0)
