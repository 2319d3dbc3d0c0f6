"""Tests for CTG analyses: longest paths, effective deadlines."""

import math


from repro.ctg.analysis import (
    critical_path_length,
    effective_deadlines,
    longest_mean_path_into,
    mean_exec_times,
)
from repro.ctg.graph import CTG

from tests.conftest import uniform_task

PE_TYPES = ["cpu", "dsp", "arm", "risc"]


def layered_ctg():
    """a -> b -> d, a -> c -> d with distinct uniform times."""
    ctg = CTG(name="layered")
    ctg.add_task(uniform_task("a", 10, 1))
    ctg.add_task(uniform_task("b", 20, 1))
    ctg.add_task(uniform_task("c", 50, 1))
    ctg.add_task(uniform_task("d", 5, 1, deadline=200.0))
    ctg.connect("a", "b")
    ctg.connect("a", "c")
    ctg.connect("b", "d")
    ctg.connect("c", "d")
    return ctg


class TestLongestPaths:
    def test_into(self):
        ctg = layered_ctg()
        means = mean_exec_times(ctg, PE_TYPES)
        into = longest_mean_path_into(ctg, means)
        assert into["a"] == 10
        assert into["b"] == 30
        assert into["c"] == 60
        assert into["d"] == 65  # through c, the longer branch

    def test_critical_path_length(self):
        assert critical_path_length(layered_ctg(), PE_TYPES) == 65

class TestEffectiveDeadlines:
    def test_propagation(self):
        ctg = layered_ctg()
        eff = effective_deadlines(ctg, PE_TYPES)
        assert eff["d"] == 200
        # b inherits d's deadline minus d's mean time.
        assert eff["b"] == 195
        assert eff["c"] == 195
        # a takes the min over both branches: 195 - 50 (c) = 145.
        assert eff["a"] == 145

    def test_no_deadline_anywhere(self):
        ctg = CTG()
        ctg.add_task(uniform_task("x", 10, 1))
        assert effective_deadlines(ctg, PE_TYPES)["x"] == math.inf

    def test_own_deadline_tighter_than_inherited(self):
        ctg = layered_ctg()
        ctg.task("b").deadline = 50.0
        eff = effective_deadlines(ctg, PE_TYPES)
        assert eff["b"] == 50.0
        assert eff["a"] == 30.0  # 50 - 20 beats 145
