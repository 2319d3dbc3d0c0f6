"""Property tests: ``Task.stats_over`` equals the per-instance loop it replaced.

``stats_over`` reads each PE instance's costs with one dict lookup and
keeps the per-instance lists in PE order, so every mean and variance is
the same float the literal loop below computes: one ``cost_on`` per
instance, infeasible instances dropped, the variance summed from a
generator.  Compared by ``repr``, over repeated, infeasible, missing and
distinct type lists.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctg.task import INFEASIBLE, Task, TaskCosts, TaskStats
from repro.errors import InfeasibleTaskError

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

#: the task's cost table draws from the first four; the rest are missing.
TYPES = ("cpu", "dsp", "arm", "risc", "gpu", "fpga")


def literal_stats(task: Task, pe_types) -> TaskStats:
    """The per-instance loop: ``cost_on`` for every PE instance."""
    times = []
    energies = []
    for pe_type in pe_types:
        cost = task.cost_on(pe_type)
        if cost.feasible:
            times.append(cost.time)
            energies.append(cost.energy)
    if not times:
        raise InfeasibleTaskError(f"task {task.name!r} cannot run on any PE of the platform")

    def mean(values):
        return sum(values) / len(values)

    def variance(values):
        mu = mean(values)
        return sum((v - mu) ** 2 for v in values) / len(values)

    return TaskStats(
        mean_time=mean(times),
        var_time=variance(times),
        mean_energy=mean(energies),
        var_energy=variance(energies),
        n_feasible=len(times),
    )


finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
costs = st.one_of(
    st.builds(TaskCosts, time=finite, energy=finite),
    st.builds(TaskCosts, time=st.just(INFEASIBLE), energy=finite),
)
tasks = st.builds(
    Task,
    name=st.just("t"),
    costs=st.dictionaries(st.sampled_from(TYPES[:4]), costs, max_size=4),
)
type_lists = st.one_of(
    # a platform: one entry per PE instance, types repeat
    st.lists(st.sampled_from(TYPES), max_size=40),
    # the generator's call: distinct type names
    st.lists(st.sampled_from(TYPES), unique=True),
)


def outcome(compute):
    try:
        return repr(compute())
    except InfeasibleTaskError as exc:
        return ("infeasible", str(exc))


@PROPERTY
@given(tasks, type_lists)
def test_stats_over_equals_the_per_instance_loop(task, pe_types):
    assert outcome(lambda: task.stats_over(pe_types)) == outcome(
        lambda: literal_stats(task, pe_types)
    )


@pytest.mark.parametrize(
    "pe_types",
    [
        ["cpu"] * 36,  # repeated
        ["cpu", "dsp", "arm", "risc"] * 9,  # a 6x6 mesh's cycle
        ["gpu", "fpga"],  # missing only
        ["risc", "gpu", "risc"],  # infeasible and missing only
        ["cpu", "dsp", "arm", "risc"],  # distinct
        [],
    ],
)
def test_stats_over_on_pinned_lists(pe_types):
    task = Task(
        name="t",
        costs={
            "cpu": TaskCosts(time=0.1, energy=0.7),
            "dsp": TaskCosts(time=0.2, energy=1e-3),
            "arm": TaskCosts(time=3.3, energy=math.pi),
            "risc": TaskCosts(time=INFEASIBLE, energy=1.0),
        },
    )
    assert outcome(lambda: task.stats_over(pe_types)) == outcome(
        lambda: literal_stats(task, pe_types)
    )
