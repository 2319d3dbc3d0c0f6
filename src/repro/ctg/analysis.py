"""Graph analyses shared by the schedulers.

These are platform-parameterised: costs are reduced to per-task scalars
(mean execution time over the platform's PE instances) before any path
arithmetic, exactly as the paper's slack-budgeting step does with ``M_t``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.ctg.graph import CTG


def mean_exec_times(ctg: CTG, pe_types: Sequence[str]) -> Dict[str, float]:
    """``M_t`` for every task: mean execution time over the PE instances."""
    return {t.name: t.stats_over(pe_types).mean_time for t in ctg.tasks()}


def longest_mean_path_into(ctg: CTG, values: Mapping[str, float]) -> Dict[str, float]:
    """Longest value-sum over paths from any source up to and including each task.

    ``values`` gives the per-task path contribution (e.g. mean execution
    time).
    """
    result: Dict[str, float] = {}
    for name in ctg.topological_order():
        best = max((result[p] for p in ctg.predecessors(name)), default=0.0)
        result[name] = best + values[name]
    return result


def critical_path_length(ctg: CTG, pe_types: Sequence[str]) -> float:
    """Length (sum of mean execution times) of the longest path in the CTG."""
    means = mean_exec_times(ctg, pe_types)
    into = longest_mean_path_into(ctg, means)
    return max(into.values()) if into else 0.0


def propagate_deadlines(
    ctg: CTG, deadlines: Dict[str, float], means: Mapping[str, float]
) -> Dict[str, float]:
    """Tighten ``deadlines`` in place so ``d(i) <= d(j) - M_j`` on every edge.

    One reverse-topological pass of ``d(i) = min(d(i), d(j) - M_j)`` in
    successor order: each successor's mean execution must still meet its
    deadline.  Returns ``deadlines``.
    """
    for name in reversed(ctg.topological_order()):
        for succ in ctg.successors(name):
            candidate = deadlines[succ] - means[succ]
            if candidate < deadlines[name]:
                deadlines[name] = candidate
    return deadlines


def effective_deadlines(ctg: CTG, pe_types: Sequence[str]) -> Dict[str, float]:
    """Each task's own deadline (``inf`` if it has none), tightened by
    :func:`propagate_deadlines`: interior tasks inherit their successors'."""
    own = {t.name: t.deadline for t in ctg.tasks()}
    return propagate_deadlines(ctg, own, mean_exec_times(ctg, pe_types))
