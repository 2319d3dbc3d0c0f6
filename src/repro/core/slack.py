"""EAS Step 1: budget slack allocation (paper Sec. 5, Step 1).

For each task three platform statistics are computed — ``VAR_e`` (energy
variance across PEs), ``VAR_r`` (execution-time variance) and ``M_t``
(mean execution time) — and a weight ``W_t = VAR_e * VAR_r``.  The slack
of every deadline-constrained path is then split among the path's tasks
proportionally to their weights, giving each task a **budgeted deadline
(BD)**: the internal per-task deadline the level-based scheduler steers
by.  High-weight tasks (whose PE choice matters most) receive more slack
and therefore more placement freedom.

Generalisation to DAGs (the paper shows only a chain): one
longest-mean-path DP runs forward over the whole CTG, and one runs
backward over the ancestor cone of each deadline task ``t_d``.  The
binding path through a task ``i`` is the max-mean prefix into ``i``
joined with the max-mean suffix from ``i`` to ``t_d``; the slack of
*that* path is distributed along it by weight, and ``BD(i)`` is the
prefix sum at ``i``.  The budget is the minimum over all deadline tasks
reachable from ``i``, made edge-consistent by
:func:`repro.ctg.analysis.propagate_deadlines`.  On a chain this reduces
exactly to the paper's Fig. 2 example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.ctg.analysis import propagate_deadlines
from repro.ctg.graph import CTG
from repro.ctg.task import TaskStats
from repro.errors import SchedulingError

WeightPolicy = Callable[[TaskStats], float]


def weight_var_product(stats: TaskStats) -> float:
    """The paper's weight: ``W = VAR_e * VAR_r``."""
    return stats.var_energy * stats.var_time


def weight_var_energy(stats: TaskStats) -> float:
    """Ablation variant: energy variance only."""
    return stats.var_energy


def weight_var_time(stats: TaskStats) -> float:
    """Ablation variant: execution-time variance only."""
    return stats.var_time


def weight_uniform(stats: TaskStats) -> float:
    """Ablation variant: uniform slack split (ignores heterogeneity)."""
    return 1.0


WEIGHT_POLICIES: Dict[str, WeightPolicy] = {
    "var-product": weight_var_product,
    "var-energy": weight_var_energy,
    "var-time": weight_var_time,
    "uniform": weight_uniform,
}


@dataclass
class TaskBudget:
    """Step-1 outputs for one task."""

    task: str
    mean_time: float
    weight: float
    budgeted_deadline: float
    stats: TaskStats

    def __repr__(self) -> str:
        return (
            f"TaskBudget({self.task}, M={self.mean_time:g}, W={self.weight:g}, "
            f"BD={self.budgeted_deadline:g})"
        )


def compute_budgets(
    ctg: CTG,
    acg: ACG,
    weight_policy: WeightPolicy = weight_var_product,
) -> Dict[str, TaskBudget]:
    """Compute the budgeted deadline of every task.

    Args:
        ctg: the application graph.
        acg: the platform (supplies the PE-instance list for the
            statistics).
        weight_policy: maps :class:`TaskStats` to the slack weight
            ``W_t``; defaults to the paper's variance product.

    Returns:
        task name -> :class:`TaskBudget`; tasks from which no deadline is
        reachable get ``budgeted_deadline = inf``.
    """
    ins = obs.get()
    with ins.tracer.span("slack_budgeting", ctg=ctg.name, tasks=ctg.n_tasks) as span:
        budgets = _compute_budgets_impl(ctg, acg, weight_policy)
        ins.metrics.counter("slack.budgets_computed").inc(len(budgets))
        span.set_attribute("deadline_tasks", len(ctg.deadline_tasks()))
        return budgets


def _compute_budgets_impl(
    ctg: CTG,
    acg: ACG,
    weight_policy: WeightPolicy,
) -> Dict[str, TaskBudget]:
    pe_types = acg.pe_type_names()
    stats: Dict[str, TaskStats] = {}
    mean_time: Dict[str, float] = {}
    weight: Dict[str, float] = {}
    for task in ctg.tasks():
        s = task.stats_over(pe_types)
        stats[task.name] = s
        mean_time[task.name] = s.mean_time
        weight[task.name] = weight_policy(s)
        if weight[task.name] < 0:
            raise SchedulingError(f"weight policy returned negative weight for {task.name!r}")

    topo = ctg.topological_order()
    budgets: Dict[str, float] = {name: math.inf for name in topo}

    # Every predecessor of a cone member is in the cone, so the prefix DP
    # restricted to any deadline task's ancestor cone equals this one.
    up_m, up_w = _paired_longest(topo, ctg.predecessors, mean_time, weight)
    for deadline_task in ctg.deadline_tasks():
        deadline = ctg.task(deadline_task).deadline
        cone = ctg.ancestors(deadline_task)
        cone.add(deadline_task)
        down_m, down_w = _paired_longest(
            [name for name in reversed(topo) if name in cone], ctg.successors, mean_time, weight
        )
        for name in cone:
            total_m = up_m[name] + down_m[name] - mean_time[name]
            total_w = up_w[name] + down_w[name] - weight[name]
            slack = deadline - total_m
            if total_w > 0:
                share = up_w[name] / total_w
            elif total_m > 0:
                # Degenerate all-zero weights: fall back to time-proportional.
                share = up_m[name] / total_m
            else:
                share = 1.0
            bd = up_m[name] + slack * share
            if bd < budgets[name]:
                budgets[name] = bd

    # Final consistency pass, ``BD(i) <= BD(j) - M_j`` on every edge: the
    # per-deadline DP can violate it where the max-mean path into a task
    # carries a different weight mass than its successor's (never on a
    # chain, so the paper's example is unaffected).
    propagate_deadlines(ctg, budgets, mean_time)

    return {
        name: TaskBudget(
            task=name,
            mean_time=mean_time[name],
            weight=weight[name],
            budgeted_deadline=budgets[name],
            stats=stats[name],
        )
        for name in topo
    }


def _paired_longest(
    order: Sequence[str],
    neighbours: Callable[[str], List[str]],
    value: Dict[str, float],
    weight: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Longest value-sum DP carrying the weight sum of the argmax path.

    Visits ``order`` (topological or reversed) and extends each task's
    best path over its already-visited ``neighbours``; others are ignored.
    ``best_m[i]`` is the largest value-sum over those paths ending at ``i``
    inclusive, ``best_w[i]`` the weight-sum along that same path (ties go
    to the larger weight-sum, so slack shares stay well defined).
    """
    best_m: Dict[str, float] = {}
    best_w: Dict[str, float] = {}
    for name in order:
        path_m = 0.0
        path_w = 0.0
        for other in neighbours(name):
            if other in best_m:
                cand_m, cand_w = best_m[other], best_w[other]
                if cand_m > path_m or (cand_m == path_m and cand_w > path_w):
                    path_m, path_w = cand_m, cand_w
        best_m[name] = path_m + value[name]
        best_w[name] = path_w + weight[name]
    return best_m, best_w
