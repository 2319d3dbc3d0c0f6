"""Property tests: the incremental engine's pre-replay filters are exact.

``IncrementalRebuilder`` rejects candidates before replaying them with
two filters (DESIGN.md, "Incremental repair engine", mechanism 5).  On
the generated rebuild cases of ``tests/test_property_reference.py`` —
one LTS swap, one GTM move or a shuffled PE order, with no prefix and
behind a frozen prefix whose floor is above zero — they must agree with
a full rebuild:

* the order-cycle check reports a deadlock exactly when
  ``rebuild_schedule`` raises ``InfeasibleOrderError``;
* at every frontier the candidate shares with the incumbent, each open
  task's finish bound is at most its finish in the candidate's rebuild;
* the bound never rejects against an incumbent the candidate beats, even
  one just above the candidate's own metric.
"""

from __future__ import annotations

import math

from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.arch.acg import ACG
from repro.arch.presets import DEFAULT_TYPE_CYCLE
from repro.arch.topology import Mesh2D
from repro.core.eas import eas_base_schedule
from repro.core.increbuild import IncrementalRebuilder
from repro.core.rebuild import NO_PREFIX, miss_metric, rebuild_schedule, rebuild_schedule_traced
from repro.ctg.generator import generate_category
from repro.errors import InfeasibleOrderError
from repro.faults.plan import FaultPlan, TransientFault
from repro.faults.recovery import classify_salvage, kept_comm_keys, salvage_prefix
from repro.rng import make_rng

from tests.test_property_reference import PROPERTY, REBUILD_EXAMPLES, _perturbed

#: The rebuild cases of the reference property tests, plus a shuffled PE
#: order, and a deadline scale so that incumbents miss deadlines.
filter_cases = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=6, max_value=24),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["none", "swap", "move", "shuffle"]),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.1, max_value=0.9),
    st.sampled_from([0.5, 0.65, 1.0]),
)

#: Pinned cases, all with tight deadlines: the reference's swap and move,
#: a move the bound rejects behind the prefix and a shuffle that deadlocks.
FILTER_EXAMPLES = [case + (0.65,) for case in REBUILD_EXAMPLES] + [
    (0, 20, 3, 3, "move", 9, 0.4, 0.65),
    (1, 20, 3, 3, "shuffle", 1, 0.4, 0.65),
]


def _case(case):
    """The base schedule, a prefix with floor > 0 and one candidate (mapping, orders)."""
    index, n_tasks, rows, cols, kind, draw, fraction, scale = case
    ctg = generate_category(2, index, n_tasks=n_tasks).with_scaled_deadlines(scale)
    types = [DEFAULT_TYPE_CYCLE[i % len(DEFAULT_TYPE_CYCLE)] for i in range(rows * cols)]
    acg = ACG(Mesh2D(rows, cols), pe_types=types)
    base = eas_base_schedule(ctg, acg)
    t = base.makespan() * fraction
    channels = sorted({tuple(sorted((link.src, link.dst))) for link in acg.all_links()})
    src, dst = channels[draw % len(channels)]
    plan = FaultPlan(
        "transient", transient_faults=(TransientFault(src, dst, t, t + 0.3 * base.makespan()),)
    )
    salvaged, _rerun = classify_salvage(base, t, frozenset())
    prefix = salvage_prefix(base, salvaged, kept_comm_keys(base, salvaged), plan)
    if kind == "shuffle":
        mapping, orders = _shuffled(base, prefix, draw)
    else:
        mapping, orders = _perturbed(base, prefix, kind, draw)
    return ctg, acg, base, prefix, mapping, orders


def _shuffled(base, prefix, draw: int):
    """``base``'s orders with the open tasks of one PE in a random order."""
    mapping = dict(base.mapping())
    orders = {pe: list(names) for pe, names in base.pe_order().items()}
    busy = sorted(pe for pe, names in prefix.open_orders(orders).items() if len(names) > 1)
    if busy:
        order = orders[busy[draw % len(busy)]]
        slots = [i for i, name in enumerate(order) if name not in prefix.tasks]
        names = [order[i] for i in slots]
        make_rng(draw).shuffle(names)
        for i, name in zip(slots, names):
            order[i] = name
    return mapping, orders


def _engine(ctg, acg, base, prefix):
    """An engine whose incumbent is ``base`` rebuilt from ``prefix``."""
    engine = IncrementalRebuilder(ctg, acg, base.mapping(), base.pe_order(), prefix=prefix)
    engine._ensure_incumbent()
    return engine


def _incumbent_metric(ctg, acg, base, prefix):
    """The miss metric of ``base`` rebuilt from ``prefix``."""
    return miss_metric(rebuild_schedule(ctg, acg, base.mapping(), base.pe_order(), prefix=prefix))


def _shared_steps(engine, trace) -> int:
    """How many leading steps ``trace`` shares with the engine's incumbent trace."""
    shared = 0
    for ours, theirs in zip(engine._trace, trace):
        if ours != theirs:
            break
        shared += 1
    return shared


def _example_filters(test):
    for case in FILTER_EXAMPLES:
        test = example(case)(test)
    return test


@_example_filters
@PROPERTY
@given(filter_cases)
def test_cycle_check_matches_rebuild_deadlock(case):
    ctg, acg, base, prefix, mapping, orders = _case(case)
    for frozen in (NO_PREFIX, prefix):
        engine = _engine(ctg, acg, base, frozen)
        open_orders = frozen.open_orders(orders)
        changed_pes = {pe for pe, _names in engine._signature(mapping, open_orders)[1]}
        try:
            rebuild_schedule(ctg, acg, mapping, orders, prefix=frozen)
            deadlocks = False
        except InfeasibleOrderError:
            deadlocks = True
        assert engine._deadlocks(open_orders, changed_pes) == deadlocks


@_example_filters
@PROPERTY
@given(filter_cases)
def test_finish_bounds_never_exceed_the_rebuild(case):
    ctg, acg, base, prefix, mapping, orders = _case(case)
    assert prefix.floor > 0.0
    for frozen in (NO_PREFIX, prefix):
        try:
            candidate, trace = rebuild_schedule_traced(ctg, acg, mapping, orders, prefix=frozen)
        except InfeasibleOrderError:
            continue
        engine = _engine(ctg, acg, base, frozen)
        metric = miss_metric(candidate)
        # Incumbents the candidate beats, the second by one ulp of tardiness.
        beaten = [(metric[0] + 1, 0.0), (metric[0], math.nextafter(metric[1], math.inf))]
        placements = {placement.task: placement for placement in frozen.placements}
        for k in range(_shared_steps(engine, trace) + 1):
            for name, bound in engine._finish_bounds(k, mapping, placements):
                assert bound <= candidate.placement(name).finish, (k, name)
            for incumbent in beaten:
                assert not engine._cannot_win(k, mapping, placements, incumbent), (k, incumbent)
            if k < len(trace):
                placements[trace[k].task] = trace[k].placement


@_example_filters
@PROPERTY
@given(filter_cases)
def test_bound_rejects_only_losing_candidates(case):
    ctg, acg, base, prefix, mapping, orders = _case(case)
    for frozen in (NO_PREFIX, prefix):
        incumbent = _incumbent_metric(ctg, acg, base, frozen)
        bundle = obs.Instrumentation.disabled()
        with obs.activate(bundle):
            result = _engine(ctg, acg, base, frozen).evaluate(mapping, orders, incumbent)
        if bundle.metrics.counter("repair.bound_rejects").value:
            assert result is None
            full = rebuild_schedule(ctg, acg, mapping, orders, prefix=frozen)
            assert not miss_metric(full) < incumbent


def test_examples_exercise_both_filters():
    """The pinned cases deadlock, and the bound rejects against a missing incumbent."""
    deadlocks = bound_rejects = 0
    for case in FILTER_EXAMPLES:
        ctg, acg, base, prefix, mapping, orders = _case(case)
        for frozen in (NO_PREFIX, prefix):
            incumbent = _incumbent_metric(ctg, acg, base, frozen)
            bundle = obs.Instrumentation.disabled()
            with obs.activate(bundle):
                _engine(ctg, acg, base, frozen).evaluate(mapping, orders, incumbent)
            deadlocks += bundle.metrics.counter("repair.deadlock_rejects").value
            if incumbent[0] > 0:
                bound_rejects += bundle.metrics.counter("repair.bound_rejects").value
    assert deadlocks > 0, "examples never deadlocked"
    assert bound_rejects > 0, "examples never bound-rejected a candidate of a missing incumbent"
