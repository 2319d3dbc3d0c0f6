"""Property tests: the optimised schedulers equal the paper-literal oracle.

``repro.core.reference`` keeps Hu & Marculescu's algorithm literal — every
F(i,k) recomputed each RTL iteration, every route re-merged per probe,
every repair candidate rebuilt from scratch.  For generated CTGs on mesh
and torus platforms from 2x2 to 4x4, across deadline scales and with
contention on or off, the production paths must produce byte-identical
serializations, identical repair reports and exactly replayable decision
provenance.  The pinned ``@example`` cases make sure the evaluation cache
hits, a Rule-3 rescue fires and Step-3 repair accepts moves.

Fault plans are a dimension too: degraded-mode recovery (whose repair
runs on the incremental engine from the salvaged prefix) must equal the
same recovery repaired by a full rebuild per candidate.

The rebuild loop's probe cache is checked on its own as well: for a
mapping and per-PE orders after one LTS swap or GTM move, with and
without a frozen prefix, the commit trace must not depend on whether
probes survive a commit.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.acg import ACG
from repro.arch.presets import DEFAULT_TYPE_CYCLE
from repro.arch.topology import Mesh2D, Torus2D
from repro.core import increbuild, rebuild
from repro.core.eas import EASConfig, eas_base_schedule, eas_schedule
from repro.core.placement import ProbeCache
from repro.core.reference import (
    ClearingProbeCache,
    full_rebuild_repair,
    reference_eas_base_schedule,
    reference_eas_schedule,
)
from repro.core.repair import RepairConfig, search_and_repair
from repro.ctg.generator import generate_category
from repro.errors import SchedulingError, UnroutableError
from repro.faults.plan import FaultPlan, LinkFault, PEFault, TransientFault
from repro.faults.recovery import (
    UnsurvivableFaultError,
    classify_salvage,
    inject_and_recover,
    kept_comm_keys,
    salvage_prefix,
)
from repro.obs.explain import verify_decision_components
from repro.rng import make_rng
from repro.schedule.serialization import schedule_to_json

#: (category, index, n_tasks, deadline scale, topology, rows, cols,
#: type-shuffle seed, contention_aware)
cases = st.tuples(
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=4, max_value=22),
    st.sampled_from([0.5, 0.65, 1.0]),
    st.sampled_from(["mesh", "torus"]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
    st.booleans(),
)

#: Pinned cases: a Rule-3 rescue with repair that cannot fix every miss,
#: a repair that accepts moves, and a loose graph with many cache hits.
EXAMPLES = [
    (2, 1, 16, 0.55, "mesh", 3, 3, None, True),
    (2, 5, 20, 0.65, "mesh", 3, 3, None, True),
    (1, 0, 22, 1.0, "torus", 3, 4, 4, True),
]

#: Step-3 bounds for the repair comparison (full rebuilds are slow).
REPAIR = RepairConfig(max_rounds=4, max_migrations_per_round=48)

PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def build(case):
    category, index, n_tasks, scale, kind, rows, cols, shuffle, contention = case
    ctg = generate_category(category, index, n_tasks=n_tasks)
    if scale != 1.0:
        ctg = ctg.with_scaled_deadlines(scale)
    topology = (Mesh2D if kind == "mesh" else Torus2D)(rows, cols)
    types = [DEFAULT_TYPE_CYCLE[i % len(DEFAULT_TYPE_CYCLE)] for i in range(rows * cols)]
    if shuffle is not None:
        make_rng(shuffle).shuffle(types)
    return ctg, ACG(topology, pe_types=types), EASConfig(contention_aware=contention)


def run(fn, *args):
    """``(fn(*args), metrics)`` with decision provenance recorded."""
    bundle = obs.Instrumentation.enabled()
    with obs.activate(bundle):
        result = fn(*args)
    return result, bundle.metrics


def dump(schedule) -> str:
    """The serialization without the wall-clock stamp."""
    schedule.runtime_seconds = 0.0
    return schedule_to_json(schedule)


def _example_all(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@_example_all
@PROPERTY
@given(cases)
def test_eas_matches_reference(case):
    ctg, acg, config = build(case)
    schedule, _ = run(eas_schedule, ctg, acg, config)
    reference, _ = run(reference_eas_schedule, ctg, acg, config)
    assert dump(schedule) == dump(reference)
    for recorded in (schedule, reference):
        assert len(recorded.provenance) == ctg.n_tasks
        assert (
            verify_decision_components(
                ctg, acg, recorded.provenance, contention_aware=config.contention_aware
            )
            == []
        )


@_example_all
@PROPERTY
@given(cases)
def test_incremental_repair_matches_full_rebuild(case):
    ctg, acg, config = build(case)
    base = eas_base_schedule(ctg, acg, config)
    (incremental, incremental_report), _ = run(search_and_repair, base, REPAIR)
    (full, full_report), _ = run(full_rebuild_repair, base, REPAIR)
    assert dump(incremental) == dump(full)
    assert repr(incremental_report) == repr(full_report)


def test_examples_exercise_every_optimised_path():
    """The pinned cases hit both caches, rescue a task and repair for real."""
    hits = rescues = accepted = probe_hits = 0
    for case in EXAMPLES:
        ctg, acg, config = build(case)
        base, metrics = run(eas_base_schedule, ctg, acg, config)
        hits += metrics.counter("eas.cache_hits").value
        rescues += metrics.counter("eas.rescues").value
        (_repaired, report), metrics = run(search_and_repair, base, REPAIR)
        accepted += report.swaps_accepted + report.migrations_accepted
        probe_hits += metrics.counter("rebuild.probe_hits").value
        # The reference never hits either cache.
        _reference, metrics = run(reference_eas_base_schedule, ctg, acg, config)
        assert metrics.counter("eas.cache_hits").value == 0
        _reference, metrics = run(full_rebuild_repair, base, REPAIR)
        assert metrics.counter("rebuild.probe_hits").value == 0
    assert hits > 0, "examples never hit the evaluation cache"
    assert probe_hits > 0, "examples never hit the rebuild probe cache"
    assert rescues > 0, "examples never triggered a Rule-3 rescue"
    assert accepted > 0, "examples never accepted a Step-3 repair move"


# -- the rebuild loop's probe cache ---------------------------------------------

#: (category-II index, n_tasks, rows, cols, move kind, draw picking the
#: move, prefix cut as a fraction of the base makespan).
rebuild_cases = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=6, max_value=24),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["none", "swap", "move"]),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.1, max_value=0.9),
)

#: Pinned cases: an LTS swap and a GTM move, each behind a prefix.
REBUILD_EXAMPLES = [
    (1, 20, 3, 3, "swap", 7, 0.4),
    (5, 24, 3, 3, "move", 11, 0.5),
]


def _perturbed(base, prefix, kind: str, draw: int):
    """``base``'s mapping and per-PE orders after one LTS swap or GTM move.

    Only open tasks move, so the pair is a valid input with and without
    ``prefix``.  Swaps exchange two tasks adjacent in a PE's open order;
    a move re-inserts a task on another PE that can run it.
    """
    mapping = dict(base.mapping())
    orders = {pe: list(names) for pe, names in base.pe_order().items()}
    open_orders = prefix.open_orders(orders)
    if kind == "swap":
        pairs = [
            (names[j], names[j + 1])
            for _pe, names in sorted(open_orders.items())
            for j in range(len(names) - 1)
        ]
        if pairs:
            a, b = pairs[draw % len(pairs)]
            order = orders[mapping[a]]
            i, j = order.index(a), order.index(b)
            order[i], order[j] = b, a
    elif kind == "move":
        ctg, acg = base.ctg, base.acg
        moves = [
            (name, pe.index)
            for _pe, names in sorted(open_orders.items())
            for name in names
            for pe in acg.pes
            if pe.index != mapping[name] and ctg.task(name).cost_on(pe.type_name).feasible
        ]
        if moves:
            name, dst = moves[draw % len(moves)]
            orders[mapping[name]].remove(name)
            destination = orders.setdefault(dst, [])
            destination.insert(draw % (len(destination) + 1), name)
            mapping[name] = dst
    return mapping, orders


def _commit_trace(ctg, acg, mapping, orders, prefix, cache_type):
    """The rebuild's commit trace, or the name of the error it raised."""
    try:
        _schedule, trace = rebuild.rebuild_schedule_traced(
            ctg, acg, mapping, orders, prefix=prefix, cache_type=cache_type
        )
    except (SchedulingError, UnroutableError) as exc:
        return type(exc).__name__
    return repr(trace)


def _example_rebuilds(test):
    for case in REBUILD_EXAMPLES:
        test = example(case)(test)
    return test


@_example_rebuilds
@PROPERTY
@given(rebuild_cases)
def test_rebuild_probe_cache_matches_clearing_cache(case):
    index, n_tasks, rows, cols, kind, draw, fraction = case
    ctg = generate_category(2, index, n_tasks=n_tasks)
    types = [DEFAULT_TYPE_CYCLE[i % len(DEFAULT_TYPE_CYCLE)] for i in range(rows * cols)]
    acg = ACG(Mesh2D(rows, cols), pe_types=types)
    base = eas_base_schedule(ctg, acg)
    # A transient outage on one channel from the cut on: the prefix
    # carries the floor, the salvaged past and the pseudo-reservation.
    t = base.makespan() * fraction
    channels = sorted({tuple(sorted((link.src, link.dst))) for link in acg.all_links()})
    src, dst = channels[draw % len(channels)]
    plan = FaultPlan(
        "transient", transient_faults=(TransientFault(src, dst, t, t + 0.3 * base.makespan()),)
    )
    salvaged, _rerun = classify_salvage(base, t, frozenset())
    prefix = salvage_prefix(base, salvaged, kept_comm_keys(base, salvaged), plan)
    mapping, orders = _perturbed(base, prefix, kind, draw)
    for frozen in (rebuild.NO_PREFIX, prefix):
        cached = _commit_trace(ctg, acg, mapping, orders, frozen, ProbeCache)
        clearing = _commit_trace(ctg, acg, mapping, orders, frozen, ClearingProbeCache)
        assert cached == clearing


# -- fault plans ------------------------------------------------------------------

#: (category-II index, n_tasks, deadline scale, rows, cols, fault time as
#: a fraction of the committed makespan, draw picking the PE and channel).
#: One-row meshes let a single fault partition the NoC.
fault_cases = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=6, max_value=18),
    st.sampled_from([0.55, 0.65, 0.8]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=3, max_value=4),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=1000),
)

#: Pinned cases: recovery repair accepting moves on a 2-D mesh, and on a
#: one-row mesh where the cut leaves candidates unroutable.
FAULT_EXAMPLES = [
    (0, 12, 0.55, 2, 3, 0.3, 1),
    (0, 16, 0.65, 1, 3, 0.3, 1),
]

#: Step-3 bound inside recovery (the oracle rebuilds every candidate).
RECOVERY = EASConfig(max_repair_rounds=3)

FAULT_PROPERTY = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def fault_plans(acg, makespan: float, fraction: float, pick: int):
    """A PE death, a link cut and a transient window, all at ``fraction``."""
    t = makespan * fraction
    channels = sorted({tuple(sorted((link.src, link.dst))) for link in acg.all_links()})
    src, dst = channels[pick % len(channels)]
    return [
        FaultPlan("pe", pe_faults=(PEFault(pick % acg.n_pes, t),)),
        FaultPlan("link", link_faults=(LinkFault(src, dst, t),)),
        FaultPlan(
            "transient", transient_faults=(TransientFault(src, dst, t, t + 0.3 * makespan),)
        ),
    ]


def committed_with_plans(case):
    index, n_tasks, scale, rows, cols, fraction, pick = case
    ctg = generate_category(2, index, n_tasks=n_tasks).with_scaled_deadlines(scale)
    types = [DEFAULT_TYPE_CYCLE[i % len(DEFAULT_TYPE_CYCLE)] for i in range(rows * cols)]
    acg = ACG(Mesh2D(rows, cols), pe_types=types)
    committed = eas_schedule(ctg, acg)
    return committed, fault_plans(acg, committed.makespan(), fraction, pick)


def recover(committed, plan):
    """The recovery's serialization and report, or the unsurvivable verdict."""
    try:
        result = inject_and_recover(committed, plan, RECOVERY)
    except UnsurvivableFaultError as exc:
        return ("unsurvivable", str(exc)), None
    return (dump(result.recovery), repr(result.repair_report)), result.repair_report


def _example_faults(test):
    for case in FAULT_EXAMPLES:
        test = example(case)(test)
    return test


@_example_faults
@FAULT_PROPERTY
@given(fault_cases)
def test_recovery_repair_matches_full_rebuild(case):
    committed, plans = committed_with_plans(case)
    for plan in plans:
        incremental, _ = recover(committed, plan)
        with mock.patch("repro.faults.recovery.search_and_repair", full_rebuild_repair):
            full, _ = recover(committed, plan)
        assert incremental == full, plan.name


def test_fault_examples_exercise_recovery_repair():
    """The pinned fault cases accept a move and reject an unroutable one."""
    accepted = unroutable = 0
    probe_mapped = rebuild.probe_mapped

    def counting_probe(*args, **kwargs):
        nonlocal unroutable
        try:
            return probe_mapped(*args, **kwargs)
        except UnroutableError:
            unroutable += 1
            raise

    with mock.patch.object(rebuild, "probe_mapped", counting_probe), mock.patch.object(
        increbuild, "probe_mapped", counting_probe
    ):
        for case in FAULT_EXAMPLES:
            committed, plans = committed_with_plans(case)
            for plan in plans:
                _outcome, report = recover(committed, plan)
                if report is not None:
                    accepted += report.swaps_accepted + report.migrations_accepted
    assert accepted > 0, "fault examples never accepted a recovery repair move"
    assert unroutable > 0, "fault examples never rejected an unroutable candidate"
