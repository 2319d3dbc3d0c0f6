"""Property tests: the optimised schedulers equal the paper-literal oracle.

``repro.core.reference`` keeps Hu & Marculescu's algorithm literal — every
F(i,k) recomputed each RTL iteration, every route re-merged per probe,
every repair candidate rebuilt from scratch.  For generated CTGs on mesh
and torus platforms from 2x2 to 4x4, across deadline scales and with
contention on or off, the production paths must produce byte-identical
serializations, identical repair reports and exactly replayable decision
provenance.  The pinned ``@example`` cases make sure the evaluation cache
hits, a Rule-3 rescue fires and Step-3 repair accepts moves.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.acg import ACG
from repro.arch.presets import DEFAULT_TYPE_CYCLE
from repro.arch.topology import Mesh2D, Torus2D
from repro.core.eas import EASConfig, eas_base_schedule, eas_schedule
from repro.core.reference import (
    full_rebuild_repair,
    reference_eas_base_schedule,
    reference_eas_schedule,
)
from repro.core.repair import RepairConfig, search_and_repair
from repro.ctg.generator import generate_category
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
    """The pinned cases hit the cache, rescue a task and repair for real."""
    hits = rescues = accepted = 0
    for case in EXAMPLES:
        ctg, acg, config = build(case)
        base, metrics = run(eas_base_schedule, ctg, acg, config)
        hits += metrics.counter("eas.cache_hits").value
        rescues += metrics.counter("eas.rescues").value
        (_repaired, report), _ = run(search_and_repair, base, REPAIR)
        accepted += report.swaps_accepted + report.migrations_accepted
        # The reference never hits the evaluation cache.
        _reference, metrics = run(reference_eas_base_schedule, ctg, acg, config)
        assert metrics.counter("eas.cache_hits").value == 0
    assert hits > 0, "examples never hit the evaluation cache"
    assert rescues > 0, "examples never triggered a Rule-3 rescue"
    assert accepted > 0, "examples never accepted a Step-3 repair move"
