"""The F(i,k) evaluation cache and the path-table cache versus the oracle.

Both optimisations must be *observationally invisible*: on the same input
the optimised scheduler and the paper-literal pieces of
``repro.core.reference`` emit byte-identical schedules — same placements,
transactions, energy, misses and decision provenance — while the
counters show the optimised side doing strictly less work.  Generated
inputs are covered by ``tests/test_property_reference.py`` (schedules)
and ``tests/test_property_tables.py`` (path probes); the fixed cases
here pin the work counters on both sides.
"""

from __future__ import annotations

from repro import obs
from repro.arch.presets import hetero_mesh
from repro.core.eas import EASConfig, LevelBasedScheduler, eas_schedule
from repro.core.rebuild import FrozenPrefix
from repro.core.reference import (
    LiteralTables,
    NaiveLevelScheduler,
    reference_eas_schedule,
)
from repro.core.slack import compute_budgets
from repro.ctg.generator import generate_category
from repro.schedule.overlay import ResourceTables


def _hetero_cases():
    """A category-I and a category-II graph on mixed 3x3 / 4x4 platforms."""
    yield (
        generate_category(1, 4, n_tasks=40, pe_type_names=("arm", "cpu", "dsp", "risc")),
        hetero_mesh(4, 4, type_cycle=("cpu", "dsp", "arm", "risc", "cpu"), shuffle_seed=204),
    )
    yield (
        generate_category(2, 9, n_tasks=36, pe_type_names=("arm", "cpu", "dsp", "risc")),
        hetero_mesh(3, 3, type_cycle=("cpu", "dsp", "arm", "risc", "dsp", "arm"), shuffle_seed=209),
    )


def _run(schedule_fn, ctg, acg, config=None):
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        schedule = schedule_fn(ctg, acg, config)
    return schedule, ins


def _level(ctg, acg, scheduler=LevelBasedScheduler, tables=ResourceTables):
    """Step 2 alone with a chosen scheduler class and tables class."""
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        budgets = compute_budgets(ctg, acg)
        schedule = scheduler(ctg, acg, budgets, prefix=FrozenPrefix(tables=tables())).run()
    return schedule, ins


def _assert_identical(naive, cached, name: str) -> None:
    assert cached.task_placements == naive.task_placements, name
    assert cached.comm_placements == naive.comm_placements, name
    assert cached.total_energy() == naive.total_energy(), name
    assert cached.deadline_misses() == naive.deadline_misses(), name
    assert cached.provenance == naive.provenance, name


def _count(ins, name: str) -> float:
    return ins.metrics.counter(name).value


class TestEquivalenceCorpus:
    def test_cached_and_naive_schedules_identical(self):
        hits = rescues = 0.0
        for ctg, acg in _hetero_cases():
            naive, naive_ins = _run(reference_eas_schedule, ctg, acg)
            cached, cached_ins = _run(eas_schedule, ctg, acg)
            _assert_identical(naive, cached, ctg.name)
            # The naive path must never touch the cache counters.
            assert _count(naive_ins, "eas.cache_hits") == 0
            assert _count(naive_ins, "eas.cache_invalidations") == 0
            hits += _count(cached_ins, "eas.cache_hits")
            rescues += _count(cached_ins, "eas.rescues")
        assert hits > 0, "cases never hit the evaluation cache"
        assert rescues > 0, "cases never triggered a Rule-3 rescue"

    def test_cached_validates_structurally(self):
        for ctg, acg in _hetero_cases():
            cached, _ = _run(eas_schedule, ctg, acg)
            cached.validate()


class TestCacheEffectiveness:
    def test_cache_cuts_full_evaluations(self):
        ctg = generate_category(1, 5, n_tasks=80)
        acg = hetero_mesh(4, 4, shuffle_seed=105)
        naive, naive_ins = _level(ctg, acg, NaiveLevelScheduler)
        cached, cached_ins = _level(ctg, acg)
        _assert_identical(naive, cached, ctg.name)
        naive_evals = _count(naive_ins, "eas.evaluations")
        cached_evals = _count(cached_ins, "eas.evaluations")
        assert cached_evals < naive_evals / 1.5
        assert _count(cached_ins, "eas.cache_hits") > 0
        assert _count(cached_ins, "eas.cache_invalidations") > 0

    def test_fixed_delay_ablation_equivalent_too(self):
        # With contention off the footprint degenerates to the PE alone;
        # invalidation must still be sound.
        ctg = generate_category(2, 7, n_tasks=40)
        acg = hetero_mesh(3, 3, shuffle_seed=207)
        config = EASConfig(contention_aware=False)
        naive = reference_eas_schedule(ctg, acg, config)
        cached = eas_schedule(ctg, acg, config)
        assert cached.task_placements == naive.task_placements
        assert cached.comm_placements == naive.comm_placements


class TestPathCacheEquivalence:
    """The path-table cache must be observationally invisible too."""

    def test_cached_and_literal_schedules_identical(self):
        hits = horizon = 0.0
        for ctg, acg in _hetero_cases():
            literal, literal_ins = _level(ctg, acg, tables=LiteralTables)
            cached, cached_ins = _level(ctg, acg)
            _assert_identical(literal, cached, ctg.name)
            # The literal path must never touch the cache counters.
            assert _count(literal_ins, "comm.path_cache_hits") == 0
            assert _count(literal_ins, "comm.horizon_fast_path") == 0
            # The cached path must do strictly less merge work.
            assert _count(cached_ins, "comm.merge_intervals") < _count(
                literal_ins, "comm.merge_intervals"
            ), ctg.name
            hits += _count(cached_ins, "comm.path_cache_hits")
            horizon += _count(cached_ins, "comm.horizon_fast_path")
        assert hits > 0, "cases never hit the path-table cache"
        assert horizon > 0, "cases never took the horizon fast path"

    def test_both_caches_off_still_identical(self):
        # The two caches compose: all four on/off combinations must agree.
        ctg = generate_category(2, 3, n_tasks=40)
        acg = hetero_mesh(3, 3, shuffle_seed=203)
        reference, _ = _level(ctg, acg, NaiveLevelScheduler, LiteralTables)
        for scheduler in (NaiveLevelScheduler, LevelBasedScheduler):
            for tables in (LiteralTables, ResourceTables):
                schedule, _ = _level(ctg, acg, scheduler, tables)
                _assert_identical(
                    reference, schedule, f"{scheduler.__name__}/{tables.__name__}"
                )
