"""Equivalence harness and unit tests for the incremental rebuild engine.

The load-bearing guarantee of ``core/increbuild.py`` is *exactness*: for
every candidate move the repair loop probes — accepted or rejected — the
incremental path must behave indistinguishably from a full
``rebuild_schedule``.  The ``checked_engine`` fixture cross-checks
**every single evaluation** of whole repair runs against a from-scratch
rebuild byte-compared through serialization v2 (and every rejection
against the full candidate metric); the end-to-end results must also
equal the paper-literal ``full_rebuild_repair`` oracle — same schedule
bytes, same accepted-move sequence, same ``RepairReport`` counters.
"""

import random

import pytest

from repro import obs
from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.core.eas import EASConfig, eas_schedule
from repro.core.increbuild import IncrementalRebuilder, _schedule_metric
from repro.core.rebuild import rebuild_schedule
from repro.core.reference import full_rebuild_repair, reference_eas_schedule
from repro.core.repair import RepairConfig, search_and_repair
from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG
from repro.errors import InfeasibleOrderError
from repro.schedule.serialization import schedule_to_json

from tests.conftest import uniform_task


def mesh3x3():
    types = ["cpu", "dsp", "arm", "risc", "cpu", "dsp", "arm", "risc", "cpu"]
    return ACG(Mesh2D(3, 3), pe_types=types)


def tightened(category: int, index: int, n_tasks: int = 24, factor: float = 0.55) -> CTG:
    """A small benchmark graph with deadlines tight enough to need repair."""
    return generate_category(category, index, n_tasks=n_tasks).with_scaled_deadlines(factor)


@pytest.fixture
def checked_engine(monkeypatch):
    """Cross-check every ``IncrementalRebuilder.evaluate`` against a full rebuild.

    A schedule must byte-match ``rebuild_schedule`` through serialization
    v2; a ``None`` (early abort, remembered rejection or deadlock) must
    be a candidate the full rebuild rejects too — infeasible, or not
    strictly better than the incumbent metric.  Returns a dict whose
    ``"evaluations"`` entry counts the checked calls.
    """
    original = IncrementalRebuilder.evaluate
    checked = {"evaluations": 0}

    def evaluate(self, mapping, orders, incumbent_metric):
        result = original(self, mapping, orders, incumbent_metric)
        try:
            full = rebuild_schedule(self.ctg, self.acg, mapping, orders, algorithm=self.algorithm)
        except InfeasibleOrderError:
            full = None
        if result is not None:
            assert full is not None, "incremental built a schedule the full rebuild rejects"
            assert schedule_to_json(result) == schedule_to_json(full), (
                "incremental rebuild diverged from full rebuild"
            )
        else:
            assert full is None or not _schedule_metric(full) < incumbent_metric, (
                "incremental rejected a candidate that beats the incumbent"
            )
        checked["evaluations"] += 1
        return result

    monkeypatch.setattr(IncrementalRebuilder, "evaluate", evaluate)
    return checked


class TestEquivalenceCorpus:
    """Whole repair runs with every probed move cross-checked."""

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("seed", [None, 20240915])
    def test_full_repair_selfchecked(self, use_cache, seed, checked_engine):
        """Every evaluation during repair matches a full rebuild.

        A single repair run checks hundreds of moves.  Parametrized over
        the Step-2 base schedule (evaluation cache, or the naive
        reference) and the jitter seed so both RNG disciplines and both
        base schedule paths are exercised.
        """
        acg = mesh3x3()
        level_schedule = eas_schedule if use_cache else reference_eas_schedule
        checked_misses = 0
        for index in range(3):
            ctg = tightened(2, index)
            base = level_schedule(ctg, acg, EASConfig(repair=False))
            checked_misses += len(base.deadline_misses())
            cfg = RepairConfig(seed=seed, max_rounds=4, max_migrations_per_round=64)
            repaired, report = search_and_repair(base, cfg)
            repaired.validate_structure()
        assert checked_misses > 0, "corpus too easy: nothing exercised repair"
        assert checked_engine["evaluations"] > 0

    def test_modes_bit_identical_across_corpus(self):
        """Incremental repair and the full-rebuild oracle agree bit-for-bit.

        Same schedule serialization, same RepairReport (which encodes
        the accepted/tried move sequence counts) on six graphs spanning
        both benchmark categories; ``tests/test_property_reference.py``
        covers generated inputs.
        """
        acg = mesh3x3()
        exercised = 0
        config = RepairConfig(max_rounds=4, max_migrations_per_round=48)
        for category in (1, 2):
            for index in range(3):
                ctg = tightened(category, index, factor=0.5)
                base = eas_schedule(ctg, acg, EASConfig(repair=False))
                outcomes = {}
                for repair in (full_rebuild_repair, search_and_repair):
                    repaired, report = repair(base, config)
                    outcomes[repair] = (schedule_to_json(repaired), repr(report))
                assert outcomes[full_rebuild_repair] == outcomes[search_and_repair], (
                    f"cat{category}-{index}: incremental repair diverges from the oracle"
                )
                if "swaps=0/0, migrations=0/0" not in outcomes[search_and_repair][1]:
                    exercised += 1
        assert exercised >= 2, "corpus too easy: repair barely ran"

    def test_random_walk_probes_and_promotes(self, checked_engine):
        """Direct engine drive: random swaps/migrations, all cross-checked."""
        acg = mesh3x3()
        rng = random.Random(7)
        evaluations = 0
        for index in range(4):
            ctg = generate_category(2, index, n_tasks=30)
            sched = eas_schedule(ctg, acg, EASConfig(repair=False))
            mapping = dict(sched.mapping())
            orders = {pe: list(names) for pe, names in sched.pe_order().items()}
            base = rebuild_schedule(ctg, acg, mapping, orders)
            engine = IncrementalRebuilder(ctg, acg, mapping, orders)
            metric = _schedule_metric(base)
            for _trial in range(25):
                cand_map = dict(mapping)
                cand_orders = {pe: list(names) for pe, names in orders.items()}
                if rng.random() < 0.5:
                    busy = [pe for pe, names in cand_orders.items() if len(names) >= 2]
                    if not busy:
                        continue
                    pe = rng.choice(busy)
                    i = rng.randrange(len(cand_orders[pe]) - 1)
                    cand_orders[pe][i], cand_orders[pe][i + 1] = (
                        cand_orders[pe][i + 1],
                        cand_orders[pe][i],
                    )
                else:
                    task = rng.choice(ctg.task_names())
                    src = cand_map[task]
                    feasible = [
                        pe.index
                        for pe in acg.pes
                        if pe.index != src and ctg.task(task).cost_on(pe.type_name).feasible
                    ]
                    if not feasible:
                        continue
                    dst = rng.choice(feasible)
                    cand_map[task] = dst
                    cand_orders[src].remove(task)
                    cand_orders.setdefault(dst, []).append(task)
                result = engine.evaluate(cand_map, cand_orders, metric)
                evaluations += 1
                if result is not None and _schedule_metric(result) < metric:
                    engine.promote()
                    mapping, orders = cand_map, cand_orders
                    metric = _schedule_metric(result)
        assert evaluations >= 80
        assert checked_engine["evaluations"] == evaluations


class TestEngineBehaviour:
    def _two_pe_fixture(self):
        """a -> c on PE0/PE1, b independent on PE0."""
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 1))
        ctg.add_task(uniform_task("b", 10, 1, deadline=100.0))
        ctg.add_task(uniform_task("c", 10, 1, deadline=15.0))
        ctg.connect("a", "c", volume=100)
        acg = ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])
        mapping = {"a": 0, "b": 0, "c": 1}
        orders = {0: ["a", "b"], 1: ["c"]}
        return ctg, acg, mapping, orders

    def test_infeasible_candidate_rejected_without_corrupting_state(self, checked_engine):
        """A deadlocking candidate is a rejected move, nothing more.

        After the rejection the engine must still evaluate and promote
        later candidates correctly — i.e. the incumbent state (trace,
        tables, memo) was not corrupted by the failed replay.
        """
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 1))
        ctg.add_task(uniform_task("b", 10, 1, deadline=5.0))
        ctg.connect("a", "b", volume=100)
        acg = ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])
        mapping = {"a": 0, "b": 0}
        orders = {0: ["a", "b"]}
        base = rebuild_schedule(ctg, acg, mapping, orders)
        engine = IncrementalRebuilder(ctg, acg, mapping, orders)
        metric = _schedule_metric(base)
        # b before a deadlocks: b's predecessor a can never run.
        assert engine.evaluate(mapping, {0: ["b", "a"]}, metric) is None
        # The engine still evaluates later candidates exactly (the fixture
        # cross-checks each against a full rebuild): migrate b off PE0.
        cand_map = {"a": 0, "b": 1}
        cand_orders = {0: ["a"], 1: ["b"]}
        result = engine.evaluate(cand_map, cand_orders, metric)
        if result is not None and _schedule_metric(result) < metric:
            engine.promote()
            # Promotion adopted the candidate; the next evaluation runs
            # against the new incumbent and is still cross-checked.
            engine.evaluate(mapping, orders, _schedule_metric(result))

    def test_memoized_rejection_skips_second_rebuild(self):
        ctg, acg, mapping, orders = self._two_pe_fixture()
        base = rebuild_schedule(ctg, acg, mapping, orders)
        bundle = obs.Instrumentation.disabled()
        with obs.activate(bundle):
            engine = IncrementalRebuilder(ctg, acg, mapping, orders)
            metric = _schedule_metric(base)
            cand_orders = {0: ["b", "a"], 1: ["c"]}
            first = engine.evaluate(mapping, cand_orders, metric)
            assert first is None or not _schedule_metric(first) < metric
            second = engine.evaluate(mapping, cand_orders, metric)
            assert second is None
        assert bundle.metrics.counter("repair.memo_skips").value == 1

    def test_repair_infeasible_move_leaves_orders_consistent(self):
        """search_and_repair survives candidates that deadlock.

        Whatever moves get probed, the final schedule must be structurally
        valid and its per-PE orders must partition exactly the task set —
        i.e. a rejected InfeasibleOrderError never leaks half-applied
        orders into the loop state.  Runs incremental and full-rebuild.
        """
        acg = mesh3x3()
        ctg = tightened(2, 1, factor=0.5)
        base = eas_schedule(ctg, acg, EASConfig(repair=False))
        for repair in (full_rebuild_repair, search_and_repair):
            repaired, _report = repair(base)
            repaired.validate_structure()
            listed = sorted(
                name for names in repaired.pe_order().values() for name in names
            )
            assert listed == sorted(ctg.task_names())


class TestReportParity:
    def test_memo_skips_still_count_as_tried(self):
        """Tried counters match the full rebuild even when memo skips fire."""
        acg = mesh3x3()
        ctg = tightened(2, 3, factor=0.5)
        base = eas_schedule(ctg, acg, EASConfig(repair=False))
        reports = {}
        skips = {}
        for mode, repair in ((False, full_rebuild_repair), (True, search_and_repair)):
            bundle = obs.Instrumentation.disabled()
            with obs.activate(bundle):
                _repaired, report = repair(
                    base, RepairConfig(max_rounds=3, max_migrations_per_round=48)
                )
            reports[mode] = (
                report.swaps_tried,
                report.migrations_tried,
                report.swaps_accepted,
                report.migrations_accepted,
            )
            skips[mode] = bundle.metrics.counter("repair.memo_skips").value
        assert reports[False] == reports[True]
        assert skips[False] == 0  # the full rebuild never consults the memo
