"""Property tests: Step 2's energy-ordered F(i,k) walk equals the exhaustive oracle.

``LevelBasedScheduler`` probes each ready task's PEs in increasing
``(E(i,k), pe)`` order and stops once the paper's selection rules are
decided; ``NaiveLevelScheduler`` (``repro.core.reference``) probes every
F(i,k) on every RTL iteration and applies the rules to the whole table.
With decision provenance on — so the walk also completes the chosen
task's candidate list — both must emit byte-identical schedules and
identical provenance.  Every probe the walk makes must carry an
``Evaluation.energy`` equal, bit for bit, to the walk key it was sorted by.

The dimensions are the ones the walk's exactness argument leans on:
energy ties (homogeneous platforms, source tasks), tight budgets that
force Rule-3 rescues, the fixed-delay ablation, and a fault-degraded
platform whose prefix carries a floor and whose partitions leave PEs
unroutable.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.acg import ACG
from repro.arch.presets import DEFAULT_TYPE_CYCLE, mesh_6x6
from repro.arch.topology import Mesh2D, Torus2D
from repro.core.eas import LevelBasedScheduler, eas_schedule
from repro.core.rebuild import NO_PREFIX
from repro.core.reference import NaiveLevelScheduler
from repro.core.slack import compute_budgets
from repro.ctg.generator import generate_category
from repro.errors import SchedulingError
from repro.faults.degraded import DegradedACG
from repro.faults.plan import FaultPlan, LinkFault, PEFault, TransientFault
from repro.faults.recovery import classify_salvage, kept_comm_keys, salvage_prefix
from repro.rng import make_rng
from repro.schedule.serialization import schedule_to_json

PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class CheckedWalk(LevelBasedScheduler):
    """The production walk, checking each probe's energy against its key."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: per task, each keyed PE's walk energy.
        self.key_energy = {}
        self.checked = 0
        self.unroutable = 0
        self.placed_all = False

    def run(self):
        schedule = super().run()
        self.placed_all = True
        return schedule

    def _enter_rtl(self, task_name: str) -> None:
        super()._enter_rtl(task_name)
        keys = self._walk_keys[task_name]
        self.key_energy[task_name] = {pe: energy for energy, pe in keys}
        task = self.ctg.task(task_name)
        usable = sum(
            1
            for pe in self.acg.pes
            if self.acg.pe_available(pe.index) and task.cost_on(pe.type_name).feasible
        )
        self.unroutable += usable - len(keys)

    def _probe(self, task_name: str, pe_index: int):
        evaluation = super()._probe(task_name, pe_index)
        key = self.key_energy[task_name][pe_index]
        assert evaluation.energy.hex() == key.hex(), (task_name, pe_index)
        self.checked += 1
        return evaluation


def level(scheduler_type, ctg, acg, contention_aware=True, prefix=NO_PREFIX):
    """Step 2 alone with decisions on: ``(outcome, scheduler, metrics)``.

    The outcome is the serialization, or the error a scheduler raised.
    """
    bundle = obs.Instrumentation.enabled()
    with obs.activate(bundle):
        budgets = compute_budgets(ctg, acg)
        scheduler = scheduler_type(
            ctg, acg, budgets, contention_aware=contention_aware, prefix=prefix
        )
        try:
            schedule = scheduler.run()
        except SchedulingError as exc:
            return (type(exc).__name__, str(exc)), scheduler, bundle.metrics
    return (schedule_to_json(schedule), schedule.provenance), scheduler, bundle.metrics


def assert_walk_matches_oracle(ctg, acg, contention_aware=True, prefix=NO_PREFIX):
    walked, walk, metrics = level(CheckedWalk, ctg, acg, contention_aware, prefix)
    oracle, _, _ = level(NaiveLevelScheduler, ctg, acg, contention_aware, prefix)
    assert walked == oracle
    if walk.placed_all:
        assert walk.checked == metrics.counter("eas.evaluations").value
    return walked, walk, metrics


# -- generated graphs on healthy platforms ----------------------------------------

#: (category, index, n_tasks, deadline scale, topology, rows, cols,
#: PE-type layout, contention_aware).  ``homogeneous`` puts one type on
#: every tile, so equal hop counts tie the energies of whole PE groups.
cases = st.tuples(
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=4, max_value=30),
    st.sampled_from([0.45, 0.6, 1.0]),
    st.sampled_from(["mesh", "torus"]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.one_of(st.just("homogeneous"), st.none(), st.integers(min_value=0, max_value=9)),
    st.booleans(),
)

#: Pinned cases: ties on a homogeneous torus, Rule-3 rescues under
#: tight budgets, and the fixed-delay ablation.
EXAMPLES = [
    (1, 3, 24, 1.0, "torus", 3, 3, "homogeneous", True),
    (2, 1, 30, 0.45, "mesh", 3, 3, None, True),
    (2, 5, 24, 0.6, "mesh", 4, 4, 2, False),
]


def build(case):
    category, index, n_tasks, scale, kind, rows, cols, layout, contention = case
    if layout == "homogeneous":
        types = ["cpu"] * (rows * cols)
        ctg = generate_category(category, index, n_tasks=n_tasks, pe_type_names=("cpu",))
    else:
        types = [DEFAULT_TYPE_CYCLE[i % len(DEFAULT_TYPE_CYCLE)] for i in range(rows * cols)]
        if layout is not None:
            make_rng(layout).shuffle(types)
        ctg = generate_category(category, index, n_tasks=n_tasks)
    if scale != 1.0:
        ctg = ctg.with_scaled_deadlines(scale)
    topology = (Mesh2D if kind == "mesh" else Torus2D)(rows, cols)
    return ctg, ACG(topology, pe_types=types), contention


def _example_all(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@_example_all
@PROPERTY
@given(cases)
def test_walk_matches_exhaustive_oracle(case):
    ctg, acg, contention = build(case)
    assert_walk_matches_oracle(ctg, acg, contention)


def test_examples_exercise_ties_rescues_and_skips():
    """The pinned cases tie energies, rescue tasks and skip probes."""
    ties = rescues = skips = 0
    for case in EXAMPLES:
        ctg, acg, contention = build(case)
        (_serialized, provenance), _, metrics = assert_walk_matches_oracle(
            ctg, acg, contention
        )
        rescues += metrics.counter("eas.rescues").value
        skips += metrics.counter("eas.walk_skips").value
        ties += sum(decision.regret == 0.0 for decision in provenance)
    assert ties > 0, "no decision was taken inside a tied E1 group (regret 0)"
    assert rescues > 0, "examples never triggered a Rule-3 rescue"
    assert skips > 0, "the walk never skipped a candidate PE"


# -- fault-degraded platforms ---------------------------------------------------------

#: (category-II index, n_tasks, rows, cols, fault time as a fraction of
#: the committed makespan, draw picking the PE and channel).  One-row
#: meshes let a single cut partition the NoC.
fault_cases = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=6, max_value=24),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=3, max_value=4),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=1000),
)

#: Pinned cases: partitioning cuts on one-row meshes (the first leaves
#: some task without any route; the second completes with PEs dropped),
#: and a 2-D mesh.
FAULT_EXAMPLES = [
    (0, 16, 1, 4, 0.3, 1),
    (3, 16, 1, 4, 0.3, 1),
    (3, 20, 2, 3, 0.4, 5),
]


def recoveries(case):
    """``(ctg, degraded ACG, prefix)`` for a PE death, a link cut and an outage."""
    index, n_tasks, rows, cols, fraction, pick = case
    ctg = generate_category(2, index, n_tasks=n_tasks)
    types = [DEFAULT_TYPE_CYCLE[i % len(DEFAULT_TYPE_CYCLE)] for i in range(rows * cols)]
    acg = ACG(Mesh2D(rows, cols), pe_types=types)
    committed = eas_schedule(ctg, acg)
    t = committed.makespan() * fraction
    channels = sorted({tuple(sorted((link.src, link.dst))) for link in acg.all_links()})
    src, dst = channels[pick % len(channels)]
    plans = [
        FaultPlan("pe", pe_faults=(PEFault(pick % acg.n_pes, t),)),
        FaultPlan("link", link_faults=(LinkFault(src, dst, t),)),
        FaultPlan(
            "transient",
            transient_faults=(TransientFault(src, dst, t, t + 0.3 * committed.makespan()),),
        ),
    ]
    for plan in plans:
        degraded = DegradedACG(acg, plan)
        salvaged, _rerun = classify_salvage(committed, t, degraded.dead_pes)
        prefix = salvage_prefix(committed, salvaged, kept_comm_keys(committed, salvaged), plan)
        yield ctg, degraded, prefix


def _example_faults(test):
    for case in FAULT_EXAMPLES:
        test = example(case)(test)
    return test


@_example_faults
@settings(PROPERTY, max_examples=20)
@given(fault_cases)
def test_walk_matches_oracle_on_degraded_platforms(case):
    for ctg, degraded, prefix in recoveries(case):
        assert_walk_matches_oracle(ctg, degraded, prefix=prefix)


def test_fault_examples_drop_unroutable_pes():
    """A pinned partition completes with some candidate PE unroutable."""
    completed_unroutable = 0
    for case in FAULT_EXAMPLES:
        for ctg, degraded, prefix in recoveries(case):
            assert prefix.floor > 0.0
            _, walk, _ = assert_walk_matches_oracle(ctg, degraded, prefix=prefix)
            if walk.placed_all:
                completed_unroutable += walk.unroutable
    assert completed_unroutable > 0, "no completed recovery dropped an unroutable PE"


# -- the walk's counters ------------------------------------------------------------------


def test_walk_skips_counter():
    """The oracle skips nothing; the walk probes at most a quarter as much."""
    ctg = generate_category(1, 0, n_tasks=160)
    acg = mesh_6x6()
    counts = {}
    for scheduler_type in (NaiveLevelScheduler, LevelBasedScheduler):
        bundle = obs.Instrumentation.disabled()
        with obs.activate(bundle):
            scheduler_type(ctg, acg, compute_budgets(ctg, acg)).run()
        counts[scheduler_type] = (
            bundle.metrics.counter("eas.evaluations").value,
            bundle.metrics.counter("eas.walk_skips").value,
        )
    oracle_evaluations, oracle_skips = counts[NaiveLevelScheduler]
    walk_evaluations, walk_skips = counts[LevelBasedScheduler]
    assert oracle_skips == 0
    assert walk_skips > 0
    assert walk_evaluations <= 0.25 * oracle_evaluations
