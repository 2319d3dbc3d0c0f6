"""Tests for the exact branch-and-bound mapping baseline."""

import math

import pytest

from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.baselines.edf import edf_schedule
from repro.baselines.optimal import optimal_schedule
from repro.core.eas import eas_schedule
from repro.core.reference import random_schedule
from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.ctg.graph import CTG
from repro.errors import SchedulingError

from tests.conftest import make_task, uniform_task


def acg4():
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])


class TestSingleTask:
    def test_picks_global_minimum(self):
        ctg = CTG()
        ctg.add_task(
            make_task(
                "t",
                {"cpu": 10, "dsp": 20, "arm": 40, "risc": 30},
                {"cpu": 100, "dsp": 50, "arm": 10, "risc": 25},
                deadline=1000,
            )
        )
        result = optimal_schedule(ctg, acg4())
        assert result.feasible
        assert result.energy == pytest.approx(10)
        assert acg4().pe(result.schedule.placement("t").pe).type_name == "arm"

    def test_deadline_constrains_choice(self):
        ctg = CTG()
        ctg.add_task(
            make_task(
                "t",
                {"cpu": 10, "dsp": 20, "arm": 40, "risc": 30},
                {"cpu": 100, "dsp": 50, "arm": 10, "risc": 25},
                deadline=25,
            )
        )
        result = optimal_schedule(ctg, acg4())
        # arm (40 > 25) is out; dsp is the cheapest feasible.
        assert result.energy == pytest.approx(50)

    def test_infeasible_instance(self):
        ctg = CTG()
        ctg.add_task(uniform_task("t", 100, 5, deadline=1))
        result = optimal_schedule(ctg, acg4())
        assert not result.feasible
        assert math.isinf(result.energy)

    def test_unconstrained_ignores_deadline(self):
        ctg = CTG()
        ctg.add_task(uniform_task("t", 100, 5, deadline=1))
        result = optimal_schedule(ctg, acg4(), require_deadlines=False)
        assert result.feasible
        assert result.energy == pytest.approx(5)


class TestCommunication:
    def test_colocation_beats_split(self):
        """With uniform compute costs, the optimum is a single tile."""
        ctg = CTG()
        ctg.add_task(uniform_task("p", 10, 5))
        ctg.add_task(uniform_task("c", 10, 5))
        ctg.connect("p", "c", volume=1_000_000)
        result = optimal_schedule(ctg, acg4())
        mapping = result.schedule.mapping()
        assert mapping["p"] == mapping["c"]
        assert result.energy == pytest.approx(10)

    def test_tight_deadline_forces_parallel_split(self):
        """Two heavy independent tasks, deadline < 2x exec: must split."""
        ctg = CTG()
        ctg.add_task(uniform_task("a", 100, 5, deadline=150))
        ctg.add_task(uniform_task("b", 100, 5, deadline=150))
        result = optimal_schedule(ctg, acg4())
        assert result.feasible
        mapping = result.schedule.mapping()
        assert mapping["a"] != mapping["b"]


class TestOptimalityOfHeuristics:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_eas_never_beats_optimal(self, seed):
        ctg = generate_ctg(
            GeneratorConfig(n_tasks=7, seed=seed, deadline_laxity=1.8, level_width=3.0)
        )
        acg = acg4()
        result = optimal_schedule(ctg, acg)
        eas = eas_schedule(ctg, acg)
        if result.feasible and eas.meets_deadlines:
            assert eas.total_energy() >= result.energy - 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edf_never_beats_optimal(self, seed):
        ctg = generate_ctg(
            GeneratorConfig(n_tasks=6, seed=seed, deadline_laxity=2.0, level_width=3.0)
        )
        acg = acg4()
        result = optimal_schedule(ctg, acg)
        edf = edf_schedule(ctg, acg)
        if result.feasible and edf.meets_deadlines:
            assert edf.total_energy() >= result.energy - 1e-6

    def test_optimal_beats_random_sample(self):
        ctg = generate_ctg(
            GeneratorConfig(n_tasks=6, seed=7, deadline_laxity=2.5, level_width=3.0)
        )
        acg = acg4()
        result = optimal_schedule(ctg, acg)
        assert result.feasible
        for seed in range(10):
            sample = random_schedule(ctg, acg, seed=seed)
            if sample.meets_deadlines:
                assert sample.total_energy() >= result.energy - 1e-6

    def test_eas_gap_is_reasonable_on_tiny_instances(self):
        """The heuristic should land within ~40% of optimal on average
        for easy instances — a sanity bar, not a paper claim."""
        gaps = []
        for seed in range(6):
            ctg = generate_ctg(
                GeneratorConfig(n_tasks=7, seed=seed, deadline_laxity=2.0, level_width=3.0)
            )
            acg = acg4()
            result = optimal_schedule(ctg, acg)
            eas = eas_schedule(ctg, acg)
            if result.feasible and eas.meets_deadlines:
                gaps.append(eas.total_energy() / result.energy)
        assert gaps, "no feasible instances in the sample"
        assert sum(gaps) / len(gaps) < 1.4


class TestGuards:
    def test_max_tasks_guard(self):
        ctg = generate_ctg(GeneratorConfig(n_tasks=20, seed=1))
        with pytest.raises(SchedulingError):
            optimal_schedule(ctg, acg4())

    def test_guard_can_be_raised(self):
        # 13 tasks exceeds the default guard; keep the search tractable
        # by using a 2-PE platform (2^13 mappings, heavily pruned).
        ctg = generate_ctg(
            GeneratorConfig(
                n_tasks=13,
                seed=1,
                deadline_laxity=2.5,
                level_width=4.0,
                pe_type_names=("cpu", "arm"),
            )
        )
        acg = ACG(Mesh2D(1, 2), pe_types=["cpu", "arm"])
        result = optimal_schedule(ctg, acg, max_tasks=13)
        assert result.mappings_timed >= 1

    def test_schedule_validates(self):
        ctg = generate_ctg(
            GeneratorConfig(n_tasks=6, seed=3, deadline_laxity=2.0, level_width=3.0)
        )
        result = optimal_schedule(ctg, acg4())
        if result.feasible:
            result.schedule.validate()
