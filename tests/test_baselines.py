"""Tests for the EDF baseline and the random reference scheduler."""

import pytest

from repro.arch.acg import ACG
from repro.arch.presets import mesh_4x4
from repro.arch.topology import Mesh2D
from repro.baselines.edf import edf_schedule
from repro.core.eas import eas_base_schedule
from repro.core.reference import random_schedule
from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG

from tests.conftest import make_task, uniform_task


def acg4():
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])


class TestEDF:
    def test_valid_schedule(self, diamond_ctg):
        schedule = edf_schedule(diamond_ctg, acg4())
        schedule.validate_structure()
        assert schedule.is_complete
        assert schedule.algorithm == "edf"

    def test_picks_fast_pe(self):
        """With one task and no pressure EDF still takes the fastest PE —
        the performance-greedy behaviour EAS improves on."""
        ctg = CTG()
        ctg.add_task(
            make_task(
                "t",
                {"cpu": 10, "dsp": 20, "arm": 40, "risc": 30},
                {"cpu": 100, "dsp": 50, "arm": 10, "risc": 25},
                deadline=1_000_000,
            )
        )
        schedule = edf_schedule(ctg, acg4())
        assert schedule.acg.pe(schedule.placement("t").pe).type_name == "cpu"

    def test_earliest_deadline_served_first(self):
        """Two independent tasks on a 1-PE platform: the tighter deadline
        must execute first even if added later."""
        acg = ACG(Mesh2D(1, 1), pe_types=["cpu"])
        ctg = CTG()
        ctg.add_task(uniform_task("loose", 10, 1, pe_types=("cpu",), deadline=1000))
        ctg.add_task(uniform_task("tight", 10, 1, pe_types=("cpu",), deadline=50))
        schedule = edf_schedule(ctg, acg)
        assert schedule.placement("tight").finish <= schedule.placement("loose").start + 1e-9

    def test_deadline_inheritance_orders_interior_tasks(self):
        """An undeadlined producer feeding a tight consumer must not be
        starved behind an unrelated loose task."""
        acg = ACG(Mesh2D(1, 1), pe_types=["cpu"])
        ctg = CTG()
        ctg.add_task(uniform_task("producer", 10, 1, pe_types=("cpu",)))
        ctg.add_task(uniform_task("consumer", 10, 1, pe_types=("cpu",), deadline=30))
        ctg.add_task(uniform_task("bystander", 10, 1, pe_types=("cpu",), deadline=500))
        ctg.connect("producer", "consumer")
        schedule = edf_schedule(ctg, acg)
        assert schedule.deadline_misses() == []
        assert schedule.placement("producer").start == 0

    def test_uses_more_energy_than_eas_on_heterogeneous_workload(self):
        ctg = generate_category(1, 0, n_tasks=60)
        acg = mesh_4x4(shuffle_seed=100)
        edf = edf_schedule(ctg, acg)
        eas = eas_base_schedule(ctg, acg)
        assert edf.total_energy() > eas.total_energy()

    def test_infeasible_pe_set_raises(self):
        from repro.ctg.task import Task, TaskCosts
        from repro.errors import ReproError

        ctg = CTG()
        ctg.add_task(Task("alien", costs={"gpu": TaskCosts(1, 1)}))
        with pytest.raises(ReproError):
            edf_schedule(ctg, acg4())


class TestRandom:
    def test_valid_schedule(self, diamond_ctg):
        schedule = random_schedule(diamond_ctg, acg4(), seed=1)
        schedule.validate_structure()
        assert schedule.is_complete

    def test_seed_reproducible(self, diamond_ctg):
        a = random_schedule(diamond_ctg, acg4(), seed=5)
        b = random_schedule(diamond_ctg, acg4(), seed=5)
        assert a.mapping() == b.mapping()

    def test_seeds_differ(self, diamond_ctg):
        mappings = {
            tuple(sorted(random_schedule(diamond_ctg, acg4(), seed=s).mapping().items()))
            for s in range(8)
        }
        assert len(mappings) > 1

    def test_random_respects_feasibility(self):
        from repro.ctg.task import Task, TaskCosts

        ctg = CTG()
        ctg.add_task(Task("dsp-only", costs={"dsp": TaskCosts(5, 5)}))
        acg = acg4()
        for seed in range(8):
            schedule = random_schedule(ctg, acg, seed=seed)
            assert acg.pe(schedule.placement("dsp-only").pe).type_name == "dsp"

    def test_eas_beats_random_on_average(self, diamond_ctg):
        acg = acg4()
        eas = eas_base_schedule(diamond_ctg, acg)
        randoms = [
            random_schedule(diamond_ctg, acg, seed=s).total_energy() for s in range(10)
        ]
        assert eas.total_energy() <= sum(randoms) / len(randoms) + 1e-6
