"""Golden digests: schedules must stay bit-identical across commits.

Every other equivalence test compares the optimised paths against the
paper-literal oracle of ``repro.core.reference`` *within* one revision.  This file pins
the sha256 of ``schedule_to_json`` for a fixed small corpus, so a
refactor or optimisation that changes any placement, transaction or
float anywhere fails here, even when all paths change in lockstep.

Digests are taken with ``runtime_seconds`` zeroed and decision
recording off.  If a change is *meant* to alter schedules, regenerate
them with ``python -m tests.test_golden_schedules`` and say why in the
change description.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import pytest

from repro import obs
from repro.arch.presets import hetero_mesh, mesh_3x3
from repro.baselines.edf import edf_schedule
from repro.baselines.greedy import greedy_energy_schedule, random_schedule
from repro.core.eas import EASConfig, eas_base_schedule, eas_schedule
from repro.core.rebuild import rebuild_schedule
from repro.core.reference import (
    full_rebuild_repair,
    reference_eas_base_schedule,
    reference_eas_schedule,
)
from repro.core.repair import search_and_repair
from repro.ctg.generator import generate_category
from repro.faults.plan import FaultPlan, LinkFault, PEFault
from repro.faults.recovery import inject_and_recover
from repro.schedule.schedule import Schedule
from repro.schedule.serialization import schedule_to_json


def _loose():
    """A category-I graph that meets its deadlines (Step 3 never runs)."""
    return generate_category(1, 0, n_tasks=30), mesh_3x3()


def _hetero():
    return generate_category(1, 4, n_tasks=24), hetero_mesh(2, 3, shuffle_seed=2)


def _tight():
    """A category-II graph that misses deadlines even after repair."""
    return generate_category(2, 1, n_tasks=16).with_scaled_deadlines(0.55), mesh_3x3()


def _repairable():
    return generate_category(2, 5, n_tasks=20).with_scaled_deadlines(0.65), mesh_3x3()


def _rebuild(pair):
    ctg, acg = pair
    base = eas_base_schedule(ctg, acg)
    return rebuild_schedule(ctg, acg, base.mapping(), base.pe_order())


def _repair(pair, repair=search_and_repair) -> Schedule:
    ctg, acg = pair
    repaired, _report = repair(eas_base_schedule(ctg, acg))
    return repaired


def _recover(pair, make_plan) -> Schedule:
    ctg, acg = pair
    committed = eas_schedule(ctg, acg)
    plan = make_plan(committed.makespan())
    # Recovery leaves misses on these plans, so its repair runs the
    # recovery rebuilder; two rounds keep the case fast.
    return inject_and_recover(committed, plan, config=EASConfig(max_repair_rounds=2)).recovery


def _pe_plan(makespan: float) -> FaultPlan:
    return FaultPlan("pe4", 0, pe_faults=(PEFault(4, makespan * 0.5),))


def _link_plan(makespan: float) -> FaultPlan:
    return FaultPlan("link", 0, link_faults=(LinkFault((1, 1), (1, 2), makespan * 0.3),))


CASES: Dict[str, Callable[[], Schedule]] = {
    "eas/loose": lambda: eas_schedule(*_loose()),
    "eas/loose/nocache": lambda: reference_eas_schedule(*_loose()),
    "eas/hetero": lambda: eas_schedule(*_hetero()),
    "eas/tight": lambda: eas_schedule(*_tight()),
    "eas/tight/nocache": lambda: reference_eas_schedule(*_tight()),
    "eas-base/loose": lambda: eas_base_schedule(*_loose()),
    "eas-base/tight": lambda: eas_base_schedule(*_tight()),
    "eas-base/tight/nocache": lambda: reference_eas_base_schedule(*_tight()),
    "eas-base/nocontention": lambda: eas_base_schedule(
        *_tight(), EASConfig(contention_aware=False)
    ),
    "edf/loose": lambda: edf_schedule(*_loose()),
    "edf/hetero": lambda: edf_schedule(*_hetero()),
    "greedy/loose": lambda: greedy_energy_schedule(*_loose()),
    "greedy/hetero": lambda: greedy_energy_schedule(*_hetero()),
    "random/loose": lambda: random_schedule(*_loose(), seed=3),
    "rebuild/hetero": lambda: _rebuild(_hetero()),
    "rebuild/tight": lambda: _rebuild(_tight()),
    "repair/incremental": lambda: _repair(_repairable()),
    "repair/full": lambda: _repair(_repairable(), full_rebuild_repair),
    "recover/pe": lambda: _recover(_tight(), _pe_plan),
    "recover/link": lambda: _recover(_repairable(), _link_plan),
}

EXPECTED: Dict[str, str] = {
    "eas-base/loose": "31d3b2f0fbab7a883d2d9f8a61316bfa999d177f234b36aa215e5493c14890eb",
    "eas-base/nocontention": "0fc8fc1d71efe9b6578e009f0078a3d5b41506f1739fa2ab201ef70fdf1e7694",
    "eas-base/tight": "75ebd1a3739ceb8e43cfeadeddd22b525cd4e148dec402e9dfd88fbba2c03594",
    "eas-base/tight/nocache": "75ebd1a3739ceb8e43cfeadeddd22b525cd4e148dec402e9dfd88fbba2c03594",
    "eas/hetero": "8d11944ba0f9cf443ce088f4078827383bc3e163967e91f3cfa92344406f2fa0",
    "eas/loose": "5246c7e29f03de69c988cdc9adbcf26a0589e3c77110463a87fb2cfc079b1c73",
    "eas/loose/nocache": "5246c7e29f03de69c988cdc9adbcf26a0589e3c77110463a87fb2cfc079b1c73",
    "eas/tight": "7459963bd47a99d91f89ca486e590e5ffd584414d1d71b0558c360f23e940c35",
    "eas/tight/nocache": "7459963bd47a99d91f89ca486e590e5ffd584414d1d71b0558c360f23e940c35",
    "edf/hetero": "c7cac0edace5ba5a8b302478886a3d31ec747a4dcce4268473119ff63b59c685",
    "edf/loose": "be2c11285f677f8da3b81c9f4b6d471d19edab8b8bda36d4a1ad6aba7142022e",
    "greedy/hetero": "10b89e9884065bb4bc4876b174674371d2c1c550c267cd45b254050681d62012",
    "greedy/loose": "9b0b90c11099ae6ab9c5f08216c686790847bd53b94326b61c4fb77eeb4e50e5",
    "random/loose": "de83e27ec2f45bc7d1edf4eaf20c0ef155fbbc232c24e398ea23e3f88ee37022",
    "rebuild/hetero": "4ff9cacb7ec807b7fa6ce6e05455921491409435a4aa79975503afda0beaad8e",
    "rebuild/tight": "4dddc9afe644f35ad1f7ea19504381982a40ff21ab434f0f52866fa4002ad288",
    "recover/link": "8a85093bc806cd8b366de601d00e25d69300e0e6e13b56ee941072bc4fc9f7eb",
    "recover/pe": "19ca9aad367c919243805b641f91434b2301b228d6c8bb45bee5757852522326",
    "repair/full": "8a9e16a1f40cd306f2b0c829b9ad5d606b49ca108c2e835b713742e8853f6966",
    "repair/incremental": "8a9e16a1f40cd306f2b0c829b9ad5d606b49ca108c2e835b713742e8853f6966",
}


def schedule_digest(build: Callable[[], Schedule]) -> str:
    with obs.activate(obs.Instrumentation.disabled()):
        schedule = build()
    schedule.runtime_seconds = 0.0
    return hashlib.sha256(schedule_to_json(schedule).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_digest_is_pinned(name):
    assert schedule_digest(CASES[name]) == EXPECTED[name]


def test_every_case_is_pinned():
    assert set(EXPECTED) == set(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {schedule_digest(CASES[case])!r},")
