"""Property-based tests over random CTGs: every scheduler's output is a
structurally valid, executable schedule, and cross-scheduler energy
relations hold.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.presets import hetero_mesh
from repro.baselines.edf import edf_schedule
from repro.core.eas import eas_base_schedule, eas_schedule
from repro.core.rebuild import rebuild_schedule
from repro.core.reference import random_schedule, reference_eas_schedule
from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.obs.explain import verify_decision_components
from repro.sim.replay import simulate_schedule

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ctg_params = st.tuples(
    st.integers(min_value=1, max_value=40),    # n_tasks
    st.integers(min_value=0, max_value=10_000),  # seed
    st.sampled_from([1.2, 1.6, 2.5]),          # laxity
)


def build(params):
    n_tasks, seed, laxity = params
    config = GeneratorConfig(
        n_tasks=n_tasks,
        seed=seed,
        deadline_laxity=laxity,
        level_width=4.0,
    )
    return generate_ctg(config)


@SLOW
@given(ctg_params, st.integers(min_value=0, max_value=3))
def test_eas_base_structurally_valid_and_executable(params, platform_seed):
    ctg = build(params)
    acg = hetero_mesh(2, 3, shuffle_seed=platform_seed)
    schedule = eas_base_schedule(ctg, acg)
    schedule.validate_structure()
    simulate_schedule(schedule)  # independent executable-witness
    assert schedule.is_complete


@SLOW
@given(ctg_params)
def test_edf_structurally_valid_and_executable(params):
    ctg = build(params)
    acg = hetero_mesh(2, 2)
    schedule = edf_schedule(ctg, acg)
    schedule.validate_structure()
    simulate_schedule(schedule)


@SLOW
@given(ctg_params)
def test_eas_with_repair_never_misses_more_than_base(params):
    ctg = build(params)
    acg = hetero_mesh(2, 2)
    base = eas_base_schedule(ctg, acg)
    full = eas_schedule(ctg, acg)
    assert len(full.deadline_misses()) <= len(base.deadline_misses())
    full.validate_structure()


@SLOW
@given(ctg_params)
def test_rebuild_roundtrip_preserves_energy(params):
    """Energy is a pure function of the mapping: rebuilding any schedule
    from its own (mapping, orders) must preserve it exactly."""
    ctg = build(params)
    acg = hetero_mesh(2, 2)
    schedule = eas_base_schedule(ctg, acg)
    rebuilt = rebuild_schedule(ctg, acg, schedule.mapping(), schedule.pe_order())
    assert abs(rebuilt.total_energy() - schedule.total_energy()) < 1e-6
    rebuilt.validate_structure()


@SLOW
@given(ctg_params, st.integers(min_value=0, max_value=99))
def test_random_schedules_valid(params, seed):
    ctg = build(params)
    acg = hetero_mesh(2, 2)
    schedule = random_schedule(ctg, acg, seed=seed)
    schedule.validate_structure()
    simulate_schedule(schedule)


@SLOW
@given(ctg_params)
def test_all_comm_durations_and_energies_match_model(params):
    ctg = build(params)
    acg = hetero_mesh(2, 2)
    schedule = eas_base_schedule(ctg, acg)
    for (src, dst), comm in schedule.comm_placements.items():
        assert comm.energy == acg.comm_energy(comm.volume, comm.src_pe, comm.dst_pe)
        assert abs(
            comm.duration - acg.comm_duration(comm.volume, comm.src_pe, comm.dst_pe)
        ) < 1e-9


@pytest.mark.parametrize(
    "scheduler",
    [
        lambda ctg, acg: eas_schedule(ctg, acg),
        reference_eas_schedule,
        edf_schedule,
    ],
    ids=["eas", "eas-nocache", "edf"],
)
@SLOW
@given(ctg_params, st.integers(min_value=0, max_value=3))
def test_recorded_decisions_recompute_exactly(scheduler, params, platform_seed):
    """Every scheduler's recorded F(i,k) components replay through the
    same placement primitive to within the verify tolerance."""
    ctg = build(params)
    acg = hetero_mesh(2, 3, shuffle_seed=platform_seed)
    with obs.activate(obs.Instrumentation.enabled()):
        schedule = scheduler(ctg, acg)
    assert len(schedule.provenance) == ctg.n_tasks
    assert verify_decision_components(ctg, acg, schedule.provenance) == []
