"""Tests for the fault-masked topology and the degraded ACG's routes."""

import random

import pytest

from repro import obs
from repro.arch.acg import ACG
from repro.arch.presets import mesh_3x3
from repro.arch.routing import ShortestPathRouting, TorusXYRouting, XYRouting
from repro.arch.topology import HoneycombTopology, Mesh2D, Torus2D
from repro.errors import ArchitectureError, RoutingError, UnroutableError
from repro.faults.degraded import DegradedACG, DegradedTopology
from repro.faults.plan import FaultPlan, LinkFault, PEFault, TransientFault


def _cuts(*channels):
    return FaultPlan(
        name="cuts", link_faults=tuple(LinkFault(a, b, 1.0) for a, b in channels)
    )


class TestDegradedTopology:
    def test_dead_tile_disappears_with_its_links(self):
        degraded = DegradedTopology(Mesh2D(3, 3), dead_tiles=[(1, 1)])
        assert not degraded.has_tile((1, 1))
        assert (1, 1) not in degraded.neighbors((0, 1))
        assert (1, 1) not in degraded.neighbors((1, 0))

    def test_cut_channel_removed_both_directions(self):
        degraded = DegradedTopology(Mesh2D(3, 3), cut_channels=[((0, 0), (0, 1))])
        assert (0, 1) not in degraded.neighbors((0, 0))
        assert (0, 0) not in degraded.neighbors((0, 1))
        # The tiles themselves survive.
        assert degraded.has_tile((0, 0)) and degraded.has_tile((0, 1))

    def test_unknown_dead_tile_rejected(self):
        with pytest.raises(ArchitectureError):
            DegradedTopology(Mesh2D(2, 2), dead_tiles=[(9, 9)])

    def test_unknown_cut_channel_rejected(self):
        with pytest.raises(ArchitectureError):
            DegradedTopology(Mesh2D(2, 2), cut_channels=[((0, 0), (9, 9))])


class TestFaultAwareRouting:
    """Fault-aware routing, as served by :meth:`DegradedACG.route`."""

    def test_intact_base_path_is_kept(self):
        base = ACG(Mesh2D(3, 3), pe_types=["risc"] * 9)
        degraded = DegradedACG(base, _cuts(((2, 0), (2, 1))))
        # XY (0,0)->(1,2) never touches the cut channel: the very same route.
        src, dst = base.pe_at((0, 0)).index, base.pe_at((1, 2)).index
        assert degraded.route(src, dst) is base.route(src, dst)

    def test_falls_back_around_a_cut(self):
        base = ACG(Mesh2D(3, 3), pe_types=["risc"] * 9)
        degraded = DegradedACG(base, _cuts(((0, 1), (0, 2))))
        # XY would go (0,0)-(0,1)-(0,2): the cut forces a detour.
        src, dst = base.pe_at((0, 0)).index, base.pe_at((0, 2)).index
        route = degraded.route(src, dst)
        assert route.links[0].src == (0, 0) and route.links[-1].dst == (0, 2)
        degraded.topology.validate_path([(0, 0)] + [link.dst for link in route.links])
        hops = {(link.src, link.dst) for link in route.links}
        assert ((0, 1), (0, 2)) not in hops and ((0, 2), (0, 1)) not in hops

    def test_detour_is_deterministic(self):
        base = ACG(Mesh2D(3, 3), pe_types=["risc"] * 9)
        plan = _cuts(((0, 1), (0, 2)))
        first, second = DegradedACG(base, plan), DegradedACG(base, plan)
        src, dst = base.pe_at((0, 0)).index, base.pe_at((0, 2)).index
        assert first.route(src, dst) is not base.route(src, dst)
        assert first.route(src, dst).links == second.route(src, dst).links

    def test_partition_raises_unroutable(self):
        # Cutting the only channel of a 1x3 row strands (0,2).
        degraded = DegradedACG(
            ACG(Mesh2D(1, 3), pe_types=["risc"] * 3), _cuts(((0, 1), (0, 2)))
        )
        with pytest.raises(UnroutableError, match="faults partition the NoC"):
            degraded.route(0, 2)

    def test_dead_endpoint_raises_unroutable(self):
        base = ACG(Mesh2D(2, 2), pe_types=["risc"] * 4)
        dead = base.pe_at((1, 1)).index
        degraded = DegradedACG(base, FaultPlan(name="p", pe_faults=(PEFault(dead, 1.0),)))
        with pytest.raises(UnroutableError):
            degraded.route(base.pe_at((0, 0)).index, dead)

    def test_unroutable_is_a_routing_error(self):
        assert issubclass(UnroutableError, RoutingError)


class TestDegradedACG:
    def _plan_pe(self, pe, time=1.0):
        return FaultPlan(name="p", pe_faults=(PEFault(pe=pe, time=time),))

    def test_pe_availability(self):
        base = mesh_3x3()
        degraded = DegradedACG(base, self._plan_pe(4))
        assert not degraded.pe_available(4)
        assert degraded.pe_available(0)
        # The healthy base answers True for everyone.
        assert base.pe_available(4)

    def test_indices_and_types_preserved(self):
        base = mesh_3x3()
        degraded = DegradedACG(base, self._plan_pe(4))
        assert degraded.n_pes == base.n_pes
        for pe in degraded.pes:
            assert pe.type_name == base.pe(pe.index).type_name
            assert pe.position == base.pe(pe.index).position

    def test_route_to_dead_pe_raises(self):
        degraded = DegradedACG(mesh_3x3(), self._plan_pe(4))
        with pytest.raises(UnroutableError):
            degraded.route(0, 4)
        with pytest.raises(UnroutableError):
            degraded.comm_energy(100.0, 4, 0)

    def test_routes_avoid_dead_router(self):
        degraded = DegradedACG(mesh_3x3(), self._plan_pe(4))
        dead_tile = degraded.base_acg.pe(4).position
        for (src, dst), route in degraded._routes.items():
            for link in route.links:
                assert dead_tile not in (link.src, link.dst)

    def test_link_cut_forces_detour_energy(self):
        base = mesh_3x3()
        healthy = base.route(0, 1)
        channel = (healthy.links[0].src, healthy.links[0].dst)
        plan = FaultPlan(
            name="cut", link_faults=(LinkFault(src=channel[0], dst=channel[1], time=1.0),)
        )
        degraded = DegradedACG(base, plan)
        detour = degraded.route(0, 1)
        assert detour.n_hops > healthy.n_hops
        assert degraded.energy_per_bit(0, 1) > base.energy_per_bit(0, 1)

    def test_transient_plan_leaves_routes_intact(self):
        base = mesh_3x3()
        plan = FaultPlan(
            name="t",
            transient_faults=(TransientFault((0, 0), (0, 1), 1.0, 2.0),),
        )
        degraded = DegradedACG(base, plan)
        for src in range(base.n_pes):
            for dst in range(base.n_pes):
                assert degraded.route(src, dst).links == base.route(src, dst).links

    def test_partitioned_pair_raises_with_reason(self):
        acg = ACG(Mesh2D(1, 3), pe_types=["risc"] * 3, link_bandwidth=64.0)
        plan = FaultPlan(
            name="split", link_faults=(LinkFault((0, 1), (0, 2), 1.0),)
        )
        degraded = DegradedACG(acg, plan)
        with pytest.raises(UnroutableError):
            degraded.route(0, 2)
        assert degraded.route(0, 1).n_hops == 2

    def test_describe_mentions_damage(self):
        degraded = DegradedACG(mesh_3x3(), self._plan_pe(4))
        assert "dead PEs: [4]" in degraded.describe()

    def test_describe_counts_detours(self):
        base = ACG(Mesh2D(3, 3), pe_types=["risc"] * 9)
        degraded = DegradedACG(base, _cuts(((0, 1), (0, 2))))
        assert degraded.n_detoured > 0
        assert f"detoured PE pairs: {degraded.n_detoured}" in degraded.describe()
        assert "routing=xy" in degraded.describe()

    def test_detoured_routes_counter(self):
        base = mesh_3x3()
        bundle = obs.Instrumentation.enabled()
        with obs.activate(bundle):
            degraded = DegradedACG(base, _cuts(((0, 1), (0, 2)), ((1, 0), (1, 1))))
        not_base = sum(
            route is not base.route(*pair) for pair, route in degraded._routes.items()
        )
        assert not_base > 0
        assert degraded.n_detoured == not_base
        assert bundle.metrics.counter_values()["faults.detoured_routes"] == not_base


class TestPlanChannelsAgainstPlatform:
    """A plan naming a channel the platform lacks is an error, not a no-op."""

    def test_non_adjacent_cut_rejected(self):
        plan = FaultPlan(name="bad", link_faults=(LinkFault((0, 0), (1, 1), 1.0),))
        with pytest.raises(ArchitectureError, match=r"plan 'bad': channel \(0, 0\)<->\(1, 1\)"):
            DegradedACG(mesh_3x3(), plan)

    def test_non_adjacent_transient_rejected(self):
        plan = FaultPlan(
            name="bad", transient_faults=(TransientFault((0, 0), (2, 2), 1.0, 2.0),)
        )
        with pytest.raises(ArchitectureError, match=r"plan 'bad': channel \(0, 0\)<->\(2, 2\)"):
            DegradedACG(mesh_3x3(), plan)

    def test_off_platform_channel_rejected(self):
        plan = FaultPlan(name="bad", transient_faults=(TransientFault((0, 2), (0, 3), 1.0, 2.0),))
        with pytest.raises(ArchitectureError, match="not a link of the platform"):
            DegradedACG(mesh_3x3(), plan)

    def test_real_channels_accepted_in_either_direction(self):
        plan = FaultPlan(
            name="ok",
            link_faults=(LinkFault((0, 1), (0, 0), 1.0),),
            transient_faults=(TransientFault((1, 1), (0, 1), 1.0, 2.0),),
        )
        DegradedACG(mesh_3x3(), plan)


PLATFORMS = [
    (Mesh2D(4, 4), XYRouting),
    (Torus2D(3, 3), TorusXYRouting),
    (HoneycombTopology(3, 3), ShortestPathRouting),
]


def _random_plan(rng, acg, index):
    channels = sorted({tuple(sorted((link.src, link.dst))) for link in acg.all_links()})
    return FaultPlan(
        name=f"multi-{index}",
        pe_faults=tuple(
            PEFault(rng.randrange(acg.n_pes), 1.0) for _ in range(rng.randrange(3))
        ),
        link_faults=tuple(
            LinkFault(*rng.choice(channels), 1.0)
            for _ in range(rng.randrange(len(channels) // 2))
        ),
    )


@pytest.mark.parametrize(
    "topology, routing", PLATFORMS, ids=[type(t).__name__ for t, _ in PLATFORMS]
)
def test_routes_reuse_base_or_detour_by_bfs(topology, routing):
    """Generated multi-fault plans: every live pair keeps its base route
    object exactly when no link on it is dead; otherwise it gets the BFS
    path over the degraded topology, or is unroutable exactly when BFS
    cannot connect it."""
    base = ACG(topology, pe_types=["risc"] * topology.n_tiles, routing=routing())
    rng = random.Random(2004)
    reused = detoured = unroutable = 0
    for index in range(40):
        degraded = DegradedACG(base, _random_plan(rng, base, index))
        dead = {link.key for link in topology.links()} - {
            link.key for link in degraded.topology.links()
        }
        bfs = ShortestPathRouting()
        live = [pe for pe in base.pes if degraded.pe_available(pe.index)]
        for src in live:
            for dst in live:
                base_route = base.route(src.index, dst.index)
                if dead.isdisjoint(base_route.link_keys):
                    assert degraded.route(src.index, dst.index) is base_route
                    reused += 1
                    continue
                try:
                    path = bfs.route(degraded.topology, src.position, dst.position)
                except RoutingError:
                    unroutable += 1
                    with pytest.raises(UnroutableError):
                        degraded.route(src.index, dst.index)
                    continue
                detoured += 1
                route = degraded.route(src.index, dst.index)
                assert route is not base_route
                assert [link.src for link in route.links] + [path[-1]] == path
                assert dead.isdisjoint(route.link_keys)
                assert route.n_hops == len(path)
                assert route.energy_per_bit == base.energy_model.energy_per_bit(len(path))
        assert len(degraded._unroutable) + len(degraded._routes) == len(live) ** 2
    # The corpus exercises all three outcomes.
    assert reused > 0 and detoured > 0 and unroutable > 0

