"""Tests for the ACG: routes, e(r_ij), b(r_ij), durations, PEs."""

import pytest

from repro.arch.acg import ACG
from repro.arch.energy import BitEnergyModel
from repro.arch.pe import STANDARD_PE_TYPES, pe_type
from repro.arch.presets import DEFAULT_TYPE_CYCLE, hetero_mesh, mesh_2x2, mesh_3x3, mesh_4x4
from repro.arch.routing import YXRouting
from repro.arch.topology import Link, Mesh2D
from repro.errors import ArchitectureError


def small_acg(**kwargs):
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"], **kwargs)


class TestConstruction:
    def test_pe_indexing(self):
        acg = small_acg()
        assert acg.n_pes == 4
        assert acg.pe(0).position == (0, 0)
        assert acg.pe(0).type_name == "cpu"
        assert acg.pe_at((1, 1)).index == 3

    def test_type_count_mismatch(self):
        with pytest.raises(ArchitectureError):
            ACG(Mesh2D(2, 2), pe_types=["cpu"])

    def test_invalid_bandwidth(self):
        with pytest.raises(ArchitectureError):
            small_acg(link_bandwidth=0)

    def test_pe_type_names_order(self):
        acg = small_acg()
        assert acg.pe_type_names() == ["cpu", "dsp", "arm", "risc"]

    def test_unknown_lookups(self):
        acg = small_acg()
        with pytest.raises(ArchitectureError):
            acg.pe(99)
        with pytest.raises(ArchitectureError):
            acg.pe_at((9, 9))


class TestRoutes:
    def test_local_route(self):
        acg = small_acg()
        route = acg.route(0, 0)
        assert route.is_local
        assert route.n_hops == 1
        assert route.energy_per_bit == 0.0

    def test_neighbor_route(self):
        acg = small_acg()
        # PE0 at (0,0), PE1 at (0,1): one link.
        route = acg.route(0, 1)
        assert route.links == (Link((0, 0), (0, 1)),)
        assert route.n_hops == 2

    def test_routes_follow_xy(self):
        acg = mesh_3x3()
        # (0,0) is PE0, (2,2) is PE8; XY: columns first.
        route = acg.route(0, 8)
        coords = [route.links[0].src] + [l.dst for l in route.links]
        assert coords == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]

    def test_custom_routing_respected(self):
        acg = ACG(Mesh2D(3, 3), pe_types=["risc"] * 9, routing=YXRouting())
        route = acg.route(0, 8)
        coords = [route.links[0].src] + [l.dst for l in route.links]
        assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_hop_count_is_manhattan_plus_one(self):
        acg = mesh_4x4()
        mesh = acg.topology
        for src in acg.pes:
            for dst in acg.pes:
                expected = mesh.manhattan(src.position, dst.position) + 1
                assert acg.route(src.index, dst.index).n_hops == expected


class TestEnergyAndBandwidth:
    def test_energy_per_bit_matches_model(self):
        model = BitEnergyModel(e_sbit=2.0, e_lbit=1.0)
        acg = small_acg(energy_model=model)
        # 1 link route: 2 routers, 1 link.
        assert acg.energy_per_bit(0, 1) == 2 * 2.0 + 1.0
        # Diagonal on 2x2: 3 routers, 2 links.
        assert acg.energy_per_bit(0, 3) == 3 * 2.0 + 2 * 1.0

    def test_comm_energy_scales_with_volume(self):
        acg = small_acg()
        assert acg.comm_energy(1000, 0, 1) == pytest.approx(
            1000 * acg.energy_per_bit(0, 1)
        )
        assert acg.comm_energy(1000, 0, 0) == 0.0

    def test_comm_duration(self):
        acg = small_acg(link_bandwidth=100.0)
        assert acg.comm_duration(1000, 0, 1) == 10.0
        # Distance does NOT change duration (wormhole, pipelined flits):
        assert acg.comm_duration(1000, 0, 3) == 10.0
        # Local and zero-volume transfers take no time.
        assert acg.comm_duration(1000, 0, 0) == 0.0
        assert acg.comm_duration(0, 0, 1) == 0.0

    def test_bandwidth_exposed(self):
        acg = small_acg(link_bandwidth=123.0)
        assert acg.bandwidth(0, 1) == 123.0


class TestUnknownPairQueries:
    """Pair queries name an unknown PE pair in an ArchitectureError, like route()."""

    def _raises(self, query):
        with pytest.raises(ArchitectureError, match=r"0->99"):
            query(mesh_2x2())

    def test_energy_per_bit(self):
        self._raises(lambda acg: acg.energy_per_bit(0, 99))

    def test_bandwidth(self):
        self._raises(lambda acg: acg.bandwidth(0, 99))

    def test_comm_energy(self):
        self._raises(lambda acg: acg.comm_energy(1000, 0, 99))

    def test_comm_duration(self):
        self._raises(lambda acg: acg.comm_duration(1000, 0, 99))


class TestPresets:
    def test_sizes(self):
        assert mesh_2x2().n_pes == 4
        assert mesh_3x3().n_pes == 9
        assert mesh_4x4().n_pes == 16

    def test_type_cycle(self):
        acg = mesh_2x2()
        assert acg.pe_type_names() == list(DEFAULT_TYPE_CYCLE)

    def test_shuffle_is_seeded_permutation(self):
        a = mesh_4x4(shuffle_seed=7)
        b = mesh_4x4(shuffle_seed=7)
        c = mesh_4x4(shuffle_seed=8)
        assert a.pe_type_names() == b.pe_type_names()
        assert sorted(a.pe_type_names()) == sorted(c.pe_type_names())
        assert a.pe_type_names() != mesh_4x4().pe_type_names() or True  # permutation

    def test_empty_cycle_rejected(self):
        with pytest.raises(ArchitectureError):
            hetero_mesh(2, 2, type_cycle=[])

    def test_describe_mentions_every_pe(self):
        text = mesh_2x2().describe()
        for i in range(4):
            assert f"PE {i}" in text


class TestPETypes:
    def test_catalogue_lookup(self):
        assert pe_type("dsp").name == "dsp"
        with pytest.raises(ArchitectureError):
            pe_type("quantum")

    def test_anti_correlation(self):
        """Faster catalogue types must be more energy hungry."""
        types = sorted(STANDARD_PE_TYPES.values(), key=lambda t: t.speed_factor)
        energies = [t.energy_factor for t in types]
        assert energies == sorted(energies, reverse=True)

    def test_invalid_factors(self):
        from repro.arch.pe import PEType

        with pytest.raises(ArchitectureError):
            PEType(name="x", speed_factor=0, energy_factor=1)
        with pytest.raises(ArchitectureError):
            PEType(name="x", speed_factor=1, energy_factor=-1)
