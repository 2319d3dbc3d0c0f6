"""Tests for topologies: meshes, tori, honeycombs, links."""

import pytest

from repro.arch.topology import HoneycombTopology, Link, Mesh2D, Torus2D
from repro.errors import ArchitectureError


class TestMesh2D:
    def test_tile_count(self):
        assert Mesh2D(4, 4).n_tiles == 16
        assert Mesh2D(2, 3).n_tiles == 6
        assert Mesh2D(1, 1).n_tiles == 1

    def test_invalid_dimensions(self):
        with pytest.raises(ArchitectureError):
            Mesh2D(0, 4)

    def test_interior_degree(self):
        mesh = Mesh2D(3, 3)
        assert len(mesh.neighbors((1, 1))) == 4   # interior
        assert len(mesh.neighbors((0, 0))) == 2   # corner
        assert len(mesh.neighbors((0, 1))) == 3   # edge

    def test_link_count(self):
        # n*m mesh: 2*(n*(m-1) + m*(n-1)) directed links.
        mesh = Mesh2D(4, 4)
        assert len(mesh.links()) == 2 * (4 * 3 + 4 * 3)

    def test_manhattan(self):
        mesh = Mesh2D(4, 4)
        assert mesh.manhattan((0, 0), (3, 3)) == 6
        assert mesh.manhattan((1, 2), (1, 2)) == 0

    def test_validate_path(self):
        mesh = Mesh2D(3, 3)
        mesh.validate_path([(0, 0), (0, 1), (1, 1)])
        with pytest.raises(ArchitectureError):
            mesh.validate_path([(0, 0), (1, 1)])  # diagonal is not a link

    def test_unknown_coordinate(self):
        with pytest.raises(ArchitectureError):
            Mesh2D(2, 2).neighbors((5, 5))


class TestTorus2D:
    def test_wraparound_links(self):
        torus = Torus2D(3, 3)
        assert (0, 2) in torus.neighbors((0, 0))
        assert (2, 0) in torus.neighbors((0, 0))

    def test_no_double_links_on_size_2(self):
        # With only two columns, wrap links would duplicate mesh links.
        torus = Torus2D(2, 2)
        assert len(torus.neighbors((0, 0))) == 2

    def test_uniform_degree(self):
        torus = Torus2D(4, 4)
        degrees = {len(torus.neighbors(c)) for c in torus.coords()}
        assert degrees == {4}


class TestHoneycomb:
    def test_degree_at_most_three(self):
        honey = HoneycombTopology(4, 4)
        assert max(len(honey.neighbors(c)) for c in honey.coords()) <= 3

    def test_connected(self):
        honey = HoneycombTopology(4, 4)
        seen = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            node = frontier.pop()
            for nb in honey.neighbors(node):
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert len(seen) == honey.n_tiles

    def test_invalid_dimensions(self):
        with pytest.raises(ArchitectureError):
            HoneycombTopology(0, 3)


class TestLink:
    def test_reverse(self):
        link = Link((0, 0), (0, 1))
        assert link.reverse == Link((0, 1), (0, 0))
        assert link.reverse.reverse == link

    def test_hashable_directed(self):
        a = Link((0, 0), (0, 1))
        b = Link((0, 1), (0, 0))
        assert a != b
        assert len({a, b, Link((0, 0), (0, 1))}) == 2
