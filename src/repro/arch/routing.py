"""Deterministic routing algorithms.

The paper uses dimension-ordered XY routing on the 2D mesh ("for the sake
of simplicity, the XY routing scheme is used") and notes that any other
*deterministic* routing can be substituted.  A routing algorithm maps an
ordered tile pair to the unique path (list of tile coordinates) its
packets traverse; schedule tables are then kept per directed link along
that path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.arch.topology import Coord, HoneycombTopology, Mesh2D, Topology, Torus2D
from repro.errors import RoutingError


class RoutingAlgorithm:
    """Base class: deterministic single-path routing over a topology."""

    name = "abstract"

    def route(self, topology: Topology, src: Coord, dst: Coord) -> List[Coord]:
        """Tile sequence from ``src`` to ``dst`` inclusive.

        ``route(t, a, a) == [a]`` (local delivery, no links used).
        """
        raise NotImplementedError

    def n_hops(self, topology: Topology, src: Coord, dst: Coord) -> int:
        """Number of routers traversed (Eq. 2's ``n_hops``)."""
        return len(self.route(topology, src, dst))


class XYRouting(RoutingAlgorithm):
    """Dimension-ordered routing: correct the column first, then the row.

    With Fig. 1's ``(row, col)`` labels, the X dimension is the column.
    """

    name = "xy"

    def route(self, topology: Topology, src: Coord, dst: Coord) -> List[Coord]:
        _require_mesh(topology)
        path = [src]
        r, c = src
        while c != dst[1]:
            c += 1 if dst[1] > c else -1
            path.append((r, c))
        while r != dst[0]:
            r += 1 if dst[0] > r else -1
            path.append((r, c))
        return path


class YXRouting(RoutingAlgorithm):
    """Dimension-ordered routing correcting the row first, then the column."""

    name = "yx"

    def route(self, topology: Topology, src: Coord, dst: Coord) -> List[Coord]:
        _require_mesh(topology)
        path = [src]
        r, c = src
        while r != dst[0]:
            r += 1 if dst[0] > r else -1
            path.append((r, c))
        while c != dst[1]:
            c += 1 if dst[1] > c else -1
            path.append((r, c))
        return path


class TorusXYRouting(RoutingAlgorithm):
    """XY routing that takes the shorter way around each torus ring."""

    name = "torus-xy"

    def route(self, topology: Topology, src: Coord, dst: Coord) -> List[Coord]:
        if not isinstance(topology, Torus2D):
            raise RoutingError(f"{self.name} routing requires a Torus2D, got {topology!r}")
        path = [src]
        r, c = src
        step_c = _ring_step(c, dst[1], topology.cols)
        while c != dst[1]:
            c = (c + step_c) % topology.cols
            path.append((r, c))
        step_r = _ring_step(r, dst[0], topology.rows)
        while r != dst[0]:
            r = (r + step_r) % topology.rows
            path.append((r, c))
        return path


class ShortestPathRouting(RoutingAlgorithm):
    """Deterministic BFS shortest path for irregular topologies.

    Tie-breaking rule (documented contract, relied on by the fault
    masker's degraded-route selection): among all shortest paths, the one
    returned is the path whose predecessor at every node is the
    *lexicographically smallest* tile at the previous BFS distance.  Both
    each BFS level and each node's neighbour list are expanded in sorted
    coordinate order, so the route per pair is unique and stable across
    Python versions and insertion orders — the determinism the
    scheduler's link tables require.  Used for the honeycomb (where
    dimension-ordered routing is undefined) and for the detours a
    degraded platform takes around dead routers and cut links.
    """

    name = "shortest"

    def __init__(self) -> None:
        # The cache is keyed per topology *object*; a plain ``id()`` key
        # could alias a garbage-collected topology with a new one at the
        # same address, so hold the reference and reset on change.
        self._topology: Topology = None  # type: ignore[assignment]
        self._cache: Dict[Tuple[Coord, Coord], List[Coord]] = {}

    def route(self, topology: Topology, src: Coord, dst: Coord) -> List[Coord]:
        if topology is not self._topology:
            self._topology = topology
            self._cache = {}
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return list(cached)
        if not topology.has_tile(src) or not topology.has_tile(dst):
            raise RoutingError(f"route endpoints {src}->{dst} not in topology")
        if src == dst:
            return [src]
        # BFS, expanding both each level and each neighbour list in
        # sorted order: ties resolve to the lexicographically smallest
        # predecessor (see class docstring).
        parent: Dict[Coord, Coord] = {src: src}
        frontier = [src]
        while frontier and dst not in parent:
            next_frontier: List[Coord] = []
            for node in sorted(frontier):
                for nb in sorted(topology.neighbors(node)):
                    if nb not in parent:
                        parent[nb] = node
                        next_frontier.append(nb)
            frontier = next_frontier
        if dst not in parent:
            raise RoutingError(f"no route from {src} to {dst}")
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        self._cache[key] = list(path)
        return path


def _require_mesh(topology: Topology) -> None:
    if not isinstance(topology, Mesh2D):
        raise RoutingError(f"dimension-ordered routing requires a Mesh2D, got {topology!r}")


def _ring_step(src: int, dst: int, size: int) -> int:
    """Direction (+1/-1) of the shorter ring traversal; +1 on ties."""
    if src == dst:
        return 0
    forward = (dst - src) % size
    backward = (src - dst) % size
    return 1 if forward <= backward else -1


ROUTING_ALGORITHMS: Dict[str, Callable[[], RoutingAlgorithm]] = {
    "xy": XYRouting,
    "yx": YXRouting,
    "torus-xy": TorusXYRouting,
    "shortest": ShortestPathRouting,
}


def get_routing(name: str) -> RoutingAlgorithm:
    """Instantiate a routing algorithm by name."""
    try:
        factory = ROUTING_ALGORITHMS[name]
    except KeyError:
        raise RoutingError(
            f"unknown routing {name!r}; known: {sorted(ROUTING_ALGORITHMS)}"
        ) from None
    return factory()


def default_routing_for(topology: Topology) -> RoutingAlgorithm:
    """The natural deterministic routing for each built-in topology."""
    if isinstance(topology, Torus2D):
        return TorusXYRouting()
    if isinstance(topology, Mesh2D):
        return XYRouting()
    if isinstance(topology, HoneycombTopology):
        return ShortestPathRouting()
    return ShortestPathRouting()
