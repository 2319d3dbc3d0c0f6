"""Fault-masked views of the platform.

Two layers, each a drop-in for its healthy counterpart:

* :class:`DegradedTopology` — the base topology minus dead tiles and cut
  channels.  A dead PE takes its **router** with it (the conservative
  reading: the tile forwards nothing), so every link touching a dead
  tile disappears too.  Permanent cuts remove both directions of the
  channel for the whole recovery horizon, whatever their onset time —
  routing through a channel known to die later would just schedule the
  next failure.
* :class:`DegradedACG` — the committed platform over the degraded
  topology.  A live PE pair keeps the healthy ACG's own :class:`Route`
  object when none of its links is dead; only the pairs a fault cuts are
  detoured, along the deterministic lexicographic shortest path around
  the damage.  The PE list keeps its original indices (mappings and
  schedules stay meaningful); dead PEs are simply marked unavailable,
  and any route query touching a dead or partitioned endpoint raises
  :class:`~repro.errors.UnroutableError`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro import obs
from repro.arch.acg import ACG, Route
from repro.arch.routing import ShortestPathRouting
from repro.arch.topology import Coord, Topology
from repro.errors import ArchitectureError, RoutingError, UnroutableError
from repro.faults.plan import FaultPlan


class DegradedTopology(Topology):
    """The base topology with dead tiles and cut channels masked out."""

    name = "degraded"

    def __init__(
        self,
        base: Topology,
        dead_tiles: Iterable[Coord] = (),
        cut_channels: Iterable[Tuple[Coord, Coord]] = (),
    ) -> None:
        super().__init__()
        self.base = base
        self.dead_tiles = frozenset(dead_tiles)
        for tile in self.dead_tiles:
            if not base.has_tile(tile):
                raise ArchitectureError(f"dead tile {tile} not in base topology")
        cut = set()
        for a, b in cut_channels:
            if not base.has_tile(a) or not base.has_tile(b):
                raise ArchitectureError(f"cut channel {a}<->{b} not in base topology")
            cut.add((a, b))
            cut.add((b, a))
        self.cut_channels = frozenset(cut)
        for coord in base.coords():
            if coord not in self.dead_tiles:
                self._add_tile(coord)
        for coord in self._coords:
            for neighbor in base.neighbors(coord):
                if neighbor in self.dead_tiles or (coord, neighbor) in cut:
                    continue
                self._links[coord].append(neighbor)


class DegradedACG(ACG):
    """The committed platform, re-routed around a fault plan.

    PE indices, types, the routing algorithm, the energy model and the
    bandwidth are those of ``base``; only reachability changes.  A live
    pair whose base route crosses no dead link keeps that very
    :class:`Route`: the base routing would pick the same path again, and
    the path alone fixes the route's links, hops, energy and bandwidth.
    Every other live pair is detoured along the
    :class:`ShortestPathRouting` path over the :class:`DegradedTopology`,
    whose lexicographic tie-breaking makes the detour a pure function of
    (platform, fault set) — the determinism the link tables and the
    jobs-N sweep equivalence rely on.  Pairs the faults disconnect have
    no route, and querying them (or any dead endpoint) raises
    :class:`UnroutableError`.

    Raises:
        ArchitectureError: the plan names a PE or a channel (cut or
            transient) that the platform does not have.
    """

    def __init__(self, base: ACG, plan: FaultPlan) -> None:
        # Deliberately no super().__init__(): the healthy constructor
        # would renumber PEs from the surviving coords and eagerly route
        # every pair (raising on partitions).  Rebind by hand instead.
        self.base_acg = base
        self.plan = plan
        dead_indices = []
        for pe_index in plan.dead_pes():
            base.pe(pe_index)  # range check
            dead_indices.append(pe_index)
        self.dead_pes: FrozenSet[int] = frozenset(dead_indices)
        for fault in plan.link_faults + plan.transient_faults:
            a, b = fault.src, fault.dst
            if not base.topology.has_tile(a) or b not in base.topology.neighbors(a):
                raise ArchitectureError(
                    f"plan {plan.name!r}: channel {a}<->{b} is not a link of the platform"
                )
        dead_tiles = {base.pe(i).position for i in self.dead_pes}
        self.topology = DegradedTopology(
            base.topology, dead_tiles=dead_tiles, cut_channels=plan.cut_channels()
        )
        self.routing = base.routing
        self.energy_model = base.energy_model
        self.link_bandwidth = base.link_bandwidth
        self.type_catalog = dict(base.type_catalog)
        self.pes = list(base.pes)
        self._coord_to_index: Dict[Coord, int] = {pe.position: pe.index for pe in self.pes}
        self._routes: Dict[Tuple[int, int], Route] = {}
        self._links = dict(base._links)
        self._unroutable: Dict[Tuple[int, int], str] = {}
        #: live pairs whose base route a fault cut and that got a detour.
        self.n_detoured = 0
        self._build_degraded_routes()
        obs.get().metrics.counter("faults.detoured_routes").inc(self.n_detoured)

    def _build_degraded_routes(self) -> None:
        # One definition of "dead": every base channel the degraded
        # topology lacks (cut, or touching a dead router).
        dead = {link.key for link in self.base_acg.topology.links()}
        dead.difference_update(link.key for link in self.topology.links())
        detour = ShortestPathRouting()
        alive = [pe for pe in self.pes if pe.index not in self.dead_pes]
        for src_pe in alive:
            for dst_pe in alive:
                pair = (src_pe.index, dst_pe.index)
                route = self.base_acg._routes[pair]
                if dead.isdisjoint(route.link_keys):
                    self._routes[pair] = route
                    continue
                try:
                    path = detour.route(self.topology, src_pe.position, dst_pe.position)
                except RoutingError:
                    # A partition is a per-pair property, not a platform
                    # error: record it and let route() raise on access.
                    self._unroutable[pair] = (
                        f"no surviving route from {src_pe.position} to "
                        f"{dst_pe.position}: faults partition the NoC"
                    )
                    continue
                self._routes[pair] = self._make_route(src_pe, dst_pe, path)
                self.n_detoured += 1

    # -- availability / route queries -----------------------------------------

    def pe_available(self, index: int) -> bool:
        return index not in self.dead_pes

    def route(self, src: int, dst: int) -> Route:
        route = self._routes.get((src, dst))
        if route is not None:
            return route
        for endpoint in (src, dst):
            if endpoint in self.dead_pes:
                raise UnroutableError(f"no route {src}->{dst}: PE {endpoint} is dead")
        reason = self._unroutable.get((src, dst))
        if reason is not None:
            raise UnroutableError(reason)
        raise ArchitectureError(f"no route {src}->{dst}")

    # The healthy ACG reads self._routes directly in these two per-transaction
    # queries; go through route() so dead/partitioned pairs raise
    # UnroutableError, not the healthy ACG's plain ArchitectureError.

    def comm_energy(self, volume_bits: float, src: int, dst: int) -> float:
        return volume_bits * self.route(src, dst).energy_per_bit

    def comm_duration(self, volume_bits: float, src: int, dst: int) -> float:
        route = self.route(src, dst)
        if route.is_local or volume_bits == 0:
            return 0.0
        return volume_bits / route.bandwidth

    def describe(self) -> str:
        lines = [super().describe()]
        if self.dead_pes:
            lines.append(f"  dead PEs: {sorted(self.dead_pes)}")
        if self.topology.cut_channels:
            channels = sorted({tuple(sorted(c)) for c in self.topology.cut_channels})
            lines.append(f"  cut channels: {channels}")
        if self.n_detoured:
            lines.append(f"  detoured PE pairs: {self.n_detoured}")
        if self._unroutable:
            lines.append(f"  partitioned PE pairs: {len(self._unroutable)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DegradedACG(tiles={self.n_pes}, dead={sorted(self.dead_pes)}, "
            f"cuts={len(self.topology.cut_channels) // 2})"
        )
