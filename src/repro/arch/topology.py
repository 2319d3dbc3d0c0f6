"""NoC topologies: tile coordinates and the directed links between them.

The paper's platform is an ``n x n`` 2D mesh; its conclusion notes the
algorithm extends to other regular topologies (torus, honeycomb) as long
as a deterministic route exists per PE pair.  All three are provided.

Coordinates are ``(row, col)`` with ``(0, 0)`` at the bottom-left,
matching the paper's Fig. 1 tile labels ``(row, col)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ArchitectureError

Coord = Tuple[int, int]

#: Bits per coordinate in :attr:`Link.key`: rows and columns in
#: ``[0, 2**LINK_COORD_BITS)`` are encodable.
LINK_COORD_BITS = 10
#: Tag bit set in every link key.  It sits above the four packed
#: coordinates, so every key is at least ``2**40``: far above any PE
#: index (a topology whose coordinates are all encodable has at most
#: ``2**20`` tiles), so a link key never equals a PE index.
LINK_KEY_TAG = 1 << (4 * LINK_COORD_BITS)
_COORD_LIMIT = 1 << LINK_COORD_BITS


def link_key(src: Coord, dst: Coord) -> int:
    """The resource id of the link ``src -> dst`` (see :attr:`Link.key`).

    The four coordinates are packed ``LINK_COORD_BITS`` bits each below
    :data:`LINK_KEY_TAG`, so the key is injective over the encodable
    range.  Raises :class:`ArchitectureError` outside it.
    """
    bits = LINK_COORD_BITS
    try:
        (sr, sc), (dr, dc) = src, dst
        packed = ((sr << bits | sc) << bits | dr) << bits | dc
    except (TypeError, ValueError):
        raise ArchitectureError(f"link {src}->{dst}: coordinates must be integer (row, col) pairs") from None
    if not 0 <= min(sr, sc, dr, dc) <= max(sr, sc, dr, dc) < _COORD_LIMIT:
        raise ArchitectureError(f"link {src}->{dst}: coordinates must lie in [0, {_COORD_LIMIT})")
    return LINK_KEY_TAG | packed


@dataclass(frozen=True)
class Link:
    """A directed physical channel between two adjacent routers.

    ``key`` is the link's integer resource id in the schedulers' tables:
    :func:`link_key` of its coordinates, fixed at construction.  It
    depends on ``(src, dst)`` alone, so every ``Link`` naming the same
    channel (healthy or detour routes, fault plans, loaded schedules)
    has the same key, and no key equals a PE index.
    """

    src: Coord
    dst: Coord
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", link_key(self.src, self.dst))

    def __repr__(self) -> str:
        return f"Link({self.src}->{self.dst})"

    @property
    def reverse(self) -> "Link":
        return Link(self.dst, self.src)


class Topology:
    """Base class: a set of tile coordinates plus directed adjacency."""

    name = "abstract"

    def __init__(self) -> None:
        self._coords: List[Coord] = []
        self._links: Dict[Coord, List[Coord]] = {}

    # -- construction helpers ----------------------------------------------

    def _add_tile(self, coord: Coord) -> None:
        self._coords.append(coord)
        self._links.setdefault(coord, [])

    def _add_bidirectional(self, a: Coord, b: Coord) -> None:
        if b not in self._links[a]:
            self._links[a].append(b)
        if a not in self._links[b]:
            self._links[b].append(a)

    # -- queries -------------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return len(self._coords)

    def coords(self) -> List[Coord]:
        return list(self._coords)

    def neighbors(self, coord: Coord) -> List[Coord]:
        try:
            return list(self._links[coord])
        except KeyError:
            raise ArchitectureError(f"coordinate {coord} not in topology") from None

    def has_tile(self, coord: Coord) -> bool:
        return coord in self._links

    def links(self) -> List[Link]:
        """All directed links (each physical channel yields two)."""
        return [Link(a, b) for a in self._coords for b in self._links[a]]

    def validate_path(self, path: Sequence[Coord]) -> None:
        """Raise unless consecutive path entries are adjacent tiles."""
        for a, b in zip(path, path[1:]):
            if b not in self._links.get(a, ()):  # pragma: no branch
                raise ArchitectureError(f"path step {a}->{b} is not a topology link")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tiles={self.n_tiles})"


class Mesh2D(Topology):
    """The paper's ``rows x cols`` 2D mesh."""

    name = "mesh2d"

    def __init__(self, rows: int, cols: int) -> None:
        super().__init__()
        if rows < 1 or cols < 1:
            raise ArchitectureError(f"mesh dimensions must be >= 1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        for r in range(rows):
            for c in range(cols):
                self._add_tile((r, c))
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    self._add_bidirectional((r, c), (r, c + 1))
                if r + 1 < rows:
                    self._add_bidirectional((r, c), (r + 1, c))

    def manhattan(self, a: Coord, b: Coord) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])


class Torus2D(Mesh2D):
    """2D mesh with wrap-around channels in both dimensions."""

    name = "torus2d"

    def __init__(self, rows: int, cols: int) -> None:
        super().__init__(rows, cols)
        if cols > 2:
            for r in range(rows):
                self._add_bidirectional((r, 0), (r, cols - 1))
        if rows > 2:
            for c in range(cols):
                self._add_bidirectional((0, c), (rows - 1, c))


class HoneycombTopology(Topology):
    """A small honeycomb (hexagonal) arrangement, as in Hemani et al. [3].

    Tiles sit on a brick-wall grid: each tile has its east/west neighbours
    plus one vertical neighbour whose direction alternates with parity —
    giving the degree-3 connectivity of a honeycomb.  The paper's
    conclusion singles this out as the topology for which ``E_bit`` is no
    longer a pure Manhattan-distance function, which our ACG handles by
    measuring hop counts on actual routes.
    """

    name = "honeycomb"

    def __init__(self, rows: int, cols: int) -> None:
        super().__init__()
        if rows < 1 or cols < 1:
            raise ArchitectureError(f"honeycomb dimensions must be >= 1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        for r in range(rows):
            for c in range(cols):
                self._add_tile((r, c))
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    self._add_bidirectional((r, c), (r, c + 1))
                # Vertical link only when (r + c) is even: degree <= 3.
                if r + 1 < rows and (r + c) % 2 == 0:
                    self._add_bidirectional((r, c), (r + 1, c))
