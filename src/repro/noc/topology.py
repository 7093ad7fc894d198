"""2D-mesh topology with XY (dimension-ordered) routing.

Tiles are numbered row-major; tile *i* hosts core *i*, LLC bank *i*, and
(for CE+) AIM slice *i*.  Links are directed; routes between every tile
pair are precomputed at construction (at most 64x64 pairs), so the
network's send path is a tuple lookup.  A topology is immutable, so
every machine of one geometry shares one (:func:`mesh_topology`).
"""

from __future__ import annotations

from functools import lru_cache

from ..common.errors import ConfigError


class MeshTopology:
    """A ``width x height`` mesh of tiles with XY routing."""

    def __init__(self, width: int, height: int):
        if width <= 0 or height <= 0:
            raise ConfigError("mesh dimensions must be positive")
        self.width = width
        self.height = height
        self.num_tiles = width * height

        # Enumerate directed links: (src_tile, dst_tile) for mesh neighbours.
        self._link_ids: dict[tuple[int, int], int] = {}
        links: list[tuple[int, int]] = []
        for tile in range(self.num_tiles):
            x, y = tile % width, tile // width
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if 0 <= nx < width and 0 <= ny < height:
                    neighbour = ny * width + nx
                    self._link_ids[(tile, neighbour)] = len(links)
                    links.append((tile, neighbour))
        self.links: tuple[tuple[int, int], ...] = tuple(links)

        # Precompute XY routes as tuples of link indices, indexed by
        # ``src * num_tiles + dst``.
        self.routes: tuple[tuple[int, ...], ...] = tuple(
            self._compute_route(src, dst)
            for src in range(self.num_tiles)
            for dst in range(self.num_tiles)
        )

    @property
    def num_links(self) -> int:
        return len(self.links)

    def coords(self, tile: int) -> tuple[int, int]:
        """(x, y) position of a tile."""
        if not 0 <= tile < self.num_tiles:
            raise ConfigError(f"tile {tile} out of range (0..{self.num_tiles - 1})")
        return tile % self.width, tile // self.width

    def _compute_route(self, src: int, dst: int) -> tuple[int, ...]:
        """XY route: travel along X to the destination column, then along Y."""
        route: list[int] = []
        x, y = src % self.width, src // self.width
        dx, dy = dst % self.width, dst // self.width
        while x != dx:
            nx = x + (1 if dx > x else -1)
            route.append(self._link_ids[(y * self.width + x, y * self.width + nx)])
            x = nx
        while y != dy:
            ny = y + (1 if dy > y else -1)
            route.append(self._link_ids[(y * self.width + x, ny * self.width + x)])
            y = ny
        return tuple(route)

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Link indices of the XY route from ``src`` to ``dst`` (empty if equal)."""
        return self.routes[src * self.num_tiles + dst]

    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop count between tiles."""
        return len(self.routes[src * self.num_tiles + dst])


@lru_cache(maxsize=None)
def mesh_topology(width: int, height: int) -> MeshTopology:
    """The one shared :class:`MeshTopology` of a ``width x height`` mesh."""
    return MeshTopology(width, height)
