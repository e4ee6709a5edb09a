"""Spiral free-capacity search: the reference oracle for the allocator.

This is the allocator the placer shipped with, kept as the obvious
formulation of the search order: walk every tile of every Chebyshev ring
around the center, clockwise, and take from each tile of the requested
column kind that has room.  It costs O(radius²) per call, which is why
:class:`repro.physical.fabric.Occupancy` replaced it with a free-tile
bitmask index; ``tests/test_allocator_index.py`` requires the two to agree
on chunks, ``last_search``, errors and final occupancy.

Do not optimize this module: its value is that it stays slow and plain.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import PlacementError
from repro.physical.fabric import Fabric


def in_bounds(fabric: Fabric, x: int, y: int) -> bool:
    return 0 <= x < fabric.cols and 0 <= y < fabric.rows


def ring(fabric: Fabric, cx: int, cy: int, radius: int) -> Iterator[Tuple[int, int]]:
    """Tiles at Chebyshev distance ``radius`` from (cx, cy), in bounds.

    Radius 0 yields the center itself.  Deterministic clockwise order.
    """
    if radius == 0:
        if in_bounds(fabric, cx, cy):
            yield (cx, cy)
        return
    x0, x1 = cx - radius, cx + radius
    y0, y1 = cy - radius, cy + radius
    for x in range(x0, x1 + 1):
        if in_bounds(fabric, x, y0):
            yield (x, y0)
    for y in range(y0 + 1, y1 + 1):
        if in_bounds(fabric, x1, y):
            yield (x1, y)
    for x in range(x1 - 1, x0 - 1, -1):
        if in_bounds(fabric, x, y1):
            yield (x, y1)
    for y in range(y1 - 1, y0, -1):
        if in_bounds(fabric, x0, y):
            yield (x0, y)


def nearest_tiles(
    fabric: Fabric,
    cx: int,
    cy: int,
    col_kind: str,
    limit_radius: Optional[int] = None,
) -> Iterator[Tuple[int, int]]:
    """Tiles of the requested column type by increasing ring distance."""
    max_radius = (
        limit_radius if limit_radius is not None else max(fabric.cols, fabric.rows)
    )
    for radius in range(0, max_radius + 1):
        for x, y in ring(fabric, cx, cy, radius):
            if fabric.col_types[x] == col_kind:
                yield (x, y)


class SpiralOccupancy:
    """Per-tile free-capacity tracker with the spiral allocation search."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self._used: Dict[Tuple[int, int], int] = {}
        self.last_search: Optional[Tuple[int, int, int]] = None

    def free_at(self, x: int, y: int) -> int:
        return self.fabric.tile_capacity(x) - self._used.get((x, y), 0)

    def take(self, x: int, y: int, amount: int) -> int:
        free = self.free_at(x, y)
        taken = min(free, amount)
        if taken > 0:
            self._used[(x, y)] = self._used.get((x, y), 0) + taken
        return taken

    def release(self, chunks) -> None:
        for x, y, units in chunks:
            remaining = self._used.get((x, y), 0) - units
            if remaining > 0:
                self._used[(x, y)] = remaining
            else:
                self._used.pop((x, y), None)

    def allocate(
        self, cx: int, cy: int, col_kind: str, amount: int
    ) -> List[Tuple[int, int, int]]:
        chunks: List[Tuple[int, int, int]] = []
        remaining = amount
        radius = 0
        for x, y in nearest_tiles(self.fabric, cx, cy, col_kind):
            radius = max(radius, abs(x - cx), abs(y - cy))
            if remaining <= 0:
                break
            taken = self.take(x, y, remaining)
            if taken:
                chunks.append((x, y, taken))
                remaining -= taken
        self.last_search = (cx, cy, radius)
        if remaining > 0:
            raise PlacementError(
                f"device {self.fabric.device.name!r} out of {col_kind} capacity "
                f"({remaining} of {amount} units unplaced)"
            )
        return chunks
