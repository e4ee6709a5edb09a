"""Column-based fabric model of an FPGA.

The die is a grid of tiles.  Most columns are CLB columns (logic + FFs);
BRAM and DSP columns are interleaved at regular intervals, like real Xilinx
parts.  Distances are measured in tile units; the net-delay model converts
tile distance to nanoseconds.

Capacity accounting is per-tile:

* CLB tile: ``TILE_LUT_EQ`` "LUT-equivalents" (FF pairs count half a LUT);
* BRAM tile: one BRAM36;
* DSP tile: two DSP48s.

Allocation searches outward from a center ring by ring (Chebyshev
distance), each ring in clockwise order: top row left to right, right
column downward, bottom row right to left, left column upward.
:class:`Occupancy` indexes the tiles that still have free capacity as
integer bitmasks — per column kind one mask per row, and one mask per
column — so a ring is enumerated with a few bit scans, and a ring with no
free tile of the requested kind costs a handful of big-int operations
instead of a walk over its 8·r tiles.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import PlacementError
from repro.physical.device import Device

#: LUT-equivalents per CLB tile (64 LUTs; FFs ride along at 2-per-LUT-eq).
TILE_LUT_EQ = 64
#: DSP48 slices per DSP-column tile.
TILE_DSP = 2

CLB, BRAM_COL, DSP_COL = "clb", "bram", "dsp"


class Fabric:
    """A sited tile grid derived from a :class:`Device`'s capacities."""

    def __init__(self, device: Device) -> None:
        self.device = device
        clb_tiles = math.ceil(device.luts / TILE_LUT_EQ)
        bram_tiles = device.bram36
        dsp_tiles = math.ceil(device.dsps / TILE_DSP)
        total = clb_tiles + bram_tiles + dsp_tiles
        self.rows = max(8, int(math.sqrt(total)))
        clb_cols = math.ceil(clb_tiles / self.rows)
        bram_cols = math.ceil(bram_tiles / self.rows)
        dsp_cols = math.ceil(dsp_tiles / self.rows)
        self.cols = clb_cols + bram_cols + dsp_cols
        self.col_types = self._interleave(clb_cols, bram_cols, dsp_cols)
        #: Static tile masks per column kind: ``kind_rows[kind][y]`` has bit
        #: x set for every column x of that kind, ``kind_cols[kind][x]`` has
        #: every row bit set when column x is of that kind (else 0).  An
        #: empty :class:`Occupancy` starts its free masks from copies.
        all_rows = (1 << self.rows) - 1
        self.kind_rows: Dict[str, List[int]] = {}
        self.kind_cols: Dict[str, List[int]] = {}
        for kind in (CLB, BRAM_COL, DSP_COL):
            mask = sum(1 << x for x, t in enumerate(self.col_types) if t == kind)
            self.kind_rows[kind] = [mask] * self.rows
            self.kind_cols[kind] = [
                all_rows if t == kind else 0 for t in self.col_types
            ]

    @staticmethod
    def _interleave(clb: int, bram: int, dsp: int) -> List[str]:
        """Spread BRAM/DSP columns evenly among CLB columns."""
        total = clb + bram + dsp
        types = [CLB] * total
        if bram:
            step = total / bram
            for i in range(bram):
                types[min(total - 1, int((i + 0.5) * step))] = BRAM_COL
        if dsp:
            step = total / dsp
            for i in range(dsp):
                # Walk right from the ideal slot to the nearest CLB column.
                j = min(total - 1, int((i + 0.33) * step))
                while j < total and types[j] != CLB:
                    j += 1
                if j >= total:
                    j = types.index(CLB)
                types[j] = DSP_COL
        return types

    def col_type(self, x: int) -> str:
        return self.col_types[x]

    def tile_capacity(self, x: int) -> int:
        """Capacity of one tile in column ``x``, in that column's unit."""
        kind = self.col_types[x]
        if kind == CLB:
            return TILE_LUT_EQ
        if kind == BRAM_COL:
            return 1
        return TILE_DSP

    @property
    def center(self) -> Tuple[int, int]:
        return self.cols // 2, self.rows // 2

    @property
    def max_radius(self) -> int:
        """Largest ring radius an allocation search visits."""
        return max(self.cols, self.rows)

    def ring_sides(
        self, cx: int, cy: int, radius: int, rows: List[int], cols: List[int]
    ) -> List[Tuple[int, int, int]]:
        """The ring at ``radius`` around (cx, cy), as bitmasks per side.

        ``rows``/``cols`` are per-row and per-column tile masks (static or
        free, see :class:`Occupancy`).  Returns ``(side, fixed, bits)`` for
        each side with a masked tile in bounds, in clockwise visiting order:
        side 0 is the top row (x bits, walked left to right), 1 the right
        column (y bits, downward), 2 the bottom row (right to left) and 3
        the left column (upward); ``fixed`` is the side's row or column.
        The sides are disjoint; radius 0 is the center tile, as a top row.
        """
        x0, x1, y0, y1 = cx - radius, cx + radius, cy - radius, cy + radius
        last_col, last_row = self.cols - 1, self.rows - 1
        # In-bounds spans: rows cover x0..x1, columns y0+1..y1.  The bottom
        # row drops (x1, y1), which the right column covers, and the left
        # column drops (x0, y1), which the bottom row covers.
        xlo = x0 if x0 > 0 else 0
        xhi = x1 if x1 < last_col else last_col
        ylo = y0 + 1 if y0 >= 0 else 0
        yhi = y1 if y1 < last_row else last_row
        xspan = ((2 << (xhi - xlo)) - 1) << xlo if xlo <= xhi else 0
        yspan = ((2 << (yhi - ylo)) - 1) << ylo if ylo <= yhi else 0
        sides = []
        if xspan and 0 <= y0 <= last_row:
            bits = rows[y0] & xspan
            if bits:
                sides.append((0, y0, bits))
        if yspan and 0 <= x1 <= last_col:
            bits = cols[x1] & yspan
            if bits:
                sides.append((1, x1, bits))
        if xspan and 0 <= y1 <= last_row:
            bits = rows[y1] & xspan & ~(1 << x1)
            if bits:
                sides.append((2, y1, bits))
        if yspan and 0 <= x0 <= last_col:
            bits = cols[x0] & yspan & ~(1 << y1)
            if bits:
                sides.append((3, x0, bits))
        return sides


class Occupancy:
    """Mutable per-tile free-capacity tracker used during placement.

    ``_used`` maps a tile to its consumed units.  Alongside it, the free
    index mirrors which tiles still have capacity: ``_free_rows[kind][y]``
    has bit x set, and ``_free_cols[kind][x]`` has bit y set, exactly when
    tile (x, y) of that column kind is not full.  :meth:`take` and
    :meth:`release` touch the masks only when a tile flips between full and
    not full.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self._used: Dict[Tuple[int, int], int] = {}
        self._capacity = [fabric.tile_capacity(x) for x in range(fabric.cols)]
        self._free_rows = {k: list(m) for k, m in fabric.kind_rows.items()}
        self._free_cols = {k: list(m) for k, m in fabric.kind_cols.items()}
        #: ``(cx, cy, radius)`` Chebyshev bound of the tiles examined by the
        #: most recent :meth:`allocate` call.  The allocation result is a
        #: pure function of the free capacities inside this box: a search
        #: re-run against an occupancy unchanged within the box visits the
        #: same tiles in the same order and returns identical chunks
        #: (placement's refine uses this to skip provably-identical
        #: failed trial moves).  The radius is the ring of the first tile of
        #: the requested kind, full or not, that follows the last tile taken
        #: in search order.
        self.last_search: Optional[Tuple[int, int, int]] = None

    def free_at(self, x: int, y: int) -> int:
        return self._capacity[x] - self._used.get((x, y), 0)

    def _set_full(self, x: int, y: int, full: bool) -> None:
        kind = self.fabric.col_types[x]
        if full:
            self._free_rows[kind][y] &= ~(1 << x)
            self._free_cols[kind][x] &= ~(1 << y)
        else:
            self._free_rows[kind][y] |= 1 << x
            self._free_cols[kind][x] |= 1 << y

    def take(self, x: int, y: int, amount: int) -> int:
        """Consume up to ``amount`` units at a tile; returns amount taken."""
        cap = self._capacity[x]
        used = self._used.get((x, y), 0)
        taken = min(cap - used, amount)
        if taken > 0:
            used += taken
            self._used[(x, y)] = used
            if used >= cap:
                self._set_full(x, y, True)
        return taken

    def release(self, chunks) -> None:
        """Return previously-allocated ``[(x, y, units)]`` chunks."""
        for x, y, units in chunks:
            used = self._used.get((x, y), 0)
            remaining = used - units
            if remaining > 0:
                self._used[(x, y)] = remaining
            else:
                self._used.pop((x, y), None)
            cap = self._capacity[x]
            if (used >= cap) != (remaining >= cap):
                self._set_full(x, y, remaining >= cap)

    def allocate(
        self, cx: int, cy: int, col_kind: str, amount: int
    ) -> List[Tuple[int, int, int]]:
        """Allocate ``amount`` units of ``col_kind`` capacity near (cx, cy).

        Takes from the free tiles of that kind ring by ring outward, in
        clockwise order within a ring (see :meth:`Fabric.ring_sides`).
        Returns [(x, y, units)] chunks.  Raises :class:`PlacementError` when
        the device is out of that resource.
        """
        fabric = self.fabric
        chunks: List[Tuple[int, int, int]] = []
        remaining = amount
        rows = self._free_rows.get(col_kind)
        if rows is not None and remaining > 0:
            cols = self._free_cols[col_kind]
            take = self.take
            for radius in range(fabric.max_radius + 1):
                for side, fixed, bits in fabric.ring_sides(cx, cy, radius, rows, cols):
                    while bits:
                        if side >= 2:
                            pos = bits.bit_length() - 1
                        else:
                            pos = (bits & -bits).bit_length() - 1
                        bits ^= 1 << pos
                        x, y = (pos, fixed) if side % 2 == 0 else (fixed, pos)
                        taken = take(x, y, remaining)
                        chunks.append((x, y, taken))
                        remaining -= taken
                        if remaining <= 0:
                            self.last_search = (
                                cx, cy,
                                self._next_kind_ring(
                                    cx, cy, col_kind, radius, side, pos
                                ),
                            )
                            return chunks
        if remaining <= 0:
            self.last_search = (
                cx, cy, self._next_kind_ring(cx, cy, col_kind, 0, -1, 0)
            )
            return chunks
        self.last_search = (cx, cy, self._last_kind_ring(cx, cy, col_kind))
        raise PlacementError(
            f"device {fabric.device.name!r} out of {col_kind} capacity "
            f"({remaining} of {amount} units unplaced)"
        )

    def _next_kind_ring(
        self, cx: int, cy: int, col_kind: str, radius: int, side: int, pos: int
    ) -> int:
        """Ring of the first ``col_kind`` tile, full or not, after position
        ``pos`` of ``side`` (-1: before the ring) in search order; ``radius``
        itself when no such tile remains."""
        fabric = self.fabric
        rows = fabric.kind_rows.get(col_kind)
        if rows is None:
            return radius
        cols = fabric.kind_cols[col_kind]
        for r in range(radius, fabric.max_radius + 1):
            for s, _fixed, bits in fabric.ring_sides(cx, cy, r, rows, cols):
                if r > radius or s > side:
                    return r
                if s == side and bits & (
                    ((1 << pos) - 1) if side >= 2 else (-1 << (pos + 1))
                ):
                    return r
        return radius

    def _last_kind_ring(self, cx: int, cy: int, col_kind: str) -> int:
        """Ring of the last ``col_kind`` tile the search visits (0 if none)."""
        fabric = self.fabric
        rows = fabric.kind_rows.get(col_kind)
        if rows is not None:
            cols = fabric.kind_cols[col_kind]
            for r in range(fabric.max_radius, -1, -1):
                if fabric.ring_sides(cx, cy, r, rows, cols):
                    return r
        return 0
