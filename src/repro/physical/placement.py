"""Deterministic connectivity-driven placement.

The placer processes cells in BFS order over the netlist from an anchor
(controller or port), placing each cell at the nearest free capacity to the
centroid of its already-placed neighbors, with a small seeded jitter.  This
is nowhere near an analytic placer, but it produces the property that
matters for the paper's experiments: *the sinks of a broadcast net occupy an
area proportional to their total resource demand*, so broadcast spread — and
hence wire delay — grows with broadcast factor and buffer size.

Two performance mechanisms ride on top of the greedy algorithm without
changing any placement decision:

* **Indexed allocation**: every seat comes from
  :meth:`~repro.physical.fabric.Occupancy.allocate` — the nearest free
  capacity of the cell's column kind, ring by ring outward from the
  desired tile, clockwise within a ring.  The occupancy keeps a bitmask
  index of the tiles that still have room, so a ring that is already full
  costs a few big-int operations rather than a walk over its tiles, and
  the tiles come out in exactly the order a plain spiral walk visits them
  (see :mod:`repro.physical.fabric`).
* **Linear refinement**: the outlier cutoff scales with the design's
  packed dimension (:data:`REFINE_OUTLIER_REL`) so the attempted-trial
  count stays proportional to cell count, and the refine pass caches each
  cell's neighborhood summary (four corner maxima that evaluate the worst
  Manhattan neighbor distance in O(1), plus centroid sums) with lazy
  invalidation, skipping trials whose inputs provably haven't changed
  since an identical failed trial.  See :class:`_RefineContext`.
"""

from __future__ import annotations

import math
import random
import weakref
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import PlacementError
from repro.rtl.netlist import Cell, CellKind, Netlist
from repro.physical.fabric import BRAM_COL, CLB, DSP_COL, Fabric, Occupancy

#: Jitter amplitude in tiles — the "random noise caused by the heuristic
#: optimization in downstream processes" that §4.1's smoothing suppresses.
JITTER_TILES = 1.5

#: Refinement outlier criterion: a cell is re-seated only when its worst
#: neighbor distance exceeds ``max(REFINE_OUTLIER_MIN,
#: REFINE_OUTLIER_REL * sqrt(total tile demand))``.  The relative term is
#: what keeps refinement linear: in a packed 2D blob, typical distances
#: grow with sqrt(area), so an *absolute* cutoff saturates — past a die
#: diameter of a few tiles every sink of every broadcast net qualifies,
#: and the trial count (each an O(1)-amortized but ~50 µs occupancy
#: probe) grows quadratically through exactly the broadcast-factor range
#: the paper sweeps.  Scaling the cutoff with the blob's linear dimension
#: keeps the outlier *fraction* roughly constant (~5-8 % measured on
#: genome at unroll 4-64), so trials — and refine time — stay
#: proportional to design size.  It is also the truer reading of
#: "outlier": a sink 12 tiles from a hub whose fanout cone spans 30 tiles
#: is seated fine; the same distance in a 10-tile design is not.
REFINE_OUTLIER_MIN = 8.0
REFINE_OUTLIER_REL = 0.15


def _col_kind_for(cell: Cell) -> str:
    if cell.kind is CellKind.BRAM:
        return BRAM_COL
    if cell.kind is CellKind.DSP:
        return DSP_COL
    return CLB


def _demand_of(cell: Cell) -> int:
    """Capacity units the cell needs in its column kind."""
    if cell.kind is CellKind.BRAM:
        return max(1, cell.brams)
    if cell.kind is CellKind.DSP:
        return max(1, cell.dsps)
    return max(1, cell.luts + math.ceil(cell.ffs / 2))


class Placement:
    """Result of placement: a position and radius per cell.

    Every write through :meth:`put` (or :meth:`remove`) bumps the written
    cell's *epoch*; the timing engine's per-(net, sink, pin) delay memo keys
    on driver/sink epochs, so a placement edit invalidates exactly the memo
    entries it touched and nothing else.
    """

    def __init__(self) -> None:
        self.pos: Dict[str, Tuple[float, float]] = {}
        self.radius: Dict[str, float] = {}
        self._epoch: Dict[str, int] = {}

    #: Cap on a cell's pin-access radius (tiles).  Large blocks expose their
    #: pins near the edge facing the neighbor, so intra-block distance does
    #: not grow without bound with block area.
    MAX_PIN_RADIUS = 6.0

    def distance(self, a: Cell, b: Cell, control_sink: bool = False) -> float:
        """Manhattan distance between two cells' centroids plus their
        internal pin-access radii.

        Data pins of a large block sit near its edge, so their radius
        contribution is capped.  ``control_sink`` marks broadcast control
        pins (clock enables, write enables) that must reach registers
        *throughout* the sink block's area — those pay the full (doubled)
        radius, which is why enable broadcasts over big modules are slow.
        """
        ax, ay = self.pos[a.name]
        bx, by = self.pos[b.name]
        ra = min(self.radius[a.name], self.MAX_PIN_RADIUS)
        if control_sink:
            rb = 2.0 * self.radius[b.name]
        else:
            rb = min(self.radius[b.name], self.MAX_PIN_RADIUS)
        return abs(ax - bx) + abs(ay - by) + ra + rb

    def bounding_box(self, cells: List[Cell]) -> Tuple[float, float, float, float]:
        xs = [self.pos[c.name][0] for c in cells]
        ys = [self.pos[c.name][1] for c in cells]
        return min(xs), min(ys), max(xs), max(ys)

    def spread(self, cells: List[Cell]) -> float:
        """Half-perimeter of the bounding box of ``cells`` (HPWL-style)."""
        if not cells:
            return 0.0
        x0, y0, x1, y1 = self.bounding_box(cells)
        return (x1 - x0) + (y1 - y0)

    def put(self, cell: Cell, x: float, y: float, radius: float = 0.0) -> None:
        self.pos[cell.name] = (x, y)
        self.radius[cell.name] = radius
        self._epoch[cell.name] = self._epoch.get(cell.name, 0) + 1

    def remove(self, name: str) -> None:
        """Forget a cell's placement (epoch keeps rising: a later re-``put``
        under the same name never aliases stale memo entries)."""
        self.pos.pop(name, None)
        self.radius.pop(name, None)
        self._epoch[name] = self._epoch.get(name, 0) + 1

    def epoch_of(self, name: str) -> int:
        """Monotonic write counter for one cell (0 = never placed)."""
        return self._epoch.get(name, 0)


class _RefineState:
    """Cached neighborhood summary of one cell for O(1) cost evaluation.

    ``|x - px| + |y - py|`` equals the max of the four signed corner sums,
    so the worst neighbor distance from any point (x, y) is::

        max(x + y + m1,  x - y + m2,  -x + y + m3,  -x - y + m4)

    with ``m1 = max(-px - py)``, ``m2 = max(-px + py)``,
    ``m3 = max(px - py)``, ``m4 = max(px + py)`` over the placed neighbors.
    ``sx``/``sy``/``count`` accumulate the centroid in neighbor-list order
    (the same float summation order the naive implementation uses).
    """

    __slots__ = ("m1", "m2", "m3", "m4", "sx", "sy", "count")

    def __init__(self) -> None:
        self.m1 = self.m2 = self.m3 = self.m4 = -math.inf
        self.sx = 0.0
        self.sy = 0.0
        self.count = 0


class _RefineContext:
    """Cross-pass refine state: summaries, invalidation, failure memo.

    ``dirty`` holds cells whose cached :class:`_RefineState` is stale
    because a neighbor moved.  ``fail_guard`` remembers each failed trial
    move as ``(box, own_tiles)`` — the Chebyshev search box its allocation
    examined plus the tiles of the cell's own chunks.  A failed trial fully
    reverts (state-neutral), so the same trial re-run later *must* fail
    again unless something it read changed: the cell's neighborhood (→
    ``dirty`` drops the guard) or the occupancy inside the recorded
    region (→ an accepted move whose released/taken tiles touch the region
    drops the guard).  Everything still guarded is skipped — this is what
    keeps a refine pass linear instead of re-attempting every stuck
    outlier against O(search area) occupancy scans each pass.
    """

    __slots__ = ("states", "dirty", "fail_guard")

    def __init__(self) -> None:
        self.states: Dict[str, _RefineState] = {}
        self.dirty: set = set()
        #: name -> ((cx, cy, radius), frozenset of own-chunk tiles)
        self.fail_guard: Dict[str, Tuple[Tuple[int, int, int], frozenset]] = {}

    def invalidate_tiles(self, tiles) -> None:
        """Drop every fail guard whose recorded region a tile touches."""
        if not self.fail_guard:
            return
        stale = []
        for name, (box, own) in self.fail_guard.items():
            cx, cy, radius = box
            for x, y in tiles:
                if (x, y) in own or (
                    abs(x - cx) <= radius and abs(y - cy) <= radius
                ):
                    stale.append(name)
                    break
        for name in stale:
            del self.fail_guard[name]


class Placer:
    """Greedy BFS placer over a :class:`Fabric`."""

    #: Cells demanding more than this many tiles are deferred (see place()).
    BIG_CELL_TILES = 64

    #: Deduped adjacency per netlist, valid while the netlist's structural
    #: mutation counter (:attr:`Netlist.mutations`) is unchanged.
    _ADJACENCY_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __init__(self, fabric: Fabric, seed: int = 2020) -> None:
        self.fabric = fabric
        self.seed = seed

    # ------------------------------------------------------------------
    def place(
        self,
        netlist: Netlist,
        anchor: Optional[str] = None,
        refine_passes: int = 3,
    ) -> Placement:
        """Place every cell of ``netlist``; returns a :class:`Placement`.

        ``anchor`` names the cell to pin near the die edge (defaults to the
        first PORT cell, then the first CTRL cell, then the first cell).

        Three phases:

        1. **memory floorplan** — BRAM cells are pre-placed in declaration
           order, filling memory columns outward from the center, so bank
           index k and bank k+1 are physical neighbors (banked memories are
           laid out this way on purpose by real flows);
        2. **greedy DFS** — remaining cells placed at the centroid of their
           already-placed neighbors, depth-first, huge macros last;
        3. **refinement** — ``refine_passes`` sweeps re-seat outlier
           cells toward their neighborhood centroid.  Only cells whose
           worst neighbor distance exceeds a scale-relative cutoff are
           tried (see :data:`REFINE_OUTLIER_REL`), and only strict
           improvements commit — the DFS placement is already locally
           tight, and unconditional re-seating causes displacement
           cascades.
        """
        rng = random.Random(self.seed)
        occupancy = Occupancy(self.fabric)
        placement = Placement()
        if not netlist.cells:
            return placement
        self._chunks: Dict[str, List[Tuple[int, int, int]]] = {}

        neighbors = self._adjacency(netlist)
        cx, cy = self.fabric.center

        # Phase 1: memory floorplan — fill BRAM columns nearest the center
        # first, column-major, so bank k and bank k+1 are vertical
        # neighbors and index-contiguous bank groups are physically local.
        brams = [c for c in netlist.cells.values() if c.kind is CellKind.BRAM]
        with obs.span("memory-floorplan", brams=len(brams)):
            bram_cols = [
                x
                for x in range(self.fabric.cols)
                if self.fabric.col_type(x) == BRAM_COL
            ]
            # Serpentine walk (left-to-right columns, alternating row
            # direction): consecutive bank indices are always physically
            # adjacent, with no discontinuity anywhere.  Logic that talks
            # to the banks is pulled toward them by the DFS phase, so an
            # off-center start costs nothing.
            slots = (
                (x, y if ci % 2 == 0 else self.fabric.rows - 1 - y)
                for ci, x in enumerate(bram_cols)
                for y in range(self.fabric.rows)
            )
            for cell in brams:
                demand = _demand_of(cell)
                chunks: List[Tuple[int, int, int]] = []
                while demand > 0:
                    try:
                        x, y = next(slots)
                    except StopIteration:
                        raise PlacementError(
                            f"device {self.fabric.device.name!r} out of bram "
                            f"capacity placing {cell.name!r}"
                        ) from None
                    taken = occupancy.take(x, y, demand)
                    if taken:
                        chunks.append((x, y, taken))
                        demand -= taken
                self._chunks[cell.name] = chunks
                total = sum(u for _x, _y, u in chunks)
                px = sum(x * u for x, _y, u in chunks) / total
                py = sum(y * u for _x, y, u in chunks) / total
                placement.put(cell, px, py, 0.0)
            obs.add("placement.cells_placed", len(brams))

        # Phase 2: greedy DFS.  I/O pads go after the core logic (they pin
        # to the die edge and must not drag the datapath there), macros go
        # last (they fill space around the packed fine-grained logic).
        with obs.span("greedy-place") as sp:
            order = self._bfs_order(netlist, neighbors, anchor)
            order = [c for c in order if c.kind is not CellKind.BRAM]
            small = [
                c
                for c in order
                if _demand_of(c) <= self.BIG_CELL_TILES * 64
                and c.kind is not CellKind.PORT
            ]
            ports = [c for c in order if c.kind is CellKind.PORT]
            big = [c for c in order if _demand_of(c) > self.BIG_CELL_TILES * 64]
            for cell in small + ports + big:
                desired = self._desired_position(
                    cell, neighbors, placement, rng, (cx, cy)
                )
                self._allocate_and_put(cell, desired, occupancy, placement)
            sp.set("cells", len(order))
            obs.add("placement.cells_placed", len(order))

        # Phase 3: refinement.  The outlier cutoff scales with the linear
        # dimension of the packed region (integer demand sum: identical
        # across engines, no float-order sensitivity).
        threshold = max(
            REFINE_OUTLIER_MIN,
            REFINE_OUTLIER_REL * math.sqrt(sum(_demand_of(c) for c in small)),
        )
        with obs.span("refine", passes=max(0, refine_passes)) as sp:
            moved = 0
            ctx = _RefineContext()
            for _ in range(max(0, refine_passes)):
                moved += self._refine(
                    small, neighbors, occupancy, placement, ctx, threshold
                )
            sp.set("moves", moved)
            obs.add("placement.refine_moves", moved)
        return placement

    # -- refinement ------------------------------------------------------
    def _refine(
        self,
        cells: List[Cell],
        neighbors: Dict[str, List[str]],
        occupancy: Occupancy,
        placement: Placement,
        ctx: Optional[_RefineContext] = None,
        threshold: float = REFINE_OUTLIER_MIN,
    ) -> int:
        """Re-seat outlier cells, committing only strict improvements.

        ``threshold`` is the outlier cutoff (see :data:`REFINE_OUTLIER_REL`
        — scale-relative, so the attempted-trial count stays linear in
        design size).  A move is accepted only when it reduces the cell's
        worst distance to its neighbors by a clear margin — this keeps each
        pass monotone per cell and avoids the displacement cascades a naive
        move-to-centroid sweep causes.

        Caches each cell's neighborhood summary in ``ctx`` and skips
        trials that provably repeat an earlier failure (see
        :class:`_RefineContext`); the accepted moves are exactly those a
        full recomputation of every trial would accept.
        """
        if ctx is None:
            ctx = _RefineContext()
        moved = 0
        states = ctx.states
        for cell in cells:
            if cell.kind is CellKind.PORT:
                continue
            name = cell.name
            st = states.get(name)
            if st is None or name in ctx.dirty:
                st = self._neighbor_state(name, neighbors, placement)
                states[name] = st
                ctx.dirty.discard(name)
                ctx.fail_guard.pop(name, None)
            if st.count == 0:
                continue
            if name in ctx.fail_guard:
                # Provably-identical repeat of a failed trial: neighbors
                # unmoved and the occupancy the failed search examined is
                # untouched, so re-running it must fail again.
                continue
            before = {(x, y) for x, y, _u in self._chunks.get(name, ())}
            accepted = self._refine_trial(cell, st, occupancy, placement, threshold)
            if accepted is None:
                continue
            if accepted:
                moved += 1
                for nbr in neighbors[name]:
                    ctx.dirty.add(nbr)
                    ctx.fail_guard.pop(nbr, None)
                ctx.fail_guard.pop(name, None)
                # The move changed occupancy at the released old tiles and
                # the taken new ones; failed searches that examined any of
                # them could now resolve differently.
                touched = before | {
                    (x, y) for x, y, _u in self._chunks[name]
                }
                ctx.invalidate_tiles(touched)
            else:
                box = occupancy.last_search
                if box is not None:
                    ctx.fail_guard[name] = (box, frozenset(before))
        return moved

    @staticmethod
    def _neighbor_state(
        name: str,
        neighbors: Dict[str, List[str]],
        placement: Placement,
    ) -> _RefineState:
        """Full O(degree) scan building one cell's :class:`_RefineState`."""
        st = _RefineState()
        pos = placement.pos
        m1 = m2 = m3 = m4 = -math.inf
        sx = sy = 0.0
        count = 0
        for n in neighbors[name]:
            p = pos.get(n)
            if p is None:
                continue
            px, py = p
            a = -px - py
            if a > m1:
                m1 = a
            b = -px + py
            if b > m2:
                m2 = b
            c = px - py
            if c > m3:
                m3 = c
            d = px + py
            if d > m4:
                m4 = d
            sx += px
            sy += py
            count += 1
        st.m1, st.m2, st.m3, st.m4 = m1, m2, m3, m4
        st.sx, st.sy, st.count = sx, sy, count
        return st

    @staticmethod
    def _corner_cost(x: float, y: float, st: _RefineState) -> float:
        """Worst Manhattan distance from (x, y) to the summarized set."""
        return max(x + y + st.m1, x - y + st.m2, -x + y + st.m3, -x - y + st.m4)

    def _refine_trial(
        self,
        cell: Cell,
        st: _RefineState,
        occupancy: Occupancy,
        placement: Placement,
        threshold: float = REFINE_OUTLIER_MIN,
    ) -> Optional[bool]:
        """One trial move toward the neighborhood centroid.

        Returns ``True`` (accepted), ``False`` (tried and reverted — a
        failed trial restores position, radius, chunks, and occupancy
        exactly, so it is state-neutral), or ``None`` (below the outlier
        threshold; no trial attempted).
        """
        x, y = placement.pos[cell.name]
        old_cost = self._corner_cost(x, y, st)
        if old_cost <= threshold:
            return None
        ix = st.sx / st.count
        iy = st.sy / st.count
        old_chunks = self._chunks.get(cell.name, [])
        old_radius = placement.radius[cell.name]
        occupancy.release(old_chunks)
        self._allocate_and_put(cell, (ix, iy), occupancy, placement)
        nx, ny = placement.pos[cell.name]
        if self._corner_cost(nx, ny, st) < old_cost - 2.0:
            return True
        # Revert: free the trial spot, retake the original.
        occupancy.release(self._chunks[cell.name])
        for ox, oy, units in old_chunks:
            occupancy.take(ox, oy, units)
        self._chunks[cell.name] = old_chunks
        placement.put(cell, x, y, old_radius)
        return False

    # ------------------------------------------------------------------
    @staticmethod
    def _adjacency(netlist: Netlist) -> Dict[str, List[str]]:
        """Deduped undirected neighbor lists, cached per netlist.

        A cell driving another through k parallel nets appears once, not k
        times — k-fold duplicates would otherwise inflate both the centroid
        weighting and every worst-distance scan of broadcast hubs.  First
        occurrence order is preserved (the DFS ordering depends on it).
        """
        cached = Placer._ADJACENCY_CACHE.get(netlist)
        if cached is not None and cached[0] == netlist.mutations:
            return cached[1]
        adj: Dict[str, List[str]] = {name: [] for name in netlist.cells}
        seen: Dict[str, set] = {name: set() for name in netlist.cells}
        for net in netlist.nets.values():
            driver = net.driver.name
            for sink, _pin in net.sinks:
                if sink.name != driver:
                    if sink.name not in seen[driver]:
                        seen[driver].add(sink.name)
                        adj[driver].append(sink.name)
                    if driver not in seen[sink.name]:
                        seen[sink.name].add(driver)
                        adj[sink.name].append(driver)
        Placer._ADJACENCY_CACHE[netlist] = (netlist.mutations, adj)
        return adj

    def _bfs_order(
        self,
        netlist: Netlist,
        neighbors: Dict[str, List[str]],
        anchor: Optional[str],
    ) -> List[Cell]:
        """Depth-first traversal order from the anchor.

        Depth-first (not breadth-first) matters for quality: it follows one
        dependence chain — one unrolled copy, one reduction subtree — to
        completion before starting the next, so logically-cohesive cones
        get physically contiguous placements.  Breadth-first would lay the
        design out level-major and stretch every intra-copy net across the
        full unroll width.
        """
        if anchor is None:
            ports = netlist.cells_of_kind(CellKind.PORT)
            ctrls = netlist.cells_of_kind(CellKind.CTRL)
            anchor = (ports or ctrls or list(netlist.cells.values()))[0].name
        seen = {anchor}
        stack = [anchor]
        order: List[Cell] = []
        remaining = list(netlist.cells)
        while stack or len(order) < len(netlist.cells):
            if not stack:
                # Disconnected component: restart from the first unseen
                # cell in declaration order.
                nxt = next(name for name in remaining if name not in seen)
                seen.add(nxt)
                stack.append(nxt)
            name = stack.pop()
            order.append(netlist.cells[name])
            # Reversed so the first-declared neighbor is visited first.
            for nbr in reversed(neighbors[name]):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return order

    def _desired_position(
        self,
        cell: Cell,
        neighbors: Dict[str, List[str]],
        placement: Placement,
        rng: random.Random,
        fallback: Tuple[int, int],
    ) -> Tuple[float, float]:
        placed = [n for n in neighbors[cell.name] if n in placement.pos]
        if placed:
            x = sum(placement.pos[n][0] for n in placed) / len(placed)
            y = sum(placement.pos[n][1] for n in placed) / len(placed)
        else:
            x, y = fallback
        x += rng.uniform(-JITTER_TILES, JITTER_TILES)
        y += rng.uniform(-JITTER_TILES, JITTER_TILES)
        return x, y

    def _allocate_and_put(
        self,
        cell: Cell,
        desired: Tuple[float, float],
        occupancy: Occupancy,
        placement: Placement,
    ) -> None:
        """Seat ``cell`` at the nearest free capacity to ``desired`` and
        record its chunks, position and radius."""
        dx, dy = desired
        if cell.kind is CellKind.PORT:
            # Ports pin to the die's left edge at the requested row.
            dx = 0.0
        chunks = occupancy.allocate(
            max(0, min(self.fabric.cols - 1, int(round(dx)))),
            max(0, min(self.fabric.rows - 1, int(round(dy)))),
            _col_kind_for(cell),
            _demand_of(cell),
        )
        self._chunks[cell.name] = chunks
        total = sum(units for _x, _y, units in chunks)
        x = sum(cx * units for cx, _y, units in chunks) / total
        y = sum(cy * units for _x, cy, units in chunks) / total
        if len(chunks) == 1:
            radius = 0.0
        else:
            xs = [cx for cx, _y, _u in chunks]
            ys = [cy for _x, cy, _u in chunks]
            radius = ((max(xs) - min(xs)) + (max(ys) - min(ys))) / 4.0
        placement.put(cell, x, y, radius)
