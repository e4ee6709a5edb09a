"""Tests for the fabric model and the placer."""

import pytest

from repro.errors import PhysicalError, PlacementError
from repro.physical.device import DEVICES, get_device
from repro.physical.fabric import BRAM_COL, CLB, DSP_COL, Fabric, Occupancy
from repro.physical.placement import Placer
from repro.rtl.netlist import CellKind, Netlist
from spiral_oracle import in_bounds, nearest_tiles, ring


class TestDevices:
    def test_catalog_complete(self):
        assert set(DEVICES) == {"aws-f1", "zc706", "alveo-u50", "virtex-7"}

    def test_unknown_device(self):
        with pytest.raises(PhysicalError):
            get_device("spartan-3")

    def test_utilization_percentages(self):
        dev = get_device("aws-f1")
        util = dev.utilization(dev.luts // 2, 0, 0, 0)
        assert util["LUT"] == pytest.approx(50.0)


class TestFabric:
    @pytest.fixture(scope="class")
    def fabric(self):
        return Fabric(get_device("aws-f1"))

    def test_capacity_covers_device(self, fabric):
        dev = fabric.device
        clb = sum(
            fabric.rows * 64 for x in range(fabric.cols) if fabric.col_type(x) == CLB
        )
        bram = sum(
            fabric.rows for x in range(fabric.cols) if fabric.col_type(x) == BRAM_COL
        )
        dsp = sum(
            fabric.rows * 2 for x in range(fabric.cols) if fabric.col_type(x) == DSP_COL
        )
        assert clb >= dev.luts
        assert bram >= dev.bram36
        assert dsp >= dev.dsps

    def test_special_columns_interleaved(self, fabric):
        bram_cols = [x for x in range(fabric.cols) if fabric.col_type(x) == BRAM_COL]
        assert len(bram_cols) >= 2
        gaps = [b - a for a, b in zip(bram_cols, bram_cols[1:])]
        assert max(gaps) <= 4 * (fabric.cols // len(bram_cols))

    def test_ring_radius_zero(self, fabric):
        assert list(ring(fabric, 5, 5, 0)) == [(5, 5)]

    def test_ring_counts(self, fabric):
        ring1 = list(ring(fabric, 50, 50, 1))
        assert len(ring1) == 8
        assert len(set(ring1)) == 8

    def test_ring_clipped_at_border(self, fabric):
        tiles = list(ring(fabric, 0, 0, 1))
        assert all(in_bounds(fabric, x, y) for x, y in tiles)
        assert len(tiles) == 3

    def test_nearest_tiles_ordered_by_distance(self, fabric):
        cx, cy = fabric.center
        tiles = []
        gen = nearest_tiles(fabric, cx, cy, CLB)
        for _ in range(50):
            tiles.append(next(gen))
        dists = [max(abs(x - cx), abs(y - cy)) for x, y in tiles]
        assert dists == sorted(dists)


class TestOccupancy:
    def test_take_and_free(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        x = next(i for i in range(fabric.cols) if fabric.col_type(i) == CLB)
        assert occ.take(x, 0, 10) == 10
        assert occ.free_at(x, 0) == 64 - 10

    def test_take_clamps(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        x = next(i for i in range(fabric.cols) if fabric.col_type(i) == CLB)
        assert occ.take(x, 0, 1000) == 64

    def test_release(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        x = next(i for i in range(fabric.cols) if fabric.col_type(i) == CLB)
        occ.take(x, 0, 30)
        occ.release([(x, 0, 30)])
        assert occ.free_at(x, 0) == 64

    def test_allocate_spills_to_neighbors(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        chunks = occ.allocate(*fabric.center, CLB, 1000)
        assert sum(u for _x, _y, u in chunks) == 1000
        assert len(chunks) >= 1000 // 64

    def test_allocate_out_of_capacity(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        with pytest.raises(PlacementError):
            occ.allocate(*fabric.center, DSP_COL, 10_000)


def chain_netlist(n=20):
    nl = Netlist("chain")
    prev = nl.new_cell("c0", CellKind.FF, ffs=8, width=8, delay_ns=0.1)
    for i in range(1, n):
        cur = nl.new_cell(f"c{i}", CellKind.LOGIC, luts=8, delay_ns=0.2)
        nl.connect(f"n{i}", prev, [(cur, "i")])
        prev = cur
    return nl


class TestPlacer:
    def test_all_cells_placed(self):
        nl = chain_netlist()
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        assert set(placement.pos) == set(nl.cells)

    def test_deterministic(self):
        fabric = Fabric(get_device("aws-f1"))
        p1 = Placer(fabric, seed=7).place(chain_netlist())
        p2 = Placer(fabric, seed=7).place(chain_netlist())
        assert p1.pos == p2.pos

    def test_seed_matters(self):
        fabric = Fabric(get_device("aws-f1"))
        p1 = Placer(fabric, seed=1).place(chain_netlist())
        p2 = Placer(fabric, seed=2).place(chain_netlist())
        assert p1.pos != p2.pos

    def test_chain_locality(self):
        """Connected cells land near each other."""
        nl = chain_netlist(30)
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        for i in range(1, 30):
            a = placement.pos[f"c{i - 1}"]
            b = placement.pos[f"c{i}"]
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) < 25

    def test_bram_floorplan_contiguous(self):
        nl = Netlist("banks")
        src = nl.new_cell("src", CellKind.FF, ffs=32, width=32, delay_ns=0.1)
        brams = [
            nl.new_cell(f"bank{i}", CellKind.BRAM, brams=1, delay_ns=0.8)
            for i in range(300)
        ]
        nl.connect("w", src, [(b, "din") for b in brams])
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        for i in range(1, 300):
            a = placement.pos[f"bank{i - 1}"]
            b = placement.pos[f"bank{i}"]
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 30

    def test_port_pinned_to_edge(self):
        nl = chain_netlist()
        pad = nl.new_cell("pad", CellKind.PORT, delay_ns=0.1)
        nl.connect("io", pad, [(nl.cells["c0"], "ext")])
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        assert placement.pos["pad"][0] <= 2.0

    def test_big_macro_does_not_displace_small_logic(self):
        nl = chain_netlist(10)
        nl.new_cell("macro", CellKind.CTRL, luts=300_000, ffs=300_000, delay_ns=0.25)
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        # the small chain stays compact despite the 7000-tile macro
        xs = [placement.pos[f"c{i}"][0] for i in range(10)]
        ys = [placement.pos[f"c{i}"][1] for i in range(10)]
        assert (max(xs) - min(xs)) + (max(ys) - min(ys)) < 40

    def test_adjacency_cache_sees_rewiring(self):
        """Rewiring that keeps the cell and net counts must not serve a
        stale cached adjacency to the next placement."""
        nl = Netlist("rewire")
        a = nl.new_cell("a", CellKind.FF, ffs=1, delay_ns=0.1)
        b = nl.new_cell("b", CellKind.LOGIC, luts=1, delay_ns=0.2)
        c = nl.new_cell("c", CellKind.LOGIC, luts=1, delay_ns=0.2)
        nl.connect("n1", a, [(b, "i")])
        Placer(Fabric(get_device("zc706"))).place(nl)
        assert Placer._adjacency(nl)["c"] == []
        nl.nets["n1"].add_sink(c, "i")
        assert Placer._adjacency(nl)["c"] == ["a"]
        nl.nets["n1"].sinks = [(c, "i")]
        assert Placer._adjacency(nl)["b"] == []
        nl.nets["n1"].driver = b
        assert Placer._adjacency(nl)["c"] == ["b"]

    def test_control_sink_distance_pays_full_radius(self):
        nl = Netlist("n")
        a = nl.new_cell("a", CellKind.FF, ffs=1, delay_ns=0.1)
        macro = nl.new_cell("m", CellKind.CTRL, luts=100_000, ffs=100_000, delay_ns=0.25)
        nl.connect("e", a, [(macro, "ce")])
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        assert placement.distance(a, macro, control_sink=True) > placement.distance(
            a, macro
        )
