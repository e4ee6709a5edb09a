"""Round-trip fidelity of the columnar netlist pickle on real netlists.

Stage artifacts and engine results carry whole netlists, and every warm or
partially warm run times an unpickled one.  For every registered design
(Opt config, where broadcast-aware scheduling adds movable registers and
retiming moves them), the ``rtl-gen`` netlist and the final post-retiming
netlist must come back from ``pickle`` with equal cells and nets, equal
connectivity-index order (the STA argmax tie-breaks and replication's
``_seq`` heap depend on it) and exact object identity between nets and
``cells``.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Dict, List

import pytest

from repro.designs import build_design, design_names
from repro.flow import DEFAULT_CLOCK_MHZ, Flow
from repro.obs.tracer import NULL_SPAN
from repro.opt import FULL
from repro.pipeline import build_stages
from repro.rtl.netlist import Cell, CellKind, Net, Netlist

DESIGNS = design_names(include_extra=True)
CHECKPOINTS = ("rtl-gen", "retiming")


def _describe(netlist: Netlist) -> Dict[str, Any]:
    """Everything the columnar format must preserve, as plain values
    (field types included: an int delay must not come back a float)."""
    return {
        "name": netlist.name,
        "cells": [
            (name, {k: (type(v), v) for k, v in vars(cell).items()})
            for name, cell in netlist.cells.items()
        ],
        "nets": [
            (
                net.name, net.kind, net.width, net._seq, net.driver.name,
                [(cell.name, pin) for cell, pin in net.sinks],
            )
            for net in netlist.nets.values()
        ],
        "net_counter": netlist._net_counter,
        "input_pins": {
            name: [(net.name, pin) for net, pin in netlist.input_pins_of(cell)]
            for name, cell in netlist.cells.items()
        },
        "driver_nets": {
            name: [net.name for net in netlist.driver_nets_of(cell)]
            for name, cell in netlist.cells.items()
        },
    }


class _StrayObjectPickler(pickle.Pickler):
    """Records every ``Cell``/``Net`` pickled as an object of its own.  A
    netlist writes neither (its state is plain columns), so any hit is a
    reference held outside the netlist."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=4)
        self.strays: List[object] = []

    def reducer_override(self, obj):
        if isinstance(obj, (Cell, Net)):
            self.strays.append(obj)
        return NotImplemented


def _strays(obj: object) -> List[object]:
    pickler = _StrayObjectPickler(io.BytesIO())
    pickler.dump(obj)
    return pickler.strays


@pytest.fixture(scope="module")
def snapshots(synthetic_table) -> Dict[str, Dict[str, Any]]:
    """Per design and checkpoint stage: the ``GenResult`` pickled right
    after that stage, the description of the live netlist at that moment,
    and the stray ``Cell``/``Net`` references found while pickling it.
    Later stages mutate the netlist in place, so all three are taken
    before the flow moves on."""
    flow = Flow(calibration=synthetic_table, stage_cache=False)
    taken: Dict[str, Dict[str, Any]] = {}
    for design_name in DESIGNS:
        design = build_design(design_name)
        ctx: Dict[str, Any] = {
            "design": design,
            "clock_ns": 1000.0 / design.meta.get("clock_mhz", DEFAULT_CLOCK_MHZ),
        }
        for stage in build_stages():
            ctx.update(stage.run(flow, FULL, ctx, NULL_SPAN) or {})
            if stage.name in CHECKPOINTS:
                gen = ctx["gen"]
                taken[f"{design_name}@{stage.name}"] = {
                    "blob": pickle.dumps(gen, protocol=4),
                    "described": _describe(gen.netlist),
                    "strays": _strays(gen),
                }
    return taken


POINTS = [f"{d}@{s}" for d in DESIGNS for s in CHECKPOINTS]


@pytest.mark.parametrize("point", POINTS)
def test_roundtrip_preserves_cells_nets_and_index_order(snapshots, point):
    snapshot = snapshots[point]
    clone = pickle.loads(snapshot["blob"]).netlist
    assert _describe(clone) == snapshot["described"]
    assert clone.mutations == 0
    clone.validate()


@pytest.mark.parametrize("point", POINTS)
def test_roundtrip_keeps_object_identity(snapshots, point):
    clone = pickle.loads(snapshots[point]["blob"]).netlist
    for net in clone.nets.values():
        assert net.driver is clone.cells[net.driver.name]
        assert net._owner is clone
        for cell, _pin in net.sinks:
            assert cell is clone.cells[cell.name]
    for cell in clone.cells.values():
        for net, _pin in clone.input_pins_of(cell):
            assert net is clone.nets[net.name]
        for net in clone.driver_nets_of(cell):
            assert net is clone.nets[net.name]


@pytest.mark.parametrize("point", POINTS)
def test_gen_result_holds_no_cell_outside_its_netlist(snapshots, point):
    assert snapshots[point]["strays"] == []


def test_a_decoded_netlist_stays_mutable():
    """Indexes rebuilt by unpickling must keep tracking later edits."""
    nl = Netlist("edit")
    a = nl.new_cell("a", CellKind.FF)
    b = nl.new_cell("b", CellKind.FF)
    c = nl.new_cell("c", CellKind.FF)
    nl.connect("n_ab", a, [(b, "d")])
    nl.connect("n_bc", b, [(c, "d")])
    clone = pickle.loads(pickle.dumps(nl, protocol=4))
    a2, c2 = clone.cells["a"], clone.cells["c"]
    clone.nets["n_ab"].add_sink(c2, "e")  # a late sink on the older net
    clone.connect("n_ca", c2, [(a2, "d")])
    assert [(n.name, p) for n, p in clone.input_pins_of(c2)] == [
        ("n_ab", "e"),
        ("n_bc", "d"),
    ]
    assert clone.nets["n_ca"]._seq == nl._net_counter
    assert clone.mutations > 0
    clone.validate()
