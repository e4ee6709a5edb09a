"""The indexed allocator agrees with the spiral oracle, step for step.

``Occupancy`` finds free capacity through per-row and per-column bitmasks
of non-full tiles; :class:`spiral_oracle.SpiralOccupancy` walks every tile
of every ring.  Random ``allocate``/``take``/``release`` sequences on every
device — including requests larger than the device and releases of full
tiles — must produce the same chunks, the same ``last_search`` box, the
same error text and the same final ``_used`` map from both.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import PlacementError
from repro.physical.device import DEVICES, get_device
from repro.physical.fabric import BRAM_COL, CLB, DSP_COL, Fabric, Occupancy
from spiral_oracle import SpiralOccupancy

FABRICS = {name: Fabric(get_device(name)) for name in sorted(DEVICES)}
KINDS = (CLB, BRAM_COL, DSP_COL)


def _outcome(occupancy, method, *args):
    try:
        return ("ok", getattr(occupancy, method)(*args))
    except PlacementError as exc:
        return ("error", str(exc))


def run_both(fabric, ops):
    """Replay ``ops`` on both allocators, asserting agreement at each step.

    ``("release_allocated", k)`` releases the k-th (modulo count) chunk
    list an earlier allocate returned, so releases hit real allocations.
    """
    index, oracle = Occupancy(fabric), SpiralOccupancy(fabric)
    allocated = []
    for op in ops:
        method, args = op[0], op[1:]
        if method == "release_allocated":
            if not allocated:
                continue
            method, args = "release", (allocated[args[0] % len(allocated)],)
        got = _outcome(index, method, *args)
        want = _outcome(oracle, method, *args)
        assert got == want, op
        if method == "allocate":
            assert index.last_search == oracle.last_search, op
            if got[0] == "ok" and got[1]:
                allocated.append(got[1])
    assert index._used == oracle._used
    return index


@st.composite
def op_sequences(draw):
    name = draw(st.sampled_from(sorted(FABRICS)))
    fabric = FABRICS[name]
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        what = draw(st.sampled_from(
            ("allocate", "allocate", "fill", "take", "release", "release_tile")
        ))
        if what in ("allocate", "fill"):
            cx = draw(st.integers(-2, fabric.cols + 1))
            cy = draw(st.integers(-2, fabric.rows + 1))
            kind = draw(st.sampled_from(KINDS))
            if what == "allocate":
                amount = draw(st.integers(-2, 300))
            else:
                # Enough to fill whole rings, sometimes more than the device.
                amount = draw(st.sampled_from((2_000, 20_000, 10 ** 7)))
            ops.append(("allocate", cx, cy, kind, amount))
        elif what == "release":
            ops.append(("release_allocated", draw(st.integers(0, 50))))
        else:
            x = draw(st.integers(0, fabric.cols - 1))
            y = draw(st.integers(0, fabric.rows - 1))
            if what == "take":
                ops.append(("take", x, y, draw(st.integers(1, 80))))
            else:
                # One tile whole or in part; full tiles become non-full.
                units = draw(st.integers(1, fabric.tile_capacity(x)))
                ops.append(("release", [(x, y, units)]))
    return name, ops


@settings(max_examples=40, deadline=None)
@given(op_sequences())
def test_index_matches_spiral_oracle(case):
    name, ops = case
    run_both(FABRICS[name], ops)


def test_full_rings_and_exhaustion_on_every_device():
    """Deterministic stress: fill the center, allocate around and past it,
    release a full block, then exhaust each column kind."""
    for fabric in FABRICS.values():
        cx, cy = fabric.center
        ops = [("allocate", cx, cy, CLB, 64 * 400)]
        for kind in KINDS:
            ops += [
                ("allocate", cx, cy, kind, 37),
                ("allocate", 0, 0, kind, 129),
                ("allocate", fabric.cols - 1, fabric.rows - 1, kind, 5),
            ]
        ops += [("release_allocated", 0), ("allocate", cx + 3, cy - 2, CLB, 700)]
        ops += [("allocate", cx, cy, kind, 10 ** 7) for kind in KINDS]
        ops += [("allocate", cx, cy, kind, 1) for kind in KINDS]
        ops += [("allocate", cx, cy, kind, 0) for kind in KINDS]
        index = run_both(fabric, ops)
        assert all(not any(rows) for rows in index._free_rows.values())
