"""RTL netlist generation: schedule → cells + nets.

This reproduces the HLS *RTL generation* phase the paper describes in §2:
datapath cells bound per scheduled operation, pipeline registers at every
cycle boundary, memory ports fanning out to BRAM banks, and — crucially —
the control structures whose implementation choice the paper studies:

* **stall-based pipeline control** (baseline): one combinational enable,
  aggregated from every FIFO's empty/full flags, broadcast to every
  sequential element of the loop (§3.3, Fig. 8);
* **skid-buffer control** (§4.3): a free-running valid chain, per-stage
  local enables driven by valid *registers* (replicable by the backend),
  and bounded skid FIFOs whose empty flag gates only the first stage;
* **synchronization** (§3.2): per-loop status aggregation over everything
  fused into the loop, and done-reduce/start-broadcast for parallel module
  instances — or, when §4.2 pruning marked the loop, a start signal driven
  by the longest-latency module's done register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.control.minarea import CutPlan, end_buffer_plan, min_area_cuts
from repro.control.skid import SkidBufferSpec, fifo_area, skid_buffer_specs
from repro.control.styles import ControlStyle
from repro.control.widths import skid_width_profile
from repro.delay.tables import (
    BRAM_CLK_Q_NS,
    CLK_Q_NS,
    CTRL_CLK_Q_NS,
    FIFO_CLK_Q_NS,
    LOAD_ADDR_LOGIC_NS,
    LOAD_MUX_LOGIC_NS,
    STORE_PORT_LOGIC_NS,
    op_resources,
    physical_cell_delay,
)
from repro.errors import RTLError
from repro.ir.ops import Opcode, Operation
from repro.ir.program import Buffer, Design, Fifo, Kernel, Loop
from repro.ir.values import Value
from repro.rtl.netlist import Cell, CellKind, Netlist, NetKind
from repro.rtl.resources import ResourceReport
from repro.scheduling.schedule import Schedule

#: Comb delay of FIFO read/write port logic (dout mux, pointer compare).
FIFO_PORT_NS = 0.35
#: Base delay of a status/done aggregation gate plus per-level tree cost.
AGG_BASE_NS = 0.15
AGG_LEVEL_NS = 0.12


def _reduce_tree_delay(inputs: int) -> float:
    """Delay of an AND/OR reduce tree over ``inputs`` signals."""
    levels = max(1, math.ceil(math.log2(max(inputs, 2))))
    return AGG_BASE_NS + AGG_LEVEL_NS * levels


@dataclass
class GenOptions:
    """Generation knobs."""

    control: ControlStyle = ControlStyle.STALL
    #: Cap on the number of skid FIFOs for SKID_MINAREA (0 = unlimited).
    max_skid_buffers: int = 0


@dataclass
class LoopInfo:
    """Bookkeeping for one generated loop."""

    kernel: str
    name: str
    depth: int
    widths: List[int]
    pipeline: bool
    statuses: int = 0
    enable_fanout: int = 0
    skid_specs: List[SkidBufferSpec] = field(default_factory=list)
    seq_cells: List[Cell] = field(default_factory=list)
    stage_cells: Dict[int, List[Cell]] = field(default_factory=dict)
    first_stage_cells: List[Cell] = field(default_factory=list)
    call_cells: List[Cell] = field(default_factory=list)
    control_gate: Optional[Cell] = None


@dataclass
class GenResult:
    """Netlist plus generation metadata."""

    netlist: Netlist
    loops: List[LoopInfo]
    resources: ResourceReport
    anchor: str

    def loop(self, name: str) -> LoopInfo:
        for info in self.loops:
            if info.name == name:
                return info
        raise RTLError(f"no generated loop named {name!r}")


def generate_netlist(
    design: Design,
    schedules: Dict[Tuple[str, str], Schedule],
    options: Optional[GenOptions] = None,
) -> GenResult:
    """Generate the full-design netlist.

    ``schedules`` maps ``(kernel_name, loop_name)`` to the loop's schedule.
    The design must already be pragma-lowered (loops unrolled).
    """
    options = options or GenOptions()
    netlist = Netlist(design.name)
    anchor = netlist.new_cell("io", CellKind.PORT, delay_ns=CLK_Q_NS, width=1)

    # Shared structural cells -------------------------------------------------
    buffer_cells: Dict[str, List[Cell]] = {}
    for buffer in design.buffers.values():
        cells = []
        for i in range(buffer.bram36_units()):
            cells.append(
                netlist.new_cell(
                    f"{buffer.name}_bram{i}",
                    CellKind.BRAM,
                    delay_ns=BRAM_CLK_Q_NS,
                    brams=1,
                    width=min(buffer.elem_type.bits, 72),
                    tag=f"buffer:{buffer.name}",
                )
            )
        buffer_cells[buffer.name] = cells

    fifo_cells: Dict[str, Cell] = {}
    for fifo in design.fifos.values():
        luts, ffs, brams = fifo_area(fifo.depth, fifo.width)
        cell = netlist.new_cell(
            f"fifo_{fifo.name}",
            CellKind.FIFO,
            delay_ns=FIFO_CLK_Q_NS,
            luts=luts,
            ffs=ffs,
            brams=brams,
            width=fifo.width,
            tag=f"fifo:{fifo.name}",
        )
        fifo_cells[fifo.name] = cell
        if fifo.external:
            # Each external interface gets its own edge pin (HBM ports /
            # AXI-Stream endpoints sit along the die edge), so independent
            # streams anchor at separate locations instead of piling onto
            # one pad.
            pad = netlist.new_cell(
                f"pad_{fifo.name}", CellKind.PORT, delay_ns=CLK_Q_NS, width=1
            )
            netlist.connect(
                f"ext_{fifo.name}", pad, [(cell, "ext")], kind=NetKind.CLOCKLESS
            )

    loop_infos: List[LoopInfo] = []
    for kernel in design.kernels:
        prev_ctrl: Optional[Cell] = None
        for loop in kernel.loops:
            schedule = schedules.get((kernel.name, loop.name))
            if schedule is None:
                raise RTLError(f"missing schedule for {kernel.name}/{loop.name}")
            emitter = _LoopEmitter(
                netlist, design, kernel, loop, schedule, options,
                buffer_cells, fifo_cells,
            )
            with obs.span(
                "emit-loop", kernel=kernel.name, loop=loop.name
            ) as loop_span:
                cells_before = len(netlist.cells)
                info = emitter.emit()
                loop_span.set("depth", info.depth)
                loop_span.set("cells", len(netlist.cells) - cells_before)
                loop_span.set("enable_fanout", info.enable_fanout)
            obs.add("rtl.loops_emitted", 1)
            loop_infos.append(info)
            # Each loop gets its own small controller (HLS emits one FSM
            # per process/loop nest) talking only to that loop's flow gate.
            if info.control_gate is not None:
                ctrl = netlist.new_cell(
                    f"fsm_{kernel.name}_{loop.name}",
                    CellKind.CTRL,
                    delay_ns=CTRL_CLK_Q_NS,
                    ffs=8,
                    luts=20,
                )
                netlist.connect(
                    f"fsm_go_{kernel.name}_{loop.name}",
                    ctrl,
                    [(info.control_gate, "go")],
                    kind=NetKind.SYNC,
                )
                # Sequential loops of one kernel hand off through their
                # controllers (loop1 done -> loop2 start): tiny sync nets.
                if prev_ctrl is not None:
                    netlist.connect(
                        f"fsm_seq_{kernel.name}_{loop.name}",
                        prev_ctrl,
                        [(ctrl, "next")],
                        kind=NetKind.SYNC,
                    )
                prev_ctrl = ctrl
    netlist.validate()
    return GenResult(
        netlist=netlist,
        loops=loop_infos,
        resources=ResourceReport.of_netlist(netlist),
        anchor=anchor.name,
    )


class _LoopEmitter:
    """Emits cells and nets for one scheduled loop."""

    def __init__(
        self,
        netlist: Netlist,
        design: Design,
        kernel: Kernel,
        loop: Loop,
        schedule: Schedule,
        options: GenOptions,
        buffer_cells: Dict[str, List[Cell]],
        fifo_cells: Dict[str, Cell],
    ) -> None:
        self.netlist = netlist
        self.design = design
        self.kernel = kernel
        self.loop = loop
        self.schedule = schedule
        self.options = options
        self.buffer_cells = buffer_cells
        self.fifo_cells = fifo_cells
        self.prefix = f"{kernel.name}.{loop.name}"
        #: value name -> cell providing it in its definition cycle
        self.def_cells: Dict[str, Cell] = {}
        #: op name -> cell receiving the op's operand pins
        self.sink_cells: Dict[str, Cell] = {}
        self.info = LoopInfo(
            kernel=kernel.name,
            name=loop.name,
            depth=schedule.depth,
            widths=schedule.width_profile(),
            pipeline=loop.pipeline,
        )

    # -- small helpers ---------------------------------------------------
    def _cell(self, stem: str, kind: CellKind, stage: int, **kwargs) -> Cell:
        cell = self.netlist.new_cell(f"{self.prefix}.{stem}", kind, **kwargs)
        self.info.stage_cells.setdefault(stage, []).append(cell)
        if cell.is_sequential:
            self.info.seq_cells.append(cell)
        if stage <= 0:
            self.info.first_stage_cells.append(cell)
        return cell

    def _bank_cells(self, op: Operation) -> List[Cell]:
        buffer: Buffer = op.attrs["buffer"]
        cells = self.buffer_cells[buffer.name]
        group = op.attrs.get("bank_group")
        if not isinstance(group, tuple):
            # "per_copy" markers survive lowering when the loop's unroll
            # factor is 1 (nothing to partition); the access sees the whole
            # buffer, same as an unmarked op.
            return cells
        index, total = group
        size = math.ceil(len(cells) / total)
        chunk = cells[index * size : (index + 1) * size]
        return chunk or cells[-size:]

    def _reg_chain(
        self, stem: str, source: Cell, count: int, width: int, stage: int,
        kind: NetKind = NetKind.DATA,
    ) -> Cell:
        """``count`` movable registers in series after ``source``."""
        cursor = source
        for i in range(count):
            reg = self._cell(
                f"{stem}_p{i}",
                CellKind.FF,
                stage + i + 1,
                delay_ns=CLK_Q_NS,
                ffs=max(1, width),
                width=width,
                movable=True,
            )
            self.netlist.connect(
                f"{self.prefix}.{stem}_p{i}", cursor, [(reg, "d")], kind=kind, width=width
            )
            cursor = reg
        return cursor

    # -- main ------------------------------------------------------------
    def emit(self) -> LoopInfo:
        dfg = self.loop.body
        # Input capture registers.
        for value in dfg.inputs:
            cell = self._cell(
                f"in_{value.name}",
                CellKind.FF,
                0,
                delay_ns=CLK_Q_NS,
                ffs=value.type.bits,
                width=value.type.bits,
                tag="input",
            )
            self.def_cells[value.name] = cell
        # Operation cells.
        for op in dfg.topo_order():
            self._emit_op(op)
        # Dataflow nets with pipeline boundary registers.
        for value in dfg.values.values():
            self._emit_value_nets(value)
        # Flow control.  Pure sub-module wrapper loops (one CALL, no
        # streaming) keep their control inside the module — no loop-level
        # stall logic is generated for them.
        calls = [op for op in dfg.ops if op.opcode is Opcode.CALL]
        is_wrapper = (
            not self.loop.pipeline
            and len(calls) <= 1
            and not any(self.loop.fifo_endpoints())
        )
        if not is_wrapper:
            if self.options.control.uses_skid and self.loop.pipeline:
                self._emit_skid_control()
            else:
                self._emit_stall_control()
        self._emit_call_sync()
        return self.info

    # -- per-op emission -----------------------------------------------------
    def _emit_op(self, op: Operation) -> None:
        entry = self.schedule.entry(op)
        stage = entry.cycle
        extra = int(op.attrs.get("extra_latency", 0))
        opcode = op.opcode

        if opcode is Opcode.CONST:
            return  # constants are absorbed into consuming LUTs
        if opcode is Opcode.REG:
            cell = self._cell(
                f"reg_{op.name}",
                CellKind.FF,
                stage,
                delay_ns=CLK_Q_NS,
                ffs=op.result.type.bits,
                width=op.result.type.bits,
                movable=True,
            )
            self.sink_cells[op.name] = cell
            self.def_cells[op.result.name] = cell
            return
        if opcode is Opcode.FIFO_READ:
            fifo: Fifo = op.attrs["fifo"]
            port = self._cell(
                f"rd_{op.name}", CellKind.LOGIC, stage,
                delay_ns=FIFO_PORT_NS, luts=6, width=fifo.width,
            )
            self.netlist.connect(
                f"{self.prefix}.{fifo.name}_dout",
                self.fifo_cells[fifo.name],
                [(port, "dout")],
                kind=NetKind.DATA,
                width=fifo.width,
            )
            self.sink_cells[op.name] = port
            self.def_cells[op.result.name] = port
            return
        if opcode is Opcode.FIFO_WRITE:
            fifo = op.attrs["fifo"]
            port = self._cell(
                f"wr_{op.name}", CellKind.LOGIC, stage,
                delay_ns=FIFO_PORT_NS, luts=6, width=fifo.width,
            )
            self.netlist.connect(
                f"{self.prefix}.{fifo.name}_din",
                port,
                [(self.fifo_cells[fifo.name], "din")],
                kind=NetKind.DATA,
                width=fifo.width,
            )
            self.sink_cells[op.name] = port
            return
        if opcode is Opcode.STORE:
            port = self._cell(
                f"st_{op.name}", CellKind.LOGIC, stage,
                delay_ns=STORE_PORT_LOGIC_NS, luts=24,
                width=op.operands[1].type.bits,
            )
            banks = self._bank_cells(op)
            self._dist_tree(
                f"st_{op.name}_wdata",
                port,
                [(bram, "din") for bram in banks],
                port.width,
                extra,
                stage,
                kind=NetKind.MEM,
            )
            self.sink_cells[op.name] = port
            return
        if opcode is Opcode.LOAD:
            banks = self._bank_cells(op)
            e_addr = math.ceil(extra / 2)
            e_ret = extra - e_addr
            aport = self._cell(
                f"ld_{op.name}_a", CellKind.LOGIC, stage,
                delay_ns=LOAD_ADDR_LOGIC_NS, luts=12, width=20,
            )
            self._dist_tree(
                f"ld_{op.name}_addr",
                aport,
                [(bram, "addr") for bram in banks],
                20,
                e_addr,
                stage,
                kind=NetKind.MEM,
            )
            width = op.result.type.bits
            last = self._mux_tree(
                f"ld_{op.name}", banks, width, stage + 1 + e_addr, e_ret + 1
            )
            self.sink_cells[op.name] = aport
            self.def_cells[op.result.name] = last
            return
        if opcode is Opcode.CALL:
            area = op.attrs.get("area", {})
            cell = self._cell(
                f"call_{op.name}", CellKind.CTRL, stage,
                delay_ns=CTRL_CLK_Q_NS,
                luts=int(area.get("luts", 200)),
                ffs=int(area.get("ffs", 200)),
                brams=int(area.get("brams", 0)),
                dsps=int(area.get("dsps", 0)),
                width=op.result.type.bits if op.result is not None else 0,
                tag=f"call:{op.attrs.get('callee', '?')}",
            )
            self.info.call_cells.append(cell)
            self.sink_cells[op.name] = cell
            if op.result is not None:
                # Sub-modules register their outputs (standard interface
                # discipline); the movable register also splits the
                # module-to-module hop for the physical optimizer.
                out_reg = self._cell(
                    f"call_{op.name}_q", CellKind.FF,
                    self.schedule.entry(op).finish_cycle,
                    delay_ns=CLK_Q_NS,
                    ffs=max(1, op.result.type.bits),
                    width=op.result.type.bits,
                    movable=True,
                )
                self.netlist.connect(
                    f"{self.prefix}.call_{op.name}_q", cell, [(out_reg, "d")],
                    kind=NetKind.DATA, width=op.result.type.bits,
                )
                self.def_cells[op.result.name] = out_reg
            return

        # Plain combinational operator — possibly internally pipelined over
        # ``extra + 1`` stages (how DSP multipliers and float cores ship):
        # stage cells of delay D/(extra+1) separated by movable registers.
        dtype = op.result.type if op.result is not None else op.operands[-1].type
        luts, ffs, dsps = op_resources(opcode, dtype)
        kind = CellKind.DSP if dsps else CellKind.LOGIC
        stages = extra + 1
        total_delay = physical_cell_delay(opcode, dtype)

        def _share(total: int, s: int) -> int:
            # Exact partition of `total` units across stages (no inflation).
            return total * (s + 1) // stages - total * s // stages

        cell = self._cell(
            f"op_{op.name}", kind, stage,
            delay_ns=total_delay / stages,
            luts=_share(luts, 0), ffs=_share(ffs, 0), dsps=_share(dsps, 0),
            width=dtype.bits,
            tag=op.opcode.value,
        )
        self.sink_cells[op.name] = cell
        cursor = cell
        for s in range(extra):
            reg = self._cell(
                f"op_{op.name}_s{s}r", CellKind.FF, stage + s,
                delay_ns=CLK_Q_NS, ffs=max(1, dtype.bits), width=dtype.bits,
                movable=True,
            )
            self.netlist.connect(
                f"{self.prefix}.op_{op.name}_s{s}", cursor, [(reg, "d")],
                kind=NetKind.DATA, width=dtype.bits,
            )
            stage_kind = kind if _share(dsps, s + 1) else (
                CellKind.LOGIC if kind is CellKind.DSP else kind
            )
            stage_cell = self._cell(
                f"op_{op.name}_s{s + 1}", stage_kind, stage + s + 1,
                delay_ns=total_delay / stages,
                luts=_share(luts, s + 1), ffs=_share(ffs, s + 1),
                dsps=_share(dsps, s + 1),
                width=dtype.bits, tag=op.opcode.value,
                movable=True,  # internal core stage, relocatable by retiming
            )
            self.netlist.connect(
                f"{self.prefix}.op_{op.name}_s{s}b", reg, [(stage_cell, "i")],
                kind=NetKind.DATA, width=dtype.bits,
            )
            cursor = stage_cell
        if op.result is not None:
            self.def_cells[op.result.name] = cursor

    def _dist_tree(
        self,
        stem: str,
        source: Cell,
        sinks: List[Tuple[Cell, str]],
        width: int,
        reg_layers: int,
        stage: int,
        kind: NetKind = NetKind.MEM,
    ) -> None:
        """Registered fanout tree from ``source`` to ``sinks``.

        ``reg_layers`` register levels split the route into
        ``reg_layers + 1`` hops — how the "additional pipelining" of §4.1
        physically distributes a value across a sea of BRAM banks.  With
        ``reg_layers == 0`` this degenerates to one flat net (the baseline
        structure the paper criticizes).
        """
        if reg_layers <= 0 or len(sinks) <= 4:
            self.netlist.connect(
                f"{self.prefix}.{stem}", source, sinks, kind=kind, width=width
            )
            return
        branch = max(2, math.ceil(len(sinks) ** (1.0 / (reg_layers + 1))))
        groups = max(2, min(branch, len(sinks)))
        size = math.ceil(len(sinks) / groups)
        level_sinks: List[Tuple[Cell, str]] = []
        for gi in range(0, len(sinks), size):
            chunk = sinks[gi : gi + size]
            reg = self._cell(
                f"{stem}_t{reg_layers}_{gi // size}",
                CellKind.FF,
                stage,
                delay_ns=CLK_Q_NS,
                ffs=max(1, width),
                width=width,
            )
            level_sinks.append((reg, "d"))
            self._dist_tree(
                f"{stem}_b{gi // size}",
                reg,
                chunk,
                width,
                reg_layers - 1,
                stage + 1,
                kind=kind,
            )
        self.netlist.connect(
            f"{self.prefix}.{stem}", source, level_sinks, kind=kind, width=width
        )

    def _mux_tree(
        self, stem: str, banks: List[Cell], width: int, stage: int, levels: int
    ) -> Cell:
        """Bank-read multiplexing as a (possibly registered) tree.

        With ``levels`` > 1 the tree has registers between mux levels —
        this is how "additional pipelining ... to variables interacting
        with the buffer" (§4.1) is materialized on the read-return side.
        Returns the cell producing the selected data.
        """
        branching = max(2, math.ceil(len(banks) ** (1.0 / levels)))
        current: List[Cell] = list(banks)
        level = 0
        while True:
            chunks = [
                current[i : i + branching] for i in range(0, len(current), branching)
            ]
            nxt: List[Cell] = []
            final = len(chunks) == 1
            for ci, chunk in enumerate(chunks):
                mux = self._cell(
                    f"{stem}_mux{level}_{ci}", CellKind.LOGIC, stage + level,
                    delay_ns=LOAD_MUX_LOGIC_NS, luts=6 * len(chunk), width=width,
                )
                for i, src in enumerate(chunk):
                    self.netlist.connect(
                        f"{self.prefix}.{stem}_q{level}_{ci}_{i}",
                        src,
                        [(mux, f"q{i}")],
                        kind=NetKind.MEM,
                        width=width,
                    )
                if final:
                    return mux
                reg = self._cell(
                    f"{stem}_mr{level}_{ci}", CellKind.FF, stage + level,
                    delay_ns=CLK_Q_NS, ffs=width, width=width, movable=True,
                )
                self.netlist.connect(
                    f"{self.prefix}.{stem}_mr{level}_{ci}",
                    mux,
                    [(reg, "d")],
                    kind=NetKind.MEM,
                    width=width,
                )
                nxt.append(reg)
            current = nxt
            level += 1
            if level > 12:  # pragma: no cover - defensive
                raise RTLError(f"mux tree for {stem} failed to converge")

    # -- dataflow nets --------------------------------------------------------
    def _emit_value_nets(self, value: Value) -> None:
        if value.is_const:
            return
        def_cell = self.def_cells.get(value.name)
        if def_cell is None:
            return  # sink-op names (store/fifo_write) have no result value
        avail = self.schedule.cycle_of_value(value)
        consumers: Dict[int, List[Tuple[Cell, str]]] = {}
        for op in value.uses:
            entry = self.schedule.entry(op)
            sink = self.sink_cells.get(op.name)
            if sink is None:
                continue
            slots = op.operands.count(value)
            for slot in range(slots):
                consumers.setdefault(entry.cycle, []).append((sink, f"i{slot}"))
        if consumers:
            last_needed = max(consumers)
        elif value.producer is not None:
            last_needed = self.schedule.depth - 1  # live-out
        else:
            last_needed = avail
        width = value.type.bits
        cursor = def_cell
        for cycle in range(avail, last_needed + 1):
            sinks = list(consumers.get(cycle, []))
            if cycle < last_needed:
                reg = self._cell(
                    f"pipe_{value.name}_c{cycle}",
                    CellKind.FF,
                    cycle,
                    delay_ns=CLK_Q_NS,
                    ffs=width,
                    width=width,
                    movable=True,
                    tag="pipe_reg",
                )
                obs.add("rtl.pipeline_registers", 1)
                sinks.append((reg, "d"))
            if sinks:
                self.netlist.connect(
                    f"{self.prefix}.{value.name}_c{cycle}",
                    cursor,
                    sinks,
                    kind=NetKind.DATA,
                    width=width,
                )
            if cycle < last_needed:
                cursor = reg

    # -- control styles -----------------------------------------------------
    def _status_sources(self) -> List[Cell]:
        reads, writes = self.loop.fifo_endpoints()
        return [self.fifo_cells[name] for name in reads + writes]

    def _emit_stall_control(self) -> None:
        """Baseline: comb aggregate of every status, broadcast to all CEs."""
        statuses = self._status_sources()
        self.info.statuses = len(statuses)
        agg = self._cell(
            "stall_agg", CellKind.LOGIC, 0,
            delay_ns=_reduce_tree_delay(len(statuses) + 1),
            luts=4 + len(statuses) // 3,
            width=1,
        )
        self.info.control_gate = agg
        for i, fifo_cell in enumerate(statuses):
            self.netlist.connect(
                f"{self.prefix}.status{i}",
                fifo_cell,
                [(agg, f"s{i}")],
                kind=NetKind.STATUS,
            )
        targets: List[Tuple[Cell, str]] = []
        for cell in self.info.seq_cells:
            if cell is agg:
                continue
            targets.append((cell, "ce"))
            if cell.kind is CellKind.CTRL and cell.ffs > 4_000:
                # A big sub-module exposes many clock-enable pins — the
                # stall broadcast must reach registers throughout its area.
                extra_pins = min(64, cell.ffs // 5_000)
                targets.extend((cell, f"ce{i}") for i in range(extra_pins))
        for name in set(self.loop.buffers_touched()):
            targets.extend((bram, "we") for bram in self.buffer_cells[name])
        for name in set(sum(self.loop.fifo_endpoints(), [])):
            targets.append((self.fifo_cells[name], "en"))
        if targets:
            self.info.enable_fanout = len(targets)
            obs.observe("rtl.enable_fanout", len(targets))
            self.netlist.connect(
                f"{self.prefix}.enable", agg, targets, kind=NetKind.ENABLE
            )

    def _emit_skid_control(self) -> None:
        """§4.3: valid chain + skid FIFO(s); only stage 0 sees back-pressure."""
        depth = max(1, self.schedule.depth)
        widths = skid_width_profile(self.schedule)
        if self.options.control is ControlStyle.SKID_MINAREA:
            plan = min_area_cuts(widths, max_buffers=self.options.max_skid_buffers)
        else:
            plan = end_buffer_plan(widths)
        specs = skid_buffer_specs(plan)
        self.info.skid_specs = specs

        # Valid-bit chain (one flag register per stage).
        valids: List[Cell] = []
        for c in range(depth):
            v = self._cell(
                f"valid{c}", CellKind.FF, c, delay_ns=CLK_Q_NS, ffs=1, width=1
            )
            valids.append(v)
        for c in range(depth - 1):
            self.netlist.connect(
                f"{self.prefix}.vchain{c}", valids[c], [(valids[c + 1], "d")],
                kind=NetKind.ENABLE,
            )
        # Local write gating: each stage's side effects are enabled by that
        # stage's valid *register* — replicable by the backend, unlike the
        # global comb stall signal.
        for c in range(depth):
            sinks: List[Tuple[Cell, str]] = []
            for cell in self.info.stage_cells.get(c, []):
                if cell.kind is CellKind.LOGIC and cell.name.find(".st_") >= 0:
                    sinks.append((cell, "ven"))
            for op in self.loop.body.ops:
                if op.opcode is Opcode.FIFO_WRITE and self.schedule.entry(op).cycle == c:
                    sinks.append((self.fifo_cells[op.attrs["fifo"].name], "en"))
            if sinks:
                self.netlist.connect(
                    f"{self.prefix}.ven{c}", valids[c], sinks, kind=NetKind.ENABLE
                )
            # Bank write-enables ride a registered tree matching the data
            # distribution depth, so WE arrives with the data — a valid
            # *register* drives it, which the backend can replicate,
            # unlike the monolithic comb stall of the baseline.
            for op in self.loop.body.ops:
                if op.opcode is Opcode.STORE and self.schedule.entry(op).cycle == c:
                    extra = int(op.attrs.get("extra_latency", 0))
                    self._dist_tree(
                        f"ven_{op.name}",
                        valids[c],
                        [(bram, "we") for bram in self._bank_cells(op)],
                        1,
                        extra,
                        c,
                        kind=NetKind.ENABLE,
                    )

        # Skid FIFOs tap the boundary values at their cut stage.
        skid_cells: List[Cell] = []
        for spec in specs:
            luts, ffs, brams = spec.luts, spec.ffs, spec.brams
            cell = self._cell(
                f"skid_s{spec.after_stage}", CellKind.FIFO,
                min(spec.after_stage, depth - 1),
                delay_ns=FIFO_CLK_Q_NS, luts=luts, ffs=ffs, brams=brams,
                width=spec.width, tag="skid",
            )
            skid_cells.append(cell)
            stage = min(spec.after_stage - 1, depth - 1)
            feeders = [
                c for c in self.info.stage_cells.get(stage, [])
                if c.kind is CellKind.FF and c.width > 1
            ][:4] or [valids[stage]]
            for i, feeder in enumerate(feeders):
                self.netlist.connect(
                    f"{self.prefix}.skid_in{spec.after_stage}_{i}",
                    feeder,
                    [(cell, "din")],
                    kind=NetKind.DATA,
                    width=spec.width,
                )

        # Back-pressure: input-fifo empty + skid non-empty gate stage 0 only.
        statuses = [self.fifo_cells[n] for n in self.loop.fifo_endpoints()[0]]
        statuses += skid_cells
        self.info.statuses = len(statuses)
        gate = self._cell(
            "read_gate", CellKind.LOGIC, 0,
            delay_ns=_reduce_tree_delay(len(statuses) + 1),
            luts=4, width=1,
        )
        self.info.control_gate = gate
        for i, cell in enumerate(statuses):
            self.netlist.connect(
                f"{self.prefix}.sstat{i}", cell, [(gate, f"s{i}")], kind=NetKind.STATUS
            )
        # The comb gate drives only the head valid register and the FIFO
        # read-enables (tiny fanout).  Stage-0 data capture is gated by the
        # valid *register* — a replicable driver, so even a wide input
        # boundary stays fast.
        targets: List[Tuple[Cell, str]] = [(valids[0], "ce")]
        for name in self.loop.fifo_endpoints()[0]:
            targets.append((self.fifo_cells[name], "ren"))
        self.netlist.connect(
            f"{self.prefix}.read_en", gate, targets, kind=NetKind.ENABLE
        )
        # Only FIFO read ports are gated: plain capture registers free-run
        # in an always-flowing pipeline (invalid slots are just bubbles),
        # which is precisely how the skid scheme sheds the CE broadcast.
        capture: List[Tuple[Cell, str]] = []
        for cell in self.info.stage_cells.get(0, []):
            if cell.name.find(".rd_") >= 0:
                capture.append((cell, "ce"))
        self.info.enable_fanout = len(targets) + len(capture)
        obs.observe("rtl.enable_fanout", self.info.enable_fanout)
        if capture:
            self.netlist.connect(
                f"{self.prefix}.capture_en", valids[0], capture, kind=NetKind.ENABLE
            )

    # -- parallel-module synchronization --------------------------------------
    def _emit_call_sync(self) -> None:
        """Synchronize *parallel* instances: calls issued in the same state.

        Chained calls (a pipeline of sub-modules) need no synchronization —
        data dependencies order them.
        """
        groups: Dict[int, List[Operation]] = {}
        for op in self.loop.body.ops:
            if op.opcode is Opcode.CALL:
                groups.setdefault(self.schedule.entry(op).cycle, []).append(op)
        for calls in groups.values():
            if len(calls) >= 2:
                self._emit_call_sync_group(calls)

    def _emit_call_sync_group(self, calls: List[Operation]) -> None:
        pruned = any(op.attrs.get("sync_pruned") for op in calls)
        done_ffs: Dict[str, Cell] = {}
        for op in calls:
            cell = self._cell(
                f"done_{op.name}", CellKind.FF, self.schedule.entry(op).cycle,
                delay_ns=CLK_Q_NS, ffs=1, width=1,
            )
            done_ffs[op.name] = cell
            self.netlist.connect(
                f"{self.prefix}.done_{op.name}",
                self.sink_cells[op.name],
                [(cell, "d")],
                kind=NetKind.SYNC,
            )
        # Start-broadcast sinks: every parallel instance plus the consumers
        # of their results (the next FSM state's capture registers).
        sinks: List[Tuple[Cell, str]] = [
            (self.sink_cells[op.name], "start") for op in calls
        ]
        for op in calls:
            if op.result is None:
                continue
            for user in op.result.uses:
                sink = self.sink_cells.get(user.name)
                if sink is not None:
                    sinks.append((sink, "sync_en"))
        if pruned:
            winner = next(op for op in calls if op.attrs.get("sync_pruned"))
            driver = done_ffs[winner.name]
        else:
            reduce_gate = self._cell(
                "done_reduce", CellKind.LOGIC,
                max(self.schedule.entry(op).cycle for op in calls),
                delay_ns=_reduce_tree_delay(len(calls)),
                luts=4 + len(calls) // 3,
                width=1,
            )
            for op in calls:
                self.netlist.connect(
                    f"{self.prefix}.dnet_{op.name}",
                    done_ffs[op.name],
                    [(reduce_gate, f"d_{op.name}")],
                    kind=NetKind.SYNC,
                )
            driver = reduce_gate
        self.netlist.connect(
            f"{self.prefix}.start", driver, sinks, kind=NetKind.SYNC
        )
