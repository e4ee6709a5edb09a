"""The eleven concrete stages of the flow pipeline.

Execution order (the DAG is a chain with explicit data edges)::

    pragmas ──▶ sync-pruning ──▶ calibration ──▶ scheduling ──▶ ii-analysis
                                                      │
                                                      ▼
                 placement ◀────────────────────── rtl-gen
                     │
                     ▼
                 spreading ──▶ replication ──▶ retiming ──▶ timing

Stage bodies are the former ``Flow.run`` blocks, moved verbatim; the span
attribute names and counter/histogram emissions are unchanged, so traces
of a cold run are byte-compatible with the monolithic flow's.

Artifact-bundling rules (why some outputs re-bind their inputs):

* ``scheduling`` re-binds ``lowered`` — broadcast-aware scheduling inserts
  register ops into loop bodies in place, and each
  :class:`~repro.scheduling.schedule.Schedule` holds references to those
  :class:`~repro.ir.ops.Operation` objects.  Storing them in one bundle
  preserves the identity linkage across a pickle round trip.
* ``replication`` and ``retiming`` re-bind both ``gen`` and ``placement``
  for the same reason: they rewrite the netlist and the placement as one
  consistent unit.
* ``placement``/``spreading`` output only ``placement`` — a
  :class:`~repro.physical.placement.Placement` is keyed by cell *name*, so
  it stays coherent against any unpickled copy of the same netlist.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.delay.calibrated import CalibratedDelayModel
from repro.delay.hls_model import HlsDelayModel
from repro.ir.passes import apply_pragmas
from repro.physical.device import get_device
from repro.physical.fabric import Fabric
from repro.physical.placement import Placer
from repro.physical.replication import replicate_high_fanout
from repro.physical.retiming import retime_movable
from repro.physical.spreading import spread_movable_chains
from repro.physical.timing import TimingAnalyzer
from repro.pipeline.digest import table_digest
from repro.pipeline.stage import Stage
from repro.rtl.generator import GenOptions, generate_netlist
from repro.scheduling.broadcast_aware import broadcast_aware_schedule
from repro.scheduling.chaining import ChainingScheduler
from repro.scheduling.ii import analyze_ii
from repro.scheduling.schedule import Schedule
from repro.sync.pruning import prune_synchronization


class PragmasStage(Stage):
    """Apply the transform plan (if any), verify the design and lower
    pragmas (loop unrolling — where data broadcasts are born)."""

    name = "pragmas"
    inputs = ("design",)
    outputs = ("lowered",)

    def params(self, flow, config, ctx):
        # The plan rewrites the design before lowering, so its digest is
        # part of this stage's identity.  Plan-free runs return the same
        # empty params as before plans existed — their stored artifacts
        # stay valid.
        plan = ctx.get("plan")
        if plan is None or not len(plan):
            return {}
        return {"plan": plan.digest()}

    def run(self, flow, config, ctx, span):
        design = ctx["design"]
        plan = ctx.get("plan")
        if plan is not None and len(plan):
            span.set("plan_transforms", len(plan))
            design = plan.apply(design)
        design.verify()
        lowered = apply_pragmas(design)
        span.set("kernels", len(lowered.kernels))
        span.set("loops", sum(1 for _ in lowered.all_loops()))
        span.set("ops", sum(len(l.body.ops) for _, l in lowered.all_loops()))
        return {"lowered": lowered}


class SyncPruningStage(Stage):
    """Optional §4.2 synchronization pruning.  Always present in the DAG so
    every trace has the same stage skeleton (attr ``enabled`` tells which)."""

    name = "sync-pruning"
    inputs = ("lowered",)
    outputs = ("lowered", "sync_report")

    def params(self, flow, config, ctx):
        return {"enabled": bool(config.sync_pruning)}

    def run(self, flow, config, ctx, span):
        span.set("enabled", bool(config.sync_pruning))
        lowered = ctx["lowered"]
        sync_report = None
        if config.sync_pruning:
            lowered, sync_report = prune_synchronization(lowered)
            span.set("split_loops", len(sync_report.split_loops))
            span.set("flows_created", sync_report.flows_created)
            span.set("call_syncs_pruned", len(sync_report.call_syncs_pruned))
        return {"lowered": lowered, "sync_report": sync_report}


class CalibrationStage(Stage):
    """Resolve the §4.1 characterization table (injected → memo → disk →
    built).

    Not cacheable: resolution *is* a cache lookup already, and its result
    depends on the environment (injected tables, cache toggles, explicit
    paths).  It still chains a digest — of the actual table *content* — so
    downstream scheduling artifacts can never alias two different tables
    that happen to share provenance (e.g. a synthetic test table saved
    under the default seed).
    """

    name = "calibration"
    inputs = ("lowered",)
    outputs = ("cal_table",)
    cacheable = False

    @staticmethod
    def _table(flow, config, ctx) -> Tuple[Optional[Any], Optional[str]]:
        if not config.broadcast_aware:
            return None, None
        if flow.calibration is not None:
            return flow.calibration, "injected"
        return flow._resolve_calibration(ctx["lowered"].device)

    def params(self, flow, config, ctx):
        table, _source = self._table(flow, config, ctx)
        return {
            "enabled": bool(config.broadcast_aware),
            "table": table_digest(table) if table is not None else None,
        }

    def run(self, flow, config, ctx, span):
        # The characterization itself runs placements; it gets its own
        # stage so its cost isn't blamed on scheduling.
        table, source = self._table(flow, config, ctx)
        span.set("enabled", bool(config.broadcast_aware))
        if table is not None:
            span.set("source", source)
            span.set("cached", source != "built")
        return {"cal_table": table}


class SchedulingStage(Stage):
    """Schedule every loop body — baseline HLS model, or §4.1
    broadcast-aware (which edits the lowered design in place)."""

    name = "scheduling"
    inputs = ("lowered", "cal_table")
    outputs = ("lowered", "schedules", "schedule_edits")

    def params(self, flow, config, ctx):
        return {
            "clock_ns": ctx["clock_ns"],
            "broadcast_aware": bool(config.broadcast_aware),
        }

    def run(self, flow, config, ctx, span):
        lowered = ctx["lowered"]
        clock_ns = ctx["clock_ns"]
        span.set("broadcast_aware", bool(config.broadcast_aware))
        schedules: Dict[Tuple[str, str], Schedule] = {}
        edits: List[str] = []
        cal_model: Optional[CalibratedDelayModel] = None
        if config.broadcast_aware:
            cal_model = CalibratedDelayModel(ctx["cal_table"])
        hls_model = HlsDelayModel()
        for kernel, loop in lowered.all_loops():
            if cal_model is not None:
                result = broadcast_aware_schedule(loop.body, clock_ns, cal_model)
                schedules[(kernel.name, loop.name)] = result.schedule
                edits.extend(
                    f"{kernel.name}/{loop.name}: {edit}" for edit in result.edits
                )
            else:
                schedules[(kernel.name, loop.name)] = ChainingScheduler(
                    hls_model, clock_ns
                ).schedule(loop.body)
        span.set("loops", len(schedules))
        span.set("edits", len(edits))
        span.set("max_depth", max((s.depth for s in schedules.values()), default=0))
        return {"lowered": lowered, "schedules": schedules, "schedule_edits": edits}


class IIAnalysisStage(Stage):
    """Initiation-interval analysis per loop."""

    name = "ii-analysis"
    inputs = ("lowered", "schedules")
    outputs = ("ii_by_loop",)

    def run(self, flow, config, ctx, span):
        lowered, schedules = ctx["lowered"], ctx["schedules"]
        ii_by_loop = {
            f"{kernel.name}/{loop.name}": analyze_ii(
                loop, schedules[(kernel.name, loop.name)]
            ).ii
            for kernel, loop in lowered.all_loops()
        }
        span.set("worst_ii", max(ii_by_loop.values(), default=1))
        return {"ii_by_loop": ii_by_loop}


class RtlGenStage(Stage):
    """Generate the netlist with the selected §3.3/§4.3 control style."""

    name = "rtl-gen"
    inputs = ("lowered", "schedules")
    outputs = ("gen",)

    def params(self, flow, config, ctx):
        return {"control": config.control.value}

    def run(self, flow, config, ctx, span):
        span.set("control", config.control.value)
        gen = generate_netlist(
            ctx["lowered"], ctx["schedules"], GenOptions(control=config.control)
        )
        span.set("cells", len(gen.netlist.cells))
        span.set("nets", len(gen.netlist.nets))
        return {"gen": gen}


class PlacementStage(Stage):
    """Seeded greedy placement on the target device's fabric."""

    name = "placement"
    inputs = ("lowered", "gen")
    outputs = ("placement",)

    def params(self, flow, config, ctx):
        return {"seed": flow.seed}

    def run(self, flow, config, ctx, span):
        gen = ctx["gen"]
        span.set("cells", len(gen.netlist.cells))
        lowered = ctx["lowered"]
        fabric = Fabric(get_device(lowered.device))
        placer = Placer(fabric, seed=flow.seed)
        placement = placer.place(gen.netlist, anchor=gen.anchor)
        return {"placement": placement}


class SpreadingStage(Stage):
    """Re-position movable register chains evenly along their routes."""

    name = "spreading"
    inputs = ("gen", "placement")
    outputs = ("placement",)

    def run(self, flow, config, ctx, span):
        moved = spread_movable_chains(ctx["gen"].netlist, ctx["placement"])
        span.set("registers_moved", moved)
        return {"placement": ctx["placement"]}


class ReplicationStage(Stage):
    """Backend register replication for high-fanout nets (rewrites netlist
    and placement as one unit)."""

    name = "replication"
    inputs = ("gen", "placement")
    outputs = ("gen", "placement")

    def params(self, flow, config, ctx):
        rep = flow.replication
        return {
            "enabled": bool(rep.enabled),
            "max_fanout": rep.max_fanout,
            "max_replicas": rep.max_replicas,
        }

    def run(self, flow, config, ctx, span):
        gen, placement = ctx["gen"], ctx["placement"]
        replicas = replicate_high_fanout(gen.netlist, placement, flow.replication)
        span.set("replicas_created", replicas)
        return {"gen": gen, "placement": placement}


class RetimingStage(Stage):
    """Movable-register retiming; leaves the final netlist on ``gen`` so
    downstream analysis (census, verilog) sees what gets timed."""

    name = "retiming"
    inputs = ("gen", "placement")
    outputs = ("gen", "placement")

    def params(self, flow, config, ctx):
        return {"enabled": bool(flow.retime)}

    def run(self, flow, config, ctx, span):
        gen, placement = ctx["gen"], ctx["placement"]
        span.set("enabled", flow.retime)
        netlist = gen.netlist
        if flow.retime:
            netlist, placement, moves = retime_movable(netlist, placement)
            span.set("moves", moves)
        gen.netlist = netlist
        return {"gen": gen, "placement": placement}


class TimingStage(Stage):
    """Static timing analysis → Fmax + critical-path attribution."""

    name = "timing"
    inputs = ("gen", "placement")
    outputs = ("timing",)

    def run(self, flow, config, ctx, span):
        timing = TimingAnalyzer(ctx["gen"].netlist, ctx["placement"]).analyze()
        span.set("fmax_mhz", round(timing.fmax_mhz, 3))
        span.set("period_ns", round(timing.period_ns, 4))
        span.set("critical_path_class", timing.path_class.value)
        return {"timing": timing}


def build_stages() -> List[Stage]:
    """The flow's stage list, in DAG order."""
    return [
        PragmasStage(),
        SyncPruningStage(),
        CalibrationStage(),
        SchedulingStage(),
        IIAnalysisStage(),
        RtlGenStage(),
        PlacementStage(),
        SpreadingStage(),
        ReplicationStage(),
        RetimingStage(),
        TimingStage(),
    ]
