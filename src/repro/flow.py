"""End-to-end flow: Design → schedule → netlist → placement → Fmax.

This is the reproduction's equivalent of "run Vivado HLS, then Vivado, then
read the timing report".  :class:`Flow.run` executes the staged pass
pipeline (see :mod:`repro.pipeline`):

1. pragma lowering (loop unrolling — where data broadcasts are born);
2. optional §4.2 synchronization pruning;
3. §4.1 calibration-table resolution;
4. scheduling — baseline HLS model, or §4.1 broadcast-aware;
5. RTL generation with the selected §3.3/§4.3 control style;
6. placement, movable-chain spreading, backend register replication,
   movable-register retiming;
7. static timing analysis → Fmax + critical-path attribution.

Each stage is content-addressed; when a stage's input digest matches an
artifact in the on-disk store (``$REPRO_CACHE_DIR/stages/``) the stage is
skipped and its recorded outputs and trace are replayed instead, so a
:meth:`Flow.compare` or a sweep re-runs only the stages a config change
actually invalidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro import hashing, obs
from repro.delay.cache import resolve_calibration
from repro.delay.calibrated import CalibrationTable
from repro.ir.program import Design
from repro.opt import BASELINE, OptimizationConfig
from repro.physical.placement import Placement
from repro.physical.replication import ReplicationConfig
from repro.physical.timing import TimingResult
from repro.pipeline import (
    MemoryStageStore,
    PassManager,
    StageArtifactStore,
    build_stages,
)
from repro.rtl.generator import GenResult
from repro.rtl.resources import ResourceReport
from repro.scheduling.schedule import Schedule
from repro.sync.pruning import SyncPruningReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.transforms import TransformPlan

#: Default HLS clock target when a design does not specify one (MHz).
DEFAULT_CLOCK_MHZ = 300.0

#: Switch strings (``--stage-cache off``, ``stage_cache="no"``) that mean
#: "disabled".
_OFF_VALUES = ("off", "0", "no", "false")


def coerce_switch(setting: Union[None, bool, str]) -> bool:
    """Normalize a ``Flow(stage_cache=...)`` switch to a boolean (``None``
    means the default: on)."""
    if setting is None:
        return True
    if isinstance(setting, str):
        return setting.strip().lower() not in _OFF_VALUES
    return bool(setting)


@dataclass
class FlowResult:
    """Everything one flow run produced."""

    design: str
    config_label: str
    clock_target_mhz: float
    fmax_mhz: float
    period_ns: float
    timing: TimingResult
    resources: ResourceReport
    utilization: Dict[str, float]
    schedules: Dict[Tuple[str, str], Schedule]
    gen: GenResult
    schedule_edits: List[str] = field(default_factory=list)
    sync_report: Optional[SyncPruningReport] = None
    ii_by_loop: Dict[str, int] = field(default_factory=dict)
    #: Final placement (after replication/retiming); cells keyed by name.
    placement: Optional[Placement] = None
    #: Root span of this run when a tracer was active (see :mod:`repro.obs`).
    trace: Optional[obs.Span] = None
    #: Per-stage pipeline journal: stage name, input digest, whether it ran
    #: or was served from a stored artifact (see :mod:`repro.pipeline`).
    #: Deliberately excluded from :meth:`fingerprint` — cache hits must not
    #: change a result's identity.
    journal: Optional[List[Dict[str, object]]] = None

    @property
    def depth_by_loop(self) -> Dict[str, int]:
        return {f"{k}/{l}": s.depth for (k, l), s in self.schedules.items()}

    def fingerprint(self) -> Dict[str, object]:
        """The stable, JSON-able identity of this result.

        Everything deterministic a run produces — frequencies, critical
        path class, resource/utilization numbers, schedule depths, IIs,
        edit log, netlist size — and nothing that varies between otherwise
        identical runs (wall clock, traces, object identities, stage-cache
        hits).  Two runs of the same request must produce equal
        fingerprints; the service relies on this to prove a retried job
        reproduced the original, and the pipeline equivalence suite to
        prove cached and uncached runs are bit-identical.
        """
        return {
            "design": self.design,
            "config": self.config_label,
            "clock_target_mhz": self.clock_target_mhz,
            "fmax_mhz": self.fmax_mhz,
            "period_ns": self.period_ns,
            "critical_path_class": self.timing.path_class.value,
            "utilization": dict(sorted(self.utilization.items())),
            "depth_by_loop": self.depth_by_loop,
            "ii_by_loop": dict(self.ii_by_loop),
            "schedule_edits": list(self.schedule_edits),
            "cells": len(self.gen.netlist.cells),
            "nets": len(self.gen.netlist.nets),
        }

    def result_digest(self) -> str:
        """Canonical digest of :meth:`fingerprint` (see :mod:`repro.hashing`)."""
        return hashing.content_digest(
            {"schema": "repro-flow-result/1", **self.fingerprint()}
        )

    def summary(self) -> str:
        # Partial resource reports (e.g. a device with no DSP column) may
        # omit keys; treat missing kinds as unused rather than raising.
        util = self.utilization
        lut, ff = util.get("LUT", 0.0), util.get("FF", 0.0)
        bram, dsp = util.get("BRAM", 0.0), util.get("DSP", 0.0)
        return (
            f"{self.design} [{self.config_label}] "
            f"Fmax={self.fmax_mhz:.0f}MHz "
            f"(target {self.clock_target_mhz:.0f}MHz, "
            f"critical: {self.timing.path_class.value}) "
            f"LUT={lut:.0f}% FF={ff:.0f}% "
            f"BRAM={bram:.0f}% DSP={dsp:.0f}%"
        )


class Flow:
    """Reusable flow driver.

    Args:
        clock_mhz: Override the design's HLS clock target.
        seed: Placement seed (experiments keep it fixed for determinism).
            Also the seed of the §4.1 characterization when no table is
            injected, so a seeded flow is seeded end to end.
        calibration: Calibration table for §4.1; when omitted the flow
            resolves one through the persistent on-disk cache (see
            :mod:`repro.delay.cache`) — built once per (device, seed,
            smoothing), loaded everywhere else.  Resolution is additionally
            memoized per flow instance, so a compare/sweep resolves at most
            once per (device, seed, smoothing, path).
        calibration_path: Explicit calibration file (the CLI's
            ``--calibration PATH``); its stored provenance must match this
            flow's device/seed or the run fails loudly.
        replication: Backend fanout-optimization knobs (the paper runs with
            it enabled; the ablation bench disables it).
        retime: Run movable-register retiming after replication.
        stage_cache: Stage-artifact caching policy.  ``None``/``True``/
            ``"on"`` (default) uses the shared on-disk store under
            ``$REPRO_CACHE_DIR/stages``; ``False``/``"off"`` disables all
            stage reuse; a store instance (e.g. a private
            :class:`~repro.pipeline.StageArtifactStore`) is used as-is.
    """

    #: Smoothing passes requested from the §4.1 characterization.
    SMOOTH_PASSES = 1

    def __init__(
        self,
        clock_mhz: Optional[float] = None,
        seed: int = 2020,
        calibration: Optional[CalibrationTable] = None,
        replication: Optional[ReplicationConfig] = None,
        retime: bool = True,
        calibration_path: Optional[str] = None,
        stage_cache: Union[None, bool, str, StageArtifactStore] = None,
    ) -> None:
        self.clock_mhz = clock_mhz
        self.seed = seed
        self.calibration = calibration
        self.calibration_path = calibration_path
        self.replication = replication or ReplicationConfig()
        self.retime = retime
        self.stage_cache = stage_cache
        #: (device, seed, smooth_passes, path) → (table, original source).
        self._calibration_memo: Dict[Tuple, Tuple[CalibrationTable, str]] = {}

    # ------------------------------------------------------------------
    def _resolve_calibration(self, device: str) -> Tuple[CalibrationTable, str]:
        """Resolve (and instance-memoize) the calibration table.

        The memo stores the *original* resolution source ("built", "disk",
        "memory"), so observability reports the same provenance no matter
        how many runs this flow instance serves.
        """
        key = (device, self.seed, self.SMOOTH_PASSES, self.calibration_path)
        hit = self._calibration_memo.get(key)
        if hit is None:
            # Looked up as a module global so tests can monkeypatch
            # ``repro.flow.resolve_calibration``.
            hit = resolve_calibration(
                device,
                seed=self.seed,
                smooth_passes=self.SMOOTH_PASSES,
                path=self.calibration_path,
            )
            self._calibration_memo[key] = hit
        return hit

    def _stage_store(self) -> Optional[StageArtifactStore]:
        """Materialize the ``stage_cache`` policy into a store (or None)."""
        cache = self.stage_cache
        if cache is None or isinstance(cache, (bool, str)):
            return StageArtifactStore() if coerce_switch(cache) else None
        return cache

    # ------------------------------------------------------------------
    def run(
        self,
        design: Design,
        config: OptimizationConfig = BASELINE,
        _overlay: Optional[MemoryStageStore] = None,
        plan: Optional["TransformPlan"] = None,
        clock_mhz: Optional[float] = None,
    ) -> FlowResult:
        """Run the full flow on ``design`` under ``config``.

        The run is a staged pass pipeline (see :mod:`repro.pipeline`):
        ``pragmas``, ``sync-pruning``, ``calibration``, ``scheduling``,
        ``ii-analysis``, ``rtl-gen``, ``placement``, ``spreading``,
        ``replication``, ``retiming``, ``timing``.  When a
        :class:`repro.obs.Tracer` is activated (``obs.activate``), the run
        reports one ``flow`` root span with a child span per stage, plus
        counters such as ``scheduling.registers_inserted``,
        ``physical.nets_replicated``, and ``pipeline.stages_skipped`` /
        ``pipeline.stages_run``.  Stages served from the artifact store
        replay their recorded trace (marked ``cached=True``).  The root
        span is attached to :attr:`FlowResult.trace`; the per-stage journal
        to :attr:`FlowResult.journal`.

        ``_overlay`` is an in-process stage store shared by
        :meth:`compare` and the sweep drivers so sibling runs reuse their
        common front-end even when the on-disk store is cold.

        ``plan`` is an optional :class:`~repro.ir.transforms.TransformPlan`
        applied by the ``pragmas`` stage before lowering; its digest enters
        that stage's params, so planned and plan-free runs of one design
        never share stage artifacts.  ``clock_mhz`` overrides both the
        flow-level and the design-level clock target for this run only
        (the explorer sweeps clocks without rebuilding flows).
        """
        clock_mhz = float(
            clock_mhz
            or self.clock_mhz
            or design.meta.get("clock_mhz", DEFAULT_CLOCK_MHZ)
        )
        ctx: Dict[str, object] = {"design": design, "clock_ns": 1000.0 / clock_mhz}
        if plan is not None and len(plan):
            ctx["plan"] = plan
        manager = PassManager(
            build_stages(), store=self._stage_store(), overlay=_overlay
        )

        tracer = obs.current_tracer()
        with tracer.span(
            obs.FLOW_SPAN,
            design=design.name,
            config=config.label,
            clock_target_mhz=clock_mhz,
            seed=self.seed,
        ) as root:
            ctx, journal = manager.execute(self, config, ctx)
            timing: TimingResult = ctx["timing"]
            gen: GenResult = ctx["gen"]
            resources = ResourceReport.of_netlist(gen.netlist)
            root.set("fmax_mhz", round(timing.fmax_mhz, 3))
            root.set("critical_path_class", timing.path_class.value)
            tracer.set_gauge("flow.fmax_mhz", round(timing.fmax_mhz, 3))
        return FlowResult(
            design=design.name,
            config_label=config.label,
            clock_target_mhz=clock_mhz,
            fmax_mhz=timing.fmax_mhz,
            period_ns=timing.period_ns,
            timing=timing,
            resources=resources,
            utilization=resources.utilization(ctx["lowered"].device),
            schedules=ctx["schedules"],
            gen=gen,
            schedule_edits=ctx["schedule_edits"],
            sync_report=ctx["sync_report"],
            ii_by_loop=ctx["ii_by_loop"],
            placement=ctx["placement"],
            trace=root if isinstance(root, obs.Span) else None,
            journal=journal,
        )

    def compare(
        self,
        design: Design,
        baseline: OptimizationConfig = BASELINE,
        optimized: Optional[OptimizationConfig] = None,
    ) -> Tuple[FlowResult, FlowResult]:
        """Run a design twice (Table 1's Orig vs Opt columns).

        Both runs share an in-process stage overlay, so the front-end
        stages whose digests don't depend on the config delta (pragma
        lowering in particular — the design is verified and lowered exactly
        once) are executed by the first run and replayed by the second,
        even when the on-disk store starts cold.  Disabled together with
        the stage cache (``stage_cache="off"``).
        """
        from repro.opt import FULL

        overlay = MemoryStageStore() if self._stage_store() is not None else None
        orig = self.run(design, baseline, _overlay=overlay)
        opt = self.run(
            design, optimized if optimized is not None else FULL, _overlay=overlay
        )
        return orig, opt
