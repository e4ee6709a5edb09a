"""In-memory spans around the public entry points of each ``repro`` layer.

The benchmark never edits the program to trace it.  :func:`install`
replaces each entry point listed in :func:`_targets` with a wrapper that
records a span (or only a call count, for the allocator's hot inner call)
into a :class:`Recorder`, everywhere the loaded ``repro`` modules refer to
it, and returns a function that puts the originals back.

A span is named ``<layer>.<what>``; its layer is the part before the dot.
Self time is a span's duration minus the part of it that its child spans
cover, so nested entry points (placement inside characterization, an
eviction inside a store put) are never counted twice.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: str
    pid: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Spans and counters of one benchmark run, kept in memory.

    Spans may be opened from several threads (each thread has its own
    parent stack).  Counters are only bumped from the thread that runs the
    compile, so they take no lock.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._ids_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._ids_lock:
            return next(self._ids)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None) -> Iterator[Span]:
        """Time a block.  Its parent is the innermost open span of this
        thread, or ``parent`` for a span opened on another thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(self._next_id(), parent.id if parent else None, name,
                    time.perf_counter(), 0.0, self.run_id, os.getpid())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def export(self) -> Dict[str, Any]:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
        }

    def absorb(self, exported: Dict[str, Any], parent: Optional[Span] = None,
               run: Optional[str] = None) -> None:
        """Merge spans and counts recorded in another process.

        Span ids are renumbered; the other process's root spans become
        children of ``parent`` when given.  The spans are labelled with
        ``run`` (default: this recorder's run id); set-up spans get their
        own label so per-pass figures can leave them out, and their counts
        are not merged.  ``time.perf_counter`` is the
        system-wide monotonic clock on Linux, so start and end times of
        both processes are on one time base.
        """
        renumber: Dict[int, int] = {}
        for raw in exported.get("spans", ()):
            renumber[raw["id"]] = self._next_id()
        for raw in exported.get("spans", ()):
            old_parent = raw["parent"]
            if old_parent is not None and old_parent in renumber:
                new_parent: Optional[int] = renumber[old_parent]
            else:
                new_parent = parent.id if parent is not None else None
            self.spans.append(Span(renumber[raw["id"]], new_parent, raw["name"],
                                   raw["start"], raw["end"], run or self.run_id,
                                   raw["pid"]))
        if run is None or run == self.run_id:
            for name, value in exported.get("counts", {}).items():
                self.counts[name] += value


# -- self time ----------------------------------------------------------
def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.id]
    return dict(totals)


# -- wrapping -----------------------------------------------------------
def _sum_memo(flow: Any) -> Tuple[int, int]:
    state = getattr(flow, "_incremental_state_obj", None)
    if state is None:
        return 0, 0
    stats = state.stats().values()
    return sum(m["hits"] for m in stats), sum(m["misses"] for m in stats)


def _after_generate(rec: Recorder, result: Any) -> None:
    rec.add("rtl.cells", len(result.netlist.cells))
    rec.add("rtl.nets", len(result.netlist.nets))


def _after_pragmas(rec: Recorder, result: Any) -> None:
    rec.add("ir.lowered_ops", sum(len(loop.body.ops) for _, loop in result.all_loops()))


def _after_prune(rec: Recorder, result: Any) -> None:
    _lowered, report = result
    rec.add("sync.flows_created", report.flows_created)


def _after_encode(rec: Recorder, result: Any) -> None:
    rec.add("pipeline.encoded_mb", len(result) / 1e6)


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, after-hook)`` for every traced entry
    point.  An after-hook turns the entry point's result into counts."""
    from repro.delay import cache as delay_cache
    from repro.delay import calibration
    from repro.designs import registry
    from repro.engine.pool import Engine
    from repro.flow import Flow
    from repro.ir import passes
    from repro.physical import placement, replication, retiming, spreading, timing
    from repro.pipeline import digest, incremental, stage, store
    from repro.rtl import generator
    from repro.scheduling import broadcast_aware, chaining, ii
    from repro.sync import pruning

    return [
        (placement.Placer, "place", "physical.place", None),
        (spreading, "spread_movable_chains", "physical.spread", None),
        (replication, "replicate_high_fanout", "physical.replicate", None),
        (retiming, "retime_movable", "physical.retime", None),
        (timing.TimingAnalyzer, "analyze", "physical.sta", None),
        (generator, "generate_netlist", "rtl.generate", _after_generate),
        (passes, "apply_pragmas", "ir.apply_pragmas", _after_pragmas),
        (pruning, "prune_synchronization", "sync.prune", _after_prune),
        (broadcast_aware, "broadcast_aware_schedule", "scheduling.schedule", None),
        (chaining.ChainingScheduler, "schedule", "scheduling.schedule", None),
        (ii, "analyze_ii", "scheduling.ii", None),
        (calibration, "build_default_calibration", "delay.characterize", None),
        (delay_cache, "resolve_calibration", "delay.resolve_calibration", None),
        (store.StageArtifactStore, "get", "pipeline.store_get", None),
        (store.StageArtifactStore, "put", "pipeline.store_put", None),
        (store.StageArtifactStore, "evict", "pipeline.store_evict", None),
        (incremental.MemoSpill, "load", "pipeline.store_get", None),
        (incremental.MemoSpill, "save", "pipeline.store_put", None),
        (incremental.MemoSpill, "prune", "pipeline.store_evict", None),
        (store, "encode_outputs", "pipeline.encode", _after_encode),
        (store, "decode_outputs", "pipeline.decode", None),
        (digest, "design_digest", "pipeline.digest", None),
        (digest, "loop_digest", "pipeline.digest", None),
        (digest, "schedules_digest", "pipeline.digest", None),
        (digest, "table_digest", "pipeline.digest", None),
        (stage.Stage, "input_digest", "pipeline.digest", None),
        (Flow, "run", "pipeline.flow_run", None),
        (registry, "build_design", "designs.build", None),
        (Engine, "run_flows", "engine.run_flows", None),
    ]


def _counted() -> List[Tuple[Any, str, str]]:
    """Entry points called too often for a span each: counted only."""
    from repro.physical.fabric import Occupancy

    return [(Occupancy, "allocate", "physical.allocate_calls")]


def _span_wrapper(rec: Recorder, name: str, func: Callable, after: Optional[Callable]) -> Callable:
    if name == "scheduling.schedule":
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = rec.current()
            if outer is None or outer.name != name:
                rec.add("scheduling.loops")
            with rec.span(name):
                return func(*args, **kwargs)
        return wrapper

    if name == "pipeline.flow_run":
        @functools.wraps(func)
        def wrapper(flow: Any, *args: Any, **kwargs: Any) -> Any:
            hits0, misses0 = _sum_memo(flow)
            with rec.span(name):
                result = func(flow, *args, **kwargs)
            hits1, misses1 = _sum_memo(flow)
            rec.add("pipeline.memo_hits", hits1 - hits0)
            rec.add("pipeline.memo_lookups", (hits1 - hits0) + (misses1 - misses0))
            for entry in result.journal or ():
                if entry.get("cacheable"):
                    rec.add("pipeline.stage_lookups")
                    if entry.get("action") == "skipped":
                        rec.add("pipeline.stage_hits")
            return result
        return wrapper

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name):
            result = func(*args, **kwargs)
        if after is not None:
            after(rec, result)
        return result
    return wrapper


def _count_wrapper(rec: Recorder, name: str, func: Callable) -> Callable:
    counts = rec.counts

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return func(*args, **kwargs)
    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every target; returns the function that unwraps them.

    A module-level function is replaced in every loaded ``repro`` module
    that bound it by name; a method is replaced on its class.
    """
    undo: List[Tuple[Any, str, Any]] = []

    def replace(owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    for owner, attr, name, after in _targets():
        replace(owner, attr, _span_wrapper(rec, name, owner.__dict__[attr], after))
    for owner, attr, name in _counted():
        replace(owner, attr, _count_wrapper(rec, name, owner.__dict__[attr]))

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall
