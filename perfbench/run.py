"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 5 --trace 0

Run it from anywhere; it imports ``repro`` from ``src/`` beside this
directory and exits 2 when that is missing.  The metric names and units
come from ``BENCHMARK.json`` at the repository root.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it makes one
untraced and one traced pass and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines above it repeat every metric with
its unit, the correctness counts (``digest_mismatches``,
``failed_ratio``) and the run's disclosure: CPU count, Python version,
commit, source digest and cache policy.  The same document, with the spans
of a traced run, is written to ``.bench_runs/results/``.

Every run works in a fresh directory under ``.bench_runs/`` (each pass in
its own ``REPRO_CACHE_DIR``) and deletes it at the end; the user's cache
and ``benchmarks/results`` are never touched.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import spans
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CACHE_POLICY = (
    "repro defaults (stage cache, incremental memos, memo spill and "
    "calibration cache all on); REPRO_* variables cleared; fresh "
    "REPRO_CACHE_DIR per pass"
)

#: Columns of the per-design table of a traced table1-cold run.
ROW_LAYERS = ("physical", "rtl", "scheduling", "ir", "sync", "pipeline",
              "delay", "designs", "engine")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for base, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def disclosure(nproc: int) -> Dict[str, Any]:
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit(),
        "source": source_digest(),
        "cache_policy": CACHE_POLICY,
        "placement_seed": 2020,
    }


def end_to_end(passes: List[Any], setup_times: List[float],
               peak_rss_mb: float) -> Tuple[Dict[str, float], float]:
    """The end-to-end metrics, and the percentile ``latency_tail_s`` is at."""
    latencies = [x for p in passes for x in p.latencies]
    # Fewer than 11 latencies (only when requests failed): fall back to p50.
    tail = stats.tail_percentile(len(latencies)) or 50.0
    last = passes[-1]
    return {
        "setup_s": stats.median(setup_times),
        "wall_s": stats.median(p.wall_s for p in passes),
        "compiles_per_s": sum(p.delivered for p in passes) / sum(p.wall_s for p in passes),
        "latency_p50_s": stats.harrell_davis(latencies, 50.0),
        "latency_tail_s": stats.harrell_davis(latencies, tail),
        "fmax_geomean_mhz": stats.geomean(last.fmax.values()),
        "table1_gain_pct": last.gain_pct,
        "peak_rss_mb": peak_rss_mb,
        "cache_disk_mb": stats.median(p.cache_disk_mb for p in passes),
    }, tail


def per_layer(recorder: Any, traced: Any, untraced_wall: float) -> Dict[str, float]:
    """Per-layer figures of the traced pass; characterization is set-up,
    so ``delay.characterize_s`` is the inclusive time of set-up's spans."""
    in_pass = [s for s in recorder.spans if s.run == recorder.run_id]
    own = spans.self_time_by_name(in_pass)
    counts = recorder.counts

    def ratio(hits: str, lookups: str) -> float:
        return counts.get(hits, 0.0) / counts[lookups] if counts.get(lookups) else 0.0

    times = {
        "physical.place_s": "physical.place",
        "physical.spread_s": "physical.spread",
        "physical.replicate_s": "physical.replicate",
        "physical.retime_s": "physical.retime",
        "physical.sta_s": "physical.sta",
        "rtl.generate_s": "rtl.generate",
        "ir.apply_pragmas_s": "ir.apply_pragmas",
        "sync.prune_s": "sync.prune",
        "scheduling.schedule_s": "scheduling.schedule",
        "scheduling.ii_s": "scheduling.ii",
        "delay.resolve_calibration_s": "delay.resolve_calibration",
        "pipeline.store_put_s": "pipeline.store_put",
        "pipeline.store_evict_s": "pipeline.store_evict",
        "pipeline.encode_s": "pipeline.encode",
        "pipeline.store_get_s": "pipeline.store_get",
        "pipeline.decode_s": "pipeline.decode",
        "pipeline.digest_s": "pipeline.digest",
        "pipeline.manager_s": "pipeline.flow_run",
        "designs.build_s": "designs.build",
        "engine.overhead_s": "engine.run_flows",
    }
    metrics = {metric: own.get(span, 0.0) for metric, span in times.items()}
    metrics["delay.characterize_s"] = sum(
        s.end - s.start for s in recorder.spans if s.name == "delay.characterize")
    for name in ("physical.allocate_calls", "rtl.cells", "rtl.nets", "ir.lowered_ops",
                 "sync.flows_created", "scheduling.loops", "pipeline.encoded_mb",
                 "pipeline.stage_lookups", "pipeline.memo_lookups"):
        metrics[name] = counts.get(name, 0.0)
    metrics["pipeline.stage_hit_ratio"] = ratio("pipeline.stage_hits", "pipeline.stage_lookups")
    metrics["pipeline.memo_hit_ratio"] = ratio("pipeline.memo_hits", "pipeline.memo_lookups")
    for name in ("service.submit_s", "service.queue_wait_s", "service.compile_s",
                 "service.store_hit_ratio", "service.coalesced", "service.retries"):
        metrics[name] = traced.layers.get(name, 0.0)
    metrics["analysis.high_fanout_nets"] = traced.layers["analysis.high_fanout_nets"]
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced_wall
    metrics["trace.unattributed_s"] = own.get("bench.request", 0.0) + own.get("bench.pass", 0.0)
    return metrics


def design_rows(recorder: Any, traced: Any) -> List[str]:
    """One line per timed request: its latency split by layer self time."""
    if not traced.requests:
        return []
    own = spans.self_times(recorder.spans)
    children: Dict[int, List[Any]] = {}
    for span in recorder.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    header = f"{'request':40s} {'total_s':>8s}" + "".join(f" {l:>10s}" for l in ROW_LAYERS)
    lines = [header + f" {'other':>8s}"]
    for root, label in traced.requests:
        by_layer: Dict[str, float] = {}
        todo = list(children.get(root.id, ()))
        while todo:
            span = todo.pop()
            by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own[span.id]
            todo.extend(children.get(span.id, ()))
        cells = "".join(f" {by_layer.get(l, 0.0):10.3f}" for l in ROW_LAYERS)
        lines.append(f"{label:40s} {root.end - root.start:8.3f}{cells} {own[root.id]:8.3f}")
    return lines


def run(args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    sys.path.insert(0, SRC)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    nproc = os.cpu_count() or 1
    runs_dir = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    # Nothing may fall back to the user's cache, even before a pass sets its own.
    os.environ["REPRO_CACHE_DIR"] = run_dir
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    recorder = spans.Recorder(run_id) if args.trace else None
    ctx = workloads.Context(run_dir, nproc, recorder)
    workload = workloads.WORKLOADS[args.workload](ctx)
    try:
        setup_times = workload.setup()
        if recorder is not None:
            # Both passes see the same request order, so their wall times
            # differ by the tracing overhead only.
            untraced = workload.one_pass(0, random.Random(args.seed), None)
            gc.collect()
            uninstall = spans.install(recorder)
            try:
                passes = [untraced, workload.one_pass(1, random.Random(args.seed), recorder)]
            finally:
                uninstall()
        else:
            rng = random.Random(args.seed)
            passes = []
            window = time.perf_counter()
            while (len(passes) < workload.min_passes
                   or time.perf_counter() - window < args.seconds):
                gc.collect()
                passes.append(workload.one_pass(len(passes), rng, None))
        peak = workload.peak_rss_mb()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    book = workload.book
    failures += [f"digest mismatch: {point}: {a[:12]} != {b[:12]}"
                 for point, a, b in book.mismatches]
    failures += ["served result with no compiled reference"] * book.unreferenced
    attempted = sum(p.attempted for p in passes)
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "env": disclosure(nproc),
        "digest_mismatches": book.mismatch_count,
        "digests_checked": book.checked,
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
    }
    if recorder is not None:
        untraced, traced = passes
        report["per_layer"] = source = per_layer(recorder, traced, untraced.wall_s)
        report["rows"] = design_rows(recorder, traced)
        report["spans"] = recorder.export()
    else:
        source, report["latency_tail_percentile"] = end_to_end(passes, setup_times, peak)
        report["end_to_end"] = source
        report["latency_samples"] = sum(len(p.latencies) for p in passes)
        report["latencies"] = [p.latencies for p in passes]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return report


def print_report(report: Dict[str, Any]) -> None:
    env = report["env"]
    print(f"# perfbench {report['workload']} seed={report['seed']} trace={report['trace']}"
          f" passes={report['passes']} nproc={env['nproc']} python={env['python']}"
          f" commit={env['commit'] or 'n/a'} source={env['source']}")
    print(f"# cache policy: {env['cache_policy']}")
    for line in report.get("rows", ()):
        print(line)
    for name, metric in report["result"]["metrics"].items():
        extra = ""
        if name == "latency_tail_s":
            extra = (f"  (p{report['latency_tail_percentile']:g},"
                     f" n={report['latency_samples']})")
        print(f"{name:32s} {metric['value']:14.6f} {metric['unit']}{extra}")
    result = report["result"]
    print(f"{'digest_mismatches':32s} {report['digest_mismatches']:14d} count"
          f"  ({report['digests_checked']} served results checked)")
    print(f"{'failed_ratio':32s} {report['failed_ratio']:14.6f} ratio"
          f"  ({result['failed']}/{result['attempted']})")
    for failure in report["failures"]:
        print(f"# FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    report = run(args, spec)
    out_dir = os.path.join(ROOT, ".bench_runs", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
