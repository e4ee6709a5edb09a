"""The benchmark's three workloads.

Each workload has a set-up step and a *pass*: a fixed multiset of requests.
Every request is a closed loop: the next one is issued when the previous
one returns.  A run repeats passes until ``--seconds`` have gone by (at
least one pass); a traced run makes one untraced and one traced pass with
the same order, so the tracing overhead is the difference of their times.

* ``table1-cold`` — Table 1 (nine designs × {Orig, Opt}) compiled one job
  at a time through ``Engine(jobs=1)`` in run_table1's order, every pass
  in a fresh cache directory.  Set-up is the §4.1 characterization of the
  four devices.  The seed is not used: every stage-store put scans the
  whole store, so a job's cost grows with the number of jobs before it,
  and a shuffled order would move the latency percentiles.
* ``sweep-warm`` — the Fig 15 genome sweep.  Set-up is one cold pass; each
  measured pass revisits every point with a fresh ``Flow`` from the warm
  on-disk cache.  The seed orders the unroll factors.
* ``service-mixed`` — a ``repro serve`` daemon with one worker per CPU and
  two client threads.  A pass submits every (design, config) point once
  plus repeats of earlier requests, in a seeded order; each pass gets a
  fresh daemon and cache directory.  Set-up is the daemon start, measured
  five times.
"""

from __future__ import annotations

import gc
import inspect
import json
import multiprocessing
import os
import random
import resource
import shutil
import socket
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import spans
from stats import DigestBook

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Placement and characterization seed.  The golden QoR is pinned at it;
#: the workload seed never reaches the program.
PLACEMENT_SEED = 2020


@dataclass
class PassResult:
    """What one pass measured and checked."""

    wall_s: float
    latencies: List[float]
    attempted: int
    delivered: int
    failures: List[str]
    fmax: Dict[str, float]
    gain_pct: float
    cache_disk_mb: float
    #: Per-layer values the pass computes itself (not from spans).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Root span of every timed request, with its label (traced pass only).
    requests: List[Tuple[spans.Span, str]] = field(default_factory=list)


class Context:
    """Settings and scratch space of one benchmark run."""

    def __init__(self, run_dir: str, nproc: int,
                 recorder: Optional[spans.Recorder]) -> None:
        self.run_dir = run_dir
        self.nproc = nproc
        self.recorder = recorder

    @property
    def tracing(self) -> bool:
        return self.recorder is not None

    @property
    def setup_run(self) -> str:
        """Run label of spans recorded during set-up (traced runs only)."""
        return f"{self.recorder.run_id}/setup"

    def cache_dir(self, name: str, calibration_from: Optional[str] = None) -> str:
        """A new, empty ``REPRO_CACHE_DIR`` for this process and its children.

        ``calibration_from`` copies the §4.1 tables characterized in
        set-up, which is all a cold pass may start with."""
        path = os.path.join(self.run_dir, name)
        os.makedirs(path)
        if calibration_from is not None:
            for entry in os.listdir(calibration_from):
                if entry.startswith("calibration-") and entry.endswith(".json"):
                    shutil.copy(os.path.join(calibration_from, entry), path)
        os.environ["REPRO_CACHE_DIR"] = path
        return path


# -- helpers --------------------------------------------------------------
def dir_mb(path: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total / 1e6


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_result(result: Any) -> Optional[str]:
    """Why ``result`` is not a valid compile, or ``None`` when it is."""
    if not result.fmax_mhz > 0:
        return f"fmax_mhz={result.fmax_mhz}"
    try:
        result.gen.netlist.validate()
    except Exception as exc:  # any validation error counts as a failure
        return f"netlist.validate: {type(exc).__name__}: {exc}"
    return None


def high_fanout_nets(result: Any) -> int:
    """High-fanout nets of a result's final netlist, by ``classify_netlist``."""
    from repro.analysis.broadcast import classify_netlist

    return len(classify_netlist(result.gen.netlist).records)


def mean_gain_pct(pairs: Sequence[Tuple[float, float]]) -> float:
    """Mean of ``(opt / orig - 1) * 100`` — Table 1's ``average_gain``."""
    return sum((opt / orig - 1) * 100 for orig, opt in pairs) / len(pairs)


def shuffled_pairs(jobs: Sequence[Any], rng: random.Random) -> List[Any]:
    """``jobs`` is (Orig, Opt) pairs in a row; shuffle the pairs, not the jobs.

    run_fig15 runs each Orig just before its Opt, which then reuses Orig's
    front-end stages from the flow's memory.  Keeping the pairs whole keeps
    every job's cost the same whatever the seed."""
    pairs = [list(jobs[i:i + 2]) for i in range(0, len(jobs), 2)]
    rng.shuffle(pairs)
    return [job for pair in pairs for job in pair]


def _child_main(conn, func, args) -> None:
    try:
        conn.send((True, func(*args)))
    except BaseException:
        conn.send((False, traceback.format_exc()))
        raise
    finally:
        conn.close()


def in_child(func: Callable, *args: Any) -> Any:
    """Run ``func(*args)`` in a child process and return its result, so
    set-up work does not count toward this process's peak RSS.  The child
    is forked: this process has no threads yet, and a fork skips the
    imports a fresh interpreter would repeat."""
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(child_end, func, args))
    proc.start()
    child_end.close()
    try:
        ok, payload = parent_end.recv()
    except EOFError:
        ok, payload = False, "set-up process died without a result"
    finally:
        parent_end.close()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
    if not ok:
        raise RuntimeError(f"set-up failed:\n{payload}")
    return payload


def _traced(trace: bool, func: Callable, *args: Any) -> Tuple[Any, Optional[Dict]]:
    """``func(*args)`` under a fresh recorder when ``trace``; returns the
    result and the exported spans (for another process to absorb)."""
    if not trace:
        return func(*args), None
    rec = spans.Recorder(f"setup-{os.getpid()}")
    uninstall = spans.install(rec)
    try:
        return func(*args), rec.export()
    finally:
        uninstall()


@dataclass
class Checked:
    """What a pass keeps of one result once it is checked: results are
    dropped as they come, so the benchmark's heap does not grow."""

    fmax_mhz: float
    digest: str
    high_fanout_nets: int


def run_jobs(engine: Any, order: Sequence[Any], rec: Optional[spans.Recorder],
             failures: List[str]) -> Tuple[Dict[Any, Checked], List[float],
                                           List[Tuple[spans.Span, str]]]:
    """Closed loop over ``order`` through ``engine``, one job at a time.

    Returns the checked results by job, the latencies of the jobs that
    returned, and (traced) each request's span.  Failures are appended to
    ``failures``.
    """
    results: Dict[Any, Checked] = {}
    latencies: List[float] = []
    requests: List[Tuple[spans.Span, str]] = []
    for job in order:
        label = job.describe()
        # Every request starts from the same collector state, so a full
        # collection of earlier garbage lands in no request's time.
        gc.collect()
        span = rec.span("bench.request") if rec is not None else nullcontext()
        started = time.perf_counter()
        try:
            with span as opened:
                (result,) = engine.run_flows([job])
        except Exception as exc:  # a failed compile is counted, not fatal
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - started)
        if opened is not None:
            requests.append((opened, label))
        problem = check_result(result)
        if problem:
            failures.append(f"{label}: {problem}")
        results[job] = Checked(result.fmax_mhz, result.result_digest(),
                               high_fanout_nets(result))
        # Freed here, not when the next request's result takes its name.
        del result
    return results, latencies, requests


# -- table1-cold ----------------------------------------------------------
def _characterize(args: Tuple[str, bool]) -> Tuple[str, float, Optional[Dict]]:
    """Engine task: the §4.1 characterization of one device, written to
    the cache directory the parent chose."""
    from repro.delay.cache import resolve_calibration
    from repro.flow import Flow

    device, trace = args
    started = time.perf_counter()
    _table, exported = _traced(
        trace, resolve_calibration, device, PLACEMENT_SEED, Flow.SMOOTH_PASSES
    )
    return device, time.perf_counter() - started, exported


class Table1Cold:
    name = "table1-cold"
    min_passes = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.book = DigestBook()

    def setup(self) -> List[float]:
        from repro.designs import build_design, design_names
        from repro.engine import Engine, FlowJob
        from repro.opt import BASELINE, FULL

        self.designs = {name: build_design(name) for name in design_names()}
        devices = sorted({d.device for d in self.designs.values()})
        self.calibration = self.ctx.cache_dir("calibration")
        started = time.perf_counter()
        done = Engine(jobs=self.ctx.nproc).map(
            _characterize, [(device, self.ctx.tracing) for device in devices]
        )
        setup_s = time.perf_counter() - started
        if self.ctx.recorder is not None:
            for _device, _elapsed, exported in done:
                self.ctx.recorder.absorb(exported, run=self.ctx.setup_run)
        # The jobs of repro.experiments.table1.run_table1.
        self.jobs = [
            FlowJob.make(name, config, tag=name)
            for name in self.designs
            for config in (BASELINE, FULL)
        ]
        return [setup_s]

    def one_pass(self, index: int, rng: random.Random,
                 rec: Optional[spans.Recorder]) -> PassResult:
        from repro.engine import Engine
        from repro.experiments.table1 import Table1Entry, average_gain

        cache = self.ctx.cache_dir(f"pass-{index}", calibration_from=self.calibration)
        failures: List[str] = []
        results, latencies, requests = run_jobs(Engine(jobs=1), self.jobs, rec, failures)
        for job, checked in results.items():
            self.book.compiled(job.describe(), checked.digest)
        # average_gain reads nothing but each entry's orig/opt fmax_mhz.
        entries = [
            Table1Entry(
                design=orig.design,
                broadcast_type=str(self.designs[orig.design].meta.get("broadcast_type", "?")),
                device=self.designs[orig.design].device,
                orig=results[orig],
                opt=results[opt],
            )
            for orig, opt in zip(self.jobs[::2], self.jobs[1::2])
            if orig in results and opt in results
        ]
        cache_mb = dir_mb(cache)
        shutil.rmtree(cache)
        return PassResult(
            wall_s=sum(latencies),
            latencies=latencies,
            attempted=len(self.jobs),
            delivered=len(results),
            failures=failures,
            fmax={job.describe(): c.fmax_mhz for job, c in results.items()},
            gain_pct=average_gain(entries) if entries else 0.0,
            cache_disk_mb=cache_mb,
            layers={"analysis.high_fanout_nets":
                    sum(c.high_fanout_nets for c in results.values())},
            requests=requests,
        )

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# -- sweep-warm -----------------------------------------------------------
def fig15_jobs() -> List[Any]:
    """The jobs of repro.experiments.fig15.run_fig15 at its default unrolls."""
    from repro.engine import FlowJob
    from repro.experiments.fig15 import run_fig15
    from repro.opt import BASELINE, DATA_ONLY

    unrolls = inspect.signature(run_fig15).parameters["unrolls"].default
    return [
        FlowJob.make("genome", config, tag=str(unroll), unroll=unroll)
        for unroll in unrolls
        for config in (BASELINE, DATA_ONLY)
    ]


def _sweep_cold_pass(nproc: int, trace: bool) -> Dict[str, Any]:
    """Set-up of sweep-warm, in a child process: the calibration Fig 15
    resolves, then one cold pass over the sweep."""
    from repro.delay.cache import resolve_calibration
    from repro.engine import Engine

    def cold() -> Dict[str, Any]:
        resolve_calibration("aws-f1", seed=PLACEMENT_SEED)
        jobs = fig15_jobs()
        results = Engine(jobs=nproc).run_flows(jobs)
        out: Dict[str, Any] = {"digests": {}, "failures": []}
        for job, result in zip(jobs, results):
            problem = check_result(result)
            if problem:
                out["failures"].append(f"{job.describe()} (cold): {problem}")
            out["digests"][job.describe()] = result.result_digest()
        return out

    out, exported = _traced(trace, cold)
    out["spans"] = exported
    return out


class SweepWarm:
    name = "sweep-warm"
    #: Fifty samples: the tail percentile is p75, and a pass is shorter
    #: than the window only on a fast machine, so nearly every run takes
    #: the same number of samples.
    min_passes = 5

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.book = DigestBook()

    def setup(self) -> List[float]:
        self.cache = self.ctx.cache_dir("sweep")
        self.jobs = fig15_jobs()
        started = time.perf_counter()
        cold = in_child(_sweep_cold_pass, self.ctx.nproc, self.ctx.tracing)
        setup_s = time.perf_counter() - started
        if self.ctx.recorder is not None and cold["spans"]:
            self.ctx.recorder.absorb(cold["spans"], run=self.ctx.setup_run)
        self.setup_failures = list(cold["failures"])
        for point, digest in cold["digests"].items():
            self.book.compiled(point, digest)
        return [setup_s]

    def one_pass(self, index: int, rng: random.Random,
                 rec: Optional[spans.Recorder]) -> PassResult:
        from repro.engine import Engine
        from repro.flow import Flow

        failures: List[str] = list(self.setup_failures) if index == 0 else []
        results, latencies, requests = run_jobs(
            Engine(jobs=1, flow=Flow()), shuffled_pairs(self.jobs, rng), rec, failures)
        for job, checked in results.items():
            self.book.served(job.describe(), checked.digest)
        pairs = [
            (results[orig].fmax_mhz, results[opt].fmax_mhz)
            for orig, opt in zip(self.jobs[::2], self.jobs[1::2])
            if orig in results and opt in results
        ]
        return PassResult(
            wall_s=sum(latencies),
            latencies=latencies,
            # The first pass also owns set-up's cold compiles and their checks.
            attempted=len(self.jobs) * (2 if index == 0 else 1),
            delivered=len(results),
            failures=failures,
            fmax={job.describe(): c.fmax_mhz for job, c in results.items()},
            gain_pct=mean_gain_pct(pairs) if pairs else 0.0,
            cache_disk_mb=dir_mb(self.cache),
            layers={"analysis.high_fanout_nets":
                    sum(c.high_fanout_nets for c in results.values())},
            requests=requests,
        )

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# -- service-mixed --------------------------------------------------------
def request_sequence(points: Sequence[Any], repeats: int, rng: random.Random) -> List[Tuple[Any, bool]]:
    """Every point once, in a seeded order, with ``repeats`` repeats of
    already-issued points mixed in: ``[(point, is_repeat), ...]``."""
    fresh = list(points)
    rng.shuffle(fresh)
    fresh.reverse()  # pop() from the end keeps the shuffled order
    issued: List[Any] = []
    sequence: List[Tuple[Any, bool]] = []
    left = repeats
    while fresh or left:
        repeat = bool(issued) and left > 0 and (
            not fresh or rng.random() < left / (left + len(fresh))
        )
        if repeat:
            sequence.append((rng.choice(issued), True))
            left -= 1
        else:
            point = fresh.pop()
            issued.append(point)
            sequence.append((point, False))
    return sequence


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, cache: str, workers: int, trace_dir: Optional[str] = None) -> None:
        from repro.service.client import ServiceClient

        self.port = free_port()
        cmd = [sys.executable, os.path.join(HERE, "daemon.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        cmd += ["serve", "--host", "127.0.0.1", "--port", str(self.port),
                "--workers", str(workers)]
        env = dict(os.environ, REPRO_CACHE_DIR=cache)
        self.log = open(os.path.join(cache, "daemon.log"), "wb")
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.client = ServiceClient("127.0.0.1", self.port, timeout=300, retries=0)

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while not self.client.ping():
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.02)

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    self.client.shutdown()
                except Exception:  # already going down; the wait below decides
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()


class ServiceMixed:
    name = "service-mixed"
    min_passes = 1

    #: Table 1's designs without lstm and vector_arith, whose 4-5 s cold
    #: compiles would make one pass longer than the benchmark's run-time
    #: budget allows; table1-cold measures them.
    SKIPPED_DESIGNS = ("lstm", "vector_arith")
    #: Configs that need no §4.1 characterization, which would cost every
    #: run 20-35 s of set-up; table1-cold measures the calibrated path.
    #: The first two give ``table1_gain_pct``.
    CONFIGS = ("orig", "ctrl", "skid", "skid_minarea")
    #: Three repeats per seven fresh points (30 %) keep the median request
    #: a compile.  At a half, the median would sit on the edge between a
    #: 3 ms store hit and a 0.3 s compile; above it, on store hits whose
    #: few milliseconds vary twofold with what else the daemon is doing.
    REPEATS_PER_FRESH = 3 / 7
    CLIENTS = 2

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.book = DigestBook()

    def setup(self) -> List[float]:
        from repro.designs import design_names

        # Each design at its own clock target: a second target would double
        # the compiles of a pass.
        self.points = [
            (design, config)
            for design in design_names()
            if design not in self.SKIPPED_DESIGNS
            for config in self.CONFIGS
        ]
        self.repeats = round(len(self.points) * self.REPEATS_PER_FRESH)
        times = []
        for i in range(5):
            cache = self.ctx.cache_dir(f"setup-{i}")
            started = time.perf_counter()
            daemon = Daemon(cache, self.ctx.nproc)
            try:
                daemon.wait_ready()
                times.append(time.perf_counter() - started)
            finally:
                daemon.stop()
        return times

    def one_pass(self, index: int, rng: random.Random,
                 rec: Optional[spans.Recorder]) -> PassResult:
        from repro.service.store import ResultStore

        cache = self.ctx.cache_dir(f"pass-{index}")
        trace_dir = None
        if rec is not None:
            trace_dir = os.path.join(self.ctx.run_dir, f"worker-spans-{index}")
            os.makedirs(trace_dir)
        sequence = request_sequence(self.points, self.repeats, rng)
        daemon = Daemon(cache, self.ctx.nproc, trace_dir)
        lock = threading.Lock()
        pending = iter(enumerate(sequence))
        done: List[Dict[str, Any]] = []
        try:
            daemon.wait_ready()
            pass_span = rec.span("bench.pass") if rec is not None else nullcontext()

            def client() -> None:
                from repro.service.client import ServiceClient

                conn = ServiceClient("127.0.0.1", daemon.port, timeout=300, retries=0)
                while True:
                    with lock:
                        item = next(pending, None)
                    if item is None:
                        return
                    i, ((design, config), _repeat) = item
                    span = (rec.span("bench.request", parent=opened)
                            if rec is not None else nullcontext())
                    started = time.perf_counter()
                    with span as req_span:
                        try:
                            record: Optional[Dict[str, Any]] = conn.submit(
                                design, config=config, wait=True)
                            error = None
                        except Exception as exc:  # refused or failed: counted
                            record, error = None, f"{type(exc).__name__}: {exc}"
                    latency = time.perf_counter() - started
                    with lock:
                        done.append({"i": i, "point": f"{design}[{config}]",
                                     "record": record, "error": error,
                                     "latency": latency, "span": req_span})

            started = time.perf_counter()
            with pass_span as opened:
                threads = [threading.Thread(target=client) for _ in range(self.CLIENTS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            wall = time.perf_counter() - started
            counters = daemon.client.status()["metrics"]["counters"]
        finally:
            daemon.stop()

        failures = [f"{len(sequence) - len(done)} requests never returned"] \
            if len(done) < len(sequence) else []
        ok = [d for d in sorted(done, key=lambda d: d["i"])
              if d["record"] is not None and d["record"].get("state") == "done"]
        failures += [f"{d['point']}: {d['error'] or d['record'].get('state')}"
                     for d in done if d not in ok]
        fmax: Dict[str, float] = {}
        layers = {"service.submit_s": 0.0, "service.queue_wait_s": 0.0,
                  "service.compile_s": 0.0, "service.coalesced": 0.0,
                  "analysis.high_fanout_nets": 0.0}
        store = ResultStore(root=os.path.join(cache, "results"))
        compiles = [d for d in ok if d["record"].get("submitted_as") == "queued"]
        for item in compiles:
            record = item["record"]
            layers["service.queue_wait_s"] += record["started_s"] - record["created_s"]
            layers["service.compile_s"] += record["finished_s"] - record["started_s"]
            layers["service.submit_s"] += max(
                0.0, item["latency"] - (record["finished_s"] - record["created_s"]))
            self.book.compiled(item["point"], record["result_digest"])
            result = store.load_result(record["digest"])
            problem = "result missing from store" if result is None else check_result(result)
            if problem:
                failures.append(f"{item['point']}: {problem}")
            else:
                fmax[item["point"]] = result.fmax_mhz
                layers["analysis.high_fanout_nets"] += high_fanout_nets(result)
            del result
            if rec is not None:
                for name in os.listdir(trace_dir):
                    if name.startswith(record["digest"]):
                        with open(os.path.join(trace_dir, name)) as handle:
                            rec.absorb(json.load(handle), parent=item["span"])
        # Repeats are checked once every first compile is on the books: a
        # coalesced repeat can return before the compile it joined.
        hits = 0
        for item in ok:
            how = item["record"].get("submitted_as")
            if how == "queued":
                continue
            self.book.served(item["point"], item["record"]["result_digest"])
            if how == "store":
                hits += 1
                layers["service.submit_s"] += item["latency"]
            else:
                layers["service.coalesced"] += 1
        orig, opt = self.CONFIGS[:2]
        gain_pairs = [
            (fmax[f"{design}[{orig}]"], fmax[f"{design}[{opt}]"])
            for design in sorted({design for design, _config in self.points})
            if f"{design}[{orig}]" in fmax and f"{design}[{opt}]" in fmax
        ]
        layers["service.store_hit_ratio"] = hits / len(sequence)
        layers["service.retries"] = float(counters.get("service.retries", 0))
        cache_mb = dir_mb(cache)
        shutil.rmtree(cache)
        return PassResult(
            wall_s=wall,
            latencies=[d["latency"] for d in ok],
            attempted=len(sequence),
            delivered=len(ok),
            failures=failures,
            fmax=fmax,
            gain_pct=mean_gain_pct(gain_pairs) if gain_pairs else 0.0,
            cache_disk_mb=cache_mb,
            layers=layers,
        )

    def peak_rss_mb(self) -> float:
        """The daemon and its workers (waited-for children of this process)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {cls.name: cls for cls in (Table1Cold, SweepWarm, ServiceMixed)}
