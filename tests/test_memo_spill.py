"""Memo spill: incremental warm state survives worker recycling.

The per-``Flow`` scheduling/RTL/placement memos write-through to
``$REPRO_CACHE_DIR/memos`` (:class:`repro.pipeline.incremental.MemoSpill`),
so a *fresh* process warms up from a previous owner's entries.  The
headline test models the service failure this exists for: a worker
compiles a request (spilling its memos), is SIGKILLed before it can
report, and the daemon's retry — a brand-new worker process — must
reproduce the digest *with* ``incremental.*_spill_hits`` from the dead
worker's on-disk entries.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import time

import pytest

from repro.designs import build_design
from repro.flow import Flow
from repro.opt import BASELINE
from repro.pipeline.incremental import MemoSpill, SPILL_SCHEMA, _LruMemo
from repro.service.daemon import FlowService
from repro.service.request import FlowRequest
from repro.service.store import ResultStore
from repro.service.worker import execute_request, worker_entry

#: Env vars parameterizing the module-level worker entry (must survive
#: both ``fork`` and ``spawn`` start methods — see test_service_daemon).
GATE_ENV = "REPRO_TEST_SPILL_GATE"
MARKER_ENV = "REPRO_TEST_SPILL_MARKER"


def _compile_then_stall_entry(request_dict, store_root, conn):
    """First attempt (gate present): compile for real — which spills the
    memos to disk — touch the marker, then idle so the test can SIGKILL
    a worker that did the work but never delivered it.  Later attempts
    (gate gone) run the real worker.

    The first attempt compiles with the stage cache off, so it leaves no
    stage checkpoints: the successor re-runs every stage, and any
    incremental hit it reports can only come from this attempt's spill."""
    gate = os.environ.get(GATE_ENV)
    if gate and os.path.exists(gate):
        clean = dict(request_dict)
        clean.pop("_telemetry", None)
        request = FlowRequest.from_dict(clean)
        # execute_request's flow, minus the stage cache.
        flow = Flow(
            clock_mhz=request.clock_mhz,
            seed=request.seed,
            calibration_path=request.calibration_path,
            stage_cache=False,
        )
        flow.SMOOTH_PASSES = request.smooth_passes
        flow.run(
            build_design(request.design, **request.param_dict),
            request.config,
            plan=request.transform_plan(),
        )
        marker = os.environ.get(MARKER_ENV)
        if marker:
            with open(marker, "w") as handle:
                handle.write(str(os.getpid()))
        deadline = time.time() + 60
        while os.path.exists(gate) and time.time() < deadline:
            time.sleep(0.02)
        os._exit(9)  # never report, even if the gate vanishes
    worker_entry(request_dict, store_root, conn)


class TestMemoSpillUnit:
    def test_save_load_roundtrip(self, tmp_path):
        spill = MemoSpill(root=str(tmp_path / "memos"))
        key = ("loop-digest", 3.5, True)
        spill.save("sched", key, {"decisions": [1, 2, 3]})
        assert spill.load("sched", key) == {"decisions": [1, 2, 3]}
        # A different memo namespace does not alias the same key.
        assert spill.load("rtl", key) is None
        assert spill.saves == 1 and spill.loads == 1

    def test_non_jsonable_key_stays_memory_only(self, tmp_path):
        spill = MemoSpill(root=str(tmp_path / "memos"))
        key = (object(),)  # canonical JSON cannot digest this
        spill.save("sched", key, "value")
        assert not os.path.exists(spill.root) or not os.listdir(spill.root)
        assert spill.load("sched", key) is None

    def test_unpicklable_value_is_skipped(self, tmp_path):
        spill = MemoSpill(root=str(tmp_path / "memos"))
        spill.save("sched", ("k",), lambda: None)  # not picklable
        assert spill.errors == 1
        assert spill.load("sched", ("k",)) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        spill = MemoSpill(root=str(tmp_path / "memos"))
        spill.save("sched", ("k",), "good")
        (path,) = (
            os.path.join(spill.root, name)
            for name in os.listdir(spill.root)
            if name.endswith(".pkl")
        )
        with open(path, "wb") as handle:
            handle.write(b"\x80garbage")
        assert spill.load("sched", ("k",)) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        spill = MemoSpill(root=str(tmp_path / "memos"))
        spill.save("sched", ("k",), "good")
        (path,) = (
            os.path.join(spill.root, name)
            for name in os.listdir(spill.root)
            if name.endswith(".pkl")
        )
        with open(path, "wb") as handle:
            pickle.dump({"schema": "other/9", "memo": "sched", "value": "x"}, handle)
        assert spill.load("sched", ("k",)) is None
        assert SPILL_SCHEMA == "repro-memo-spill/1"

    def test_prune_evicts_oldest_beyond_bound(self, tmp_path):
        spill = MemoSpill(root=str(tmp_path / "memos"), max_entries=3)
        for index in range(5):
            spill.save("sched", (f"key-{index}",), index)
            path = spill._path("sched", spill._key_digest("sched", (f"key-{index}",)))
            os.utime(path, (index, index))  # deterministic mtime order
        assert spill.prune() == 2
        survivors = {
            index for index in range(5)
            if spill.load("sched", (f"key-{index}",)) is not None
        }
        assert survivors == {2, 3, 4}

    def test_load_refreshes_lru_clock(self, tmp_path):
        spill = MemoSpill(root=str(tmp_path / "memos"), max_entries=1)
        spill.save("sched", ("old",), 1)
        old_path = spill._path("sched", spill._key_digest("sched", ("old",)))
        os.utime(old_path, (1, 1))
        assert spill.load("sched", ("old",)) == 1  # refreshes mtime to now
        spill.save("sched", ("new",), 2)
        new_path = spill._path("sched", spill._key_digest("sched", ("new",)))
        os.utime(new_path, (2, 2))  # now the oldest
        spill.prune()
        assert spill.load("sched", ("old",)) == 1
        assert spill.load("sched", ("new",)) is None

    def test_memo_consults_spill_on_memory_miss(self, tmp_path):
        spill = MemoSpill(root=str(tmp_path / "memos"))
        producer = _LruMemo("sched", 16, spill=spill)
        producer.put(("k",), "v")
        successor = _LruMemo("sched", 16, spill=spill)  # fresh memory
        assert successor.get(("k",)) == "v"
        assert successor.spill_hits == 1 and successor.hits == 1
        assert successor.get(("k",)) == "v"  # second get: memory, not disk
        assert successor.spill_hits == 1 and successor.hits == 2


class TestFlowWarmsFromSpill:
    def test_fresh_flow_replays_spilled_memos(self, tmp_path, monkeypatch):
        """A second ``Flow`` instance (fresh memory) must hit the first
        instance's spilled entries and reproduce its fingerprint."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reference = Flow(seed=2020, stage_cache=False).run(
            build_design("vector_arith"), BASELINE
        )
        successor = Flow(seed=2020, stage_cache=False)
        warm = successor.run(build_design("vector_arith"), BASELINE)
        assert warm.fingerprint() == reference.fingerprint()
        stats = successor._incremental_state().stats()
        assert stats["sched"]["spill_hits"] > 0
        assert stats["rtl"]["spill_hits"] > 0
        assert stats["place"]["spill_hits"] > 0
        assert stats["sched"]["misses"] == 0


class TestWorkerRecycling:
    def test_sigkilled_worker_spill_warms_successor(self, tmp_path, monkeypatch):
        """The satellite's acceptance test: SIGKILL a worker after it
        compiled (and spilled) but before it reported; the daemon's
        retry on a brand-new worker process must report
        ``incremental.*_spill_hits > 0`` and the reference digest."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        gate = tmp_path / "gate"
        gate.write_text("hold\n")
        marker = tmp_path / "compiled-marker"
        monkeypatch.setenv(GATE_ENV, str(gate))
        monkeypatch.setenv(MARKER_ENV, str(marker))
        request = FlowRequest.make("vector_arith", config="orig")
        # Reference from a separate cache dir, so it spills nothing here.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "reference-cache"))
        reference_digest = execute_request(request).result_digest()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        async def scenario():
            service = FlowService(
                store=ResultStore(str(tmp_path / "results")),
                quarantine_dir=str(tmp_path / "quarantine"),
                workers=1,
                max_attempts=3,
                backoff_s=0.01,
                backoff_cap_s=0.05,
                entry=_compile_then_stall_entry,
            )
            await service.start()
            try:
                job, how = service.submit(request)
                assert how == "queued"
                deadline = time.time() + 120
                while not marker.exists() and time.time() < deadline:
                    await asyncio.sleep(0.02)
                assert marker.exists(), "first worker never finished compiling"
                memo_dir = tmp_path / "cache" / "memos"
                assert memo_dir.is_dir() and list(memo_dir.iterdir()), (
                    "the doomed worker should have spilled its memos"
                )
                os.kill(job.worker_pid, signal.SIGKILL)
                gate.unlink()  # successor attempts run the real worker
                await service.wait(job, timeout=180)
                assert job.state == "done"
                assert job.attempts == 2
                assert job.result_digest == reference_digest
                assert service.counter("service.crashes") == 1
                # The successor's counters are the only ones grafted (the
                # corpse never delivered its tracer):
                assert service.counter("incremental.sched_spill_hits") > 0
                assert service.counter("incremental.sched_hits") > 0
                assert service.counter("incremental.rtl_spill_hits") > 0
                assert service.counter("incremental.place_spill_hits") > 0
            finally:
                await service.stop()

        asyncio.run(scenario())
