"""Store concurrency: evict() racing put()/get() across processes.

The store's contract under concurrency (DESIGN.md, repro/store.py), for
every disk namespace — stages, memos, results and traces:

* a reader can never observe a torn payload (atomic temp+rename writes);
* an evictor can never delete the entry a concurrent put just (re)wrote
  (writers and evictors serialize on ``<namespace>/.lock``, and eviction
  re-checks each victim's mtime against its directory-scan snapshot);
* at rest, every sidecar has its payload (payload-first/sidecar-last).

The hammer spawns real processes — a writer re-putting a hot key amid
filler churn, an evictor spinning ``evict()``, readers validating every
byte they get — against one shared namespace small enough that eviction
runs constantly.  Worker functions are module-level so they survive both
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import time

import pytest

from repro.pipeline.incremental import SPILL_SCHEMA, MemoSpill
from repro.pipeline.store import StageArtifactStore, decode_outputs, encode_outputs
from repro.service.request import FlowRequest
from repro.service.store import STORE_SCHEMA, ResultStore
from repro.service.traces import TraceStore
from repro.service.worker import execute_request

#: Small enough that the filler churn keeps eviction busy every put.
MAX_ENTRIES = 4
FILLER_SEEDS = tuple(range(3000, 3008))
HAMMER_SECONDS = 4.0
NAMESPACES = ("stages", "memos", "results", "traces")
#: Big enough that a torn read of a synthetic payload is likely to show.
BLOB = "x" * 65536


def _filler_request(seed: int) -> FlowRequest:
    return FlowRequest.make("vector_arith", config="orig", seed=seed)


def _hot_request() -> FlowRequest:
    return FlowRequest.make("vector_arith", config="orig", seed=2020)


class _TinyTraceStore(TraceStore):
    MAX_ENTRIES = MAX_ENTRIES


class _Namespace:
    """One namespace under test: its store, how to write an entry, and
    how to read one back raw (so a torn payload raises instead of reading
    as a miss)."""

    def __init__(self, name, root, result_path=None):
        self.name = name
        if name == "results":
            self.store = ResultStore(root, max_entries=MAX_ENTRIES)
            self.result = None
            if result_path is not None:
                with open(result_path, "rb") as handle:
                    self.result = pickle.load(handle)
        elif name == "stages":
            self.store = StageArtifactStore(root, max_entries=MAX_ENTRIES)
        elif name == "memos":
            self.store = MemoSpill(root, max_entries=MAX_ENTRIES)
            self.store.PRUNE_EVERY = 1  # evict on every save, like put()
        else:
            self.store = _TinyTraceStore(root)

    @staticmethod
    def label(which):
        return "hot" if which is None else f"filler-{which}"

    def key(self, which):
        """The key an entry is stored under."""
        if self.name == "results":
            request = _hot_request() if which is None else _filler_request(which)
            return request.digest()
        digest = hashlib.sha256(self.label(which).encode()).hexdigest()
        return f"sched-{digest}" if self.name == "memos" else digest

    def put(self, which):
        """Write the entry; returns its identity token."""
        label = self.label(which)
        if self.name == "results":
            request = _hot_request() if which is None else _filler_request(which)
            return self.store.put(request, self.result).result_digest
        if self.name == "stages":
            payload = encode_outputs("demo", {"label": label, "blob": BLOB})
            self.store.put(self.key(which), payload, {"stage": "demo"})
        elif self.name == "memos":
            self.store.save("sched", (label,), {"label": label, "blob": BLOB})
        else:
            self.store.put(self.key(which), {"label": label, "blob": BLOB})
        return label

    def get(self, which):
        """The stored entry's identity token through the public API, or None."""
        label = self.label(which)
        if self.name == "results":
            hit = self.store.get(self.key(which))
            return None if hit is None else hit.result_digest
        if self.name == "stages":
            hit = self.store.get(self.key(which))
            return None if hit is None else hit.load()["label"]
        if self.name == "memos":
            value = self.store.load("sched", (label,))
            return None if value is None else value["label"]
        document = self.store.get(self.key(which))
        return None if document is None else document["label"]

    def check_raw(self, which):
        """Read the entry's bytes and decode them strictly.  Returns an
        error string, or None for a valid entry or a miss."""
        key = self.key(which)
        blobs = self.store.read(key)
        if blobs is None:
            return None  # a miss (evicted, or not written yet) is always legal
        try:
            if self.name == "results":
                document = pickle.loads(blobs[0])
                if document.get("schema") != STORE_SCHEMA:
                    return f"bad schema for {key[:12]}: {document.get('schema')!r}"
                if document.get("meta", {}).get("digest") != key:
                    return f"payload/digest mismatch for {key[:12]}"
                return None
            if self.name == "stages":
                value = decode_outputs(blobs[0])
            elif self.name == "memos":
                document = pickle.loads(blobs[0])
                if document.get("schema") != SPILL_SCHEMA:
                    return f"bad schema for {key[:12]}"
                value = document["value"]
            else:
                value = json.loads(blobs[0])
        except Exception as exc:  # noqa: BLE001 - torn payload
            return f"torn payload for {key[:12]}: {type(exc).__name__}: {exc}"
        if value.get("label") != self.label(which) or value.get("blob") != BLOB:
            return f"payload/key mismatch for {key[:12]}"
        return None


def _writer_loop(name, root, result_path, errors_path, deadline):
    """put() the hot key amid filler churn; the hot entry must be a valid
    hit immediately after every one of its puts — an evictor working from
    a stale scan is exactly what would break this.

    The filler burst between hot puts ages the hot entry all the way to
    LRU-eligibility, so a concurrent evictor regularly *decides* to
    delete it off a scan taken just before the re-put — the widest
    possible stale-decision window."""
    namespace = _Namespace(name, root, result_path)
    errors = []
    index = 0
    while time.time() < deadline:
        for seed in FILLER_SEEDS:
            namespace.put(seed)
        identity = namespace.put(None)
        hit = namespace.get(None)
        if hit is None:
            errors.append(f"hot digest missing immediately after put #{index}")
        elif hit != identity:
            errors.append(f"hot digest changed identity after put #{index}")
        index += 1
    with open(errors_path, "w") as handle:
        handle.write("\n".join(errors))


def _evictor_loop(name, root, errors_path, deadline):
    """Spin evict() as fast as possible — the adversary."""
    namespace = _Namespace(name, root)
    errors = []
    while time.time() < deadline:
        try:
            namespace.store.evict()
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            errors.append(f"evict raised {type(exc).__name__}: {exc}")
            break
    with open(errors_path, "w") as handle:
        handle.write("\n".join(errors))


def _reader_loop(name, root, errors_path, deadline):
    """Read everything, constantly; every payload that comes back must
    decode to a schema-valid document for its key."""
    namespace = _Namespace(name, root)
    keys = (None,) + FILLER_SEEDS
    errors = []
    index = 0
    while time.time() < deadline:
        problem = namespace.check_raw(keys[index % len(keys)])
        index += 1
        if problem:
            errors.append(problem)
    with open(errors_path, "w") as handle:
        handle.write("\n".join(errors))


@pytest.fixture(scope="module")
def result_path(tmp_path_factory):
    """One real FlowResult, pickled for the results namespace's writer."""
    path = tmp_path_factory.mktemp("hammer") / "result.pkl"
    with open(path, "wb") as handle:
        pickle.dump(execute_request(_hot_request()), handle, protocol=4)
    return str(path)


class TestStoreConcurrency:
    @pytest.mark.parametrize("name", NAMESPACES)
    def test_evict_racing_put_and_get_is_safe(self, tmp_path, name, result_path):
        root = str(tmp_path / "store")
        deadline = time.time() + HAMMER_SECONDS
        specs = [
            (_writer_loop, (name, root, result_path)),
            (_evictor_loop, (name, root)),
            (_reader_loop, (name, root)),
            (_reader_loop, (name, root)),
        ]
        processes = []
        error_paths = []
        for index, (target, args) in enumerate(specs):
            errors_path = str(tmp_path / f"errors-{index}.txt")
            error_paths.append(errors_path)
            process = multiprocessing.Process(
                target=target, args=args + (errors_path, deadline)
            )
            process.start()
            processes.append(process)
        for process in processes:
            process.join(timeout=HAMMER_SECONDS + 180)
            assert not process.is_alive(), "hammer worker wedged"
            assert process.exitcode == 0

        failures = []
        for errors_path in error_paths:
            with open(errors_path) as handle:
                text = handle.read().strip()
            if text:
                failures.append(text)
        assert not failures, "\n".join(failures)

        # At-rest consistency: no orphan sidecars, bound respected.
        store = _Namespace(name, root).store
        names = os.listdir(root)
        for entry in names:
            if entry.endswith(".json") and ".pkl" in store.suffixes:
                assert entry[: -len(".json")] + ".pkl" in names, (
                    f"orphan sidecar {entry}"
                )
        assert len(store) <= MAX_ENTRIES + 1  # the writer's last put pair
        store.evict()
        assert len(store) <= MAX_ENTRIES

    def test_stale_scan_cannot_delete_rewritten_entry(self, tmp_path, monkeypatch):
        """Deterministic version of the race the hammer can only make
        probable: an evictor that *decided* off an old directory scan
        must re-check mtimes and spare an entry a put rewrote since."""
        result = execute_request(_hot_request())
        root = str(tmp_path / "store")
        # Writer bound is one larger so its own put-time eviction never
        # removes the hot entry; the tighter-bounded evictor still sees
        # one entry of excess — the hot entry, its stale LRU victim.
        writer = ResultStore(root, max_entries=MAX_ENTRIES + 1)
        hot_entry = writer.put(_hot_request(), result)
        for seed in FILLER_SEEDS[:MAX_ENTRIES]:
            writer.put(_filler_request(seed), result)
        # The hot entry is now the LRU victim in this (soon stale) scan.
        evictor = ResultStore(root, max_entries=MAX_ENTRIES)
        stale_scan = evictor.scan()
        assert stale_scan[0][1] == hot_entry.digest
        time.sleep(0.01)  # ensure the rewrite lands a distinct mtime
        writer.put(_hot_request(), result)  # concurrent rewrite
        monkeypatch.setattr(evictor, "scan", lambda *listing: stale_scan)
        evictor.evict()
        hit = writer.get(hot_entry.digest)
        assert hit is not None, "evictor deleted a just-rewritten entry"
        assert hit.result_digest == hot_entry.result_digest

    def test_no_temp_droppings_survive(self, tmp_path):
        """Atomic writes must not leak .tmp files on the happy path."""
        result = execute_request(_hot_request())
        store = ResultStore(str(tmp_path / "store"), max_entries=2)
        for seed in FILLER_SEEDS[:4]:
            store.put(_filler_request(seed), result)
        leftovers = [
            name for name in os.listdir(store.root) if name.endswith(".tmp")
        ]
        assert leftovers == []
