"""The content-addressed store behind every cache in ``repro``.

Everything the reproduction persists lives under one root,
:func:`default_cache_dir` (``$REPRO_CACHE_DIR``), split into namespaces:

=================  ====================================  ==============
namespace          files per entry                       LRU bound
=================  ====================================  ==============
``stages/``        ``<digest>.pkl`` + ``<digest>.json``  512
``results/``       ``<digest>.pkl`` + ``<digest>.json``  256 (settable)
``traces/``        ``<digest>.json``                     256
(root)             ``calibration-v1-<device>-...json``   none
``quarantine/``    ``<digest>.json``                     none
=================  ====================================  ==============

A :class:`BlobStore` is one namespace directory.  The typed views
(:class:`~repro.pipeline.store.StageArtifactStore`,
:class:`~repro.service.store.ResultStore`,
:class:`~repro.service.traces.TraceStore`, the calibration helpers in
:mod:`repro.delay.cache`) own only their file formats; the mechanics are
here, once:

* **Atomic writes** — :func:`atomic_write` writes a temp file in the
  target directory and ``os.replace``-s it into place, so a reader never
  sees a torn file.  An entry's files are written in ``suffixes`` order;
  the last one *commits* the entry (a reader that sees it knows the
  others were complete) and carries the entry's LRU clock (its mtime).
* **One lock discipline** — writers and evictors take an ``flock`` on
  ``<namespace>/.lock``; reads take no lock.  Eviction decides from one
  ``os.scandir`` of commit-file names and mtimes, then re-checks each
  victim's mtime right before unlinking it, so an entry a reader touched
  since the scan is spared.  Compute-once callers (the calibration build)
  lock ``<namespace>/.<name>.lock`` instead, so builds of different keys
  run in parallel.  Without ``fcntl`` every lock degrades to a no-op with
  one warning per process.
* **Misses, never errors** — a missing, half-evicted or unreadable entry
  reads as a miss.  A hit returns the entry's bytes, read at lookup time,
  so an eviction after the lookup cannot break a deferred decode.

:class:`MemoryLru` is the in-memory counterpart: the bounded map behind
the stage overlay and the calibration memo.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
import warnings
from collections import OrderedDict
from contextlib import AbstractContextManager
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError

try:  # POSIX advisory locks; elsewhere every lock is a no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Environment variable naming the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Granularity of the LRU clock: a read re-stamps an entry only when its
#: stamp is older than this.
REFRESH_NS = 1_000_000_000

#: Whether the lockless-fallback warning has fired yet (once per process).
_LOCKLESS_WARNED = False


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def namespace_dir(name: str) -> str:
    """``<default_cache_dir()>/<name>``."""
    return os.path.join(default_cache_dir(), name)


def _stamp(path: str) -> None:
    """Set ``path``'s mtime from the fine-grained clock.  The kernel stamps
    files from a coarse clock (milliseconds), which would tie entries
    written in a burst and blind the eviction re-check to a rewrite."""
    now = time.time_ns()
    os.utime(path, ns=(now, now))


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        _stamp(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _warn_lockless_once() -> None:
    """The store still works without ``fcntl`` (atomic renames keep
    readers consistent); what is lost is writer/evictor exclusion and
    build-once economy.  Worth saying once, not on every lock."""
    global _LOCKLESS_WARNED
    if _LOCKLESS_WARNED:
        return
    _LOCKLESS_WARNED = True
    warnings.warn(
        "fcntl is unavailable on this platform; the repro cache falls back "
        "to lockless best-effort mode (concurrent cold processes may each "
        "re-characterize, and eviction may race writers)",
        RuntimeWarning,
        stacklevel=4,
    )


@contextlib.contextmanager
def file_lock(path: str) -> Iterator[None]:
    """Exclusive advisory ``flock`` on ``path`` (created if missing).

    ``flock`` belongs to the open file description, so a fresh handle per
    acquisition works from any process or thread.  Acquisitions must not
    nest on one lock file: the second handle would wait for the first.
    """
    if fcntl is None:
        _warn_lockless_once()
        yield
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "ab") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def key_lock(path: str) -> "AbstractContextManager[None]":
    """Compute-once lock for the file at ``path``: ``<dir>/.<name>.lock``."""
    directory, name = os.path.split(os.path.abspath(path))
    return file_lock(os.path.join(directory, f".{name}.lock"))


class BlobStore:
    """One namespace: a directory of entries named ``<key><suffix>``.

    ``suffixes`` lists an entry's files in write order; the last one is the
    commit file.  ``max_entries`` bounds the namespace LRU-style (``None``:
    unbounded).  Instances hold only plain attributes, so they pickle.
    """

    def __init__(
        self,
        root: str,
        suffixes: Sequence[str] = (".pkl",),
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ReproError(f"max_entries must be >= 1, got {max_entries}")
        self.root = root
        self.suffixes = tuple(suffixes)
        self.max_entries = max_entries

    def path(self, key: str, suffix: Optional[str] = None) -> str:
        """The file of ``key`` with ``suffix`` (default: the commit file)."""
        return os.path.join(
            self.root, key + (self.suffixes[-1] if suffix is None else suffix)
        )

    def lock(self) -> "AbstractContextManager[None]":
        """The namespace's writer/evictor lock."""
        return file_lock(os.path.join(self.root, ".lock"))

    # -- read side -------------------------------------------------------
    def read(self, key: str) -> Optional[List[bytes]]:
        """Every file of ``key`` in ``suffixes`` order, or ``None``.

        The commit file is read first: once it is visible the other files
        were complete.  A hit refreshes the entry's LRU clock, at most once
        per :data:`REFRESH_NS` (recency finer than that buys nothing, and a
        burst of reads must not make a just-written entry look old).
        """
        try:
            with open(self.path(key), "rb") as handle:
                stamped = os.fstat(handle.fileno()).st_mtime_ns
                blobs = [handle.read()]
            for suffix in reversed(self.suffixes[:-1]):
                with open(self.path(key, suffix), "rb") as handle:
                    blobs.append(handle.read())
        except OSError:  # never written, or evicted under us
            return None
        if time.time_ns() - stamped > REFRESH_NS:
            with contextlib.suppress(OSError):
                _stamp(self.path(key))
        blobs.reverse()
        return blobs

    def _listing(self) -> List["os.DirEntry[str]"]:
        """One ``os.scandir`` of the namespace: its commit files."""
        commit = self.suffixes[-1]
        try:
            with os.scandir(self.root) as listing:
                return [
                    e for e in listing
                    if e.name.endswith(commit) and not e.name.startswith(".")
                ]
        except OSError:
            return []

    def scan(
        self, listing: Optional[List["os.DirEntry[str]"]] = None
    ) -> List[Tuple[int, str]]:
        """``(mtime_ns, key)`` of every committed entry, least recent first."""
        cut = len(self.suffixes[-1])
        records = []
        for entry in self._listing() if listing is None else listing:
            try:
                mtime = entry.stat().st_mtime_ns
            except OSError:
                continue  # evicted since the listing
            records.append((mtime, entry.name[:-cut]))
        records.sort()
        return records

    def __len__(self) -> int:
        return len(self._listing())

    def __bool__(self) -> bool:
        # An empty store must stay truthy: ``store or default`` would
        # silently swap in the default root.
        return True

    # -- write side ------------------------------------------------------
    def write(self, key: str, blobs: Sequence[bytes], evict: bool = True) -> int:
        """Write one entry (one blob per suffix) under the namespace lock,
        then, with ``evict``, evict down to ``max_entries``.  Returns the
        number of entries evicted."""
        with self.lock():
            for suffix, data in zip(self.suffixes, blobs):
                atomic_write(self.path(key, suffix), data)
            return self._evict_locked() if evict else 0

    def evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``."""
        if self.max_entries is None:
            return 0
        with self.lock():
            return self._evict_locked()

    def _evict_locked(self) -> int:
        if self.max_entries is None:
            return 0
        listing = self._listing()
        if len(listing) <= self.max_entries:
            return 0  # the common case: no stat calls at all
        records = self.scan(listing)
        evicted = 0
        for mtime, key in records[: len(records) - self.max_entries]:
            commit = self.path(key)
            try:
                if os.stat(commit).st_mtime_ns != mtime:
                    continue  # read or rewritten since the scan
            except OSError:
                continue  # already gone
            # Commit file last, mirroring the write order: a crash midway
            # leaves a visible entry that reads as a miss and is evicted
            # again later, never an invisible orphan.
            for suffix in self.suffixes:
                with contextlib.suppress(OSError):
                    os.unlink(self.path(key, suffix))
            evicted += 1
        return evicted


class SidecarStore(BlobStore):
    """Entries of a pickled payload plus a JSON metadata sidecar:
    ``<key>.pkl`` then ``<key>.json`` (the commit file).  The sidecar is
    readable without unpickling anything."""

    def __init__(self, root: str, max_entries: Optional[int] = None) -> None:
        super().__init__(root, (".pkl", ".json"), max_entries)

    def _payload_path(self, key: str) -> str:
        return self.path(key, ".pkl")

    def _meta_path(self, key: str) -> str:
        return self.path(key, ".json")

    def read_entry(self, key: str) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """``(meta, payload bytes)`` of ``key``, or ``None``."""
        blobs = self.read(key)
        if blobs is None:
            return None
        payload, sidecar = blobs
        try:
            meta = json.loads(sidecar)
        except ValueError:
            return None
        return (meta, payload) if isinstance(meta, dict) else None

    def write_entry(
        self, key: str, payload: bytes, meta: Dict[str, Any], evict: bool = True
    ) -> int:
        sidecar = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        return self.write(key, (payload, sidecar.encode()), evict=evict)

    def entries(self) -> List[Dict[str, Any]]:
        """Every sidecar record (plus ``_mtime``), least recent first."""
        records = []
        for mtime, key in self.scan():
            try:
                with open(self._meta_path(key)) as handle:
                    meta = json.load(handle)
            except (OSError, ValueError):
                continue
            meta["_mtime"] = mtime / 1e9
            records.append(meta)
        return records


class MemoryLru:
    """A bounded in-memory map; ``get`` refreshes recency, ``put`` evicts
    the least recently used entries beyond ``max_entries`` (``None``:
    unbounded).  ``None`` values read as misses.  Not thread-safe."""

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ReproError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
