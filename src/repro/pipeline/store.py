"""The stage artifact store: ``$REPRO_CACHE_DIR/stages/``.

Content-addressed persistence for individual pipeline stages, one level
below the whole-flow :class:`~repro.service.store.ResultStore`.  Every
entry is the bundled outputs of one stage execution, keyed by the stage's
input digest (see :mod:`repro.pipeline.digest`).  Two files per entry:

* ``<digest>.pkl`` — the pickled output bundle (e.g. scheduling stores
  ``{lowered, schedules, schedule_edits}`` *together* so object identity
  between a schedule entry and the DFG operation it points at survives a
  round trip);
* ``<digest>.json`` — a metadata sidecar holding the stage name plus the
  observability snapshot (span attrs, counters, raw histogram samples,
  child spans) replayed when the stage is skipped.

Atomic writes, locking and LRU eviction are the shared store's (see
:mod:`repro.store`); this module owns only the entry format.

:class:`MemoryStageStore` is the in-process overlay :meth:`Flow.compare
<repro.flow.Flow.compare>` shares between its two runs: same interface,
but entries live as pickled bytes in a :class:`~repro.store.MemoryLru`.
Hits still unpickle fresh copies — downstream stages mutate their inputs
in place, so handing out a shared live object would let one run corrupt
another's artifacts.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.store import MemoryLru, SidecarStore, namespace_dir

#: Version tag of the on-disk stage entry layout.  ``/2``: netlists
#: pickle as columns (see :mod:`repro.rtl.netlist`), so a ``/1`` payload
#: cannot be decoded and its entry reads as a miss.
STAGE_STORE_SCHEMA = "repro-stage-store/2"

#: Default LRU bound.  Stage bundles are smaller than whole-flow results
#: and a full run writes ~10 of them, so the bound is set to cover several
#: sweeps' worth of distinct stage points.
DEFAULT_MAX_ENTRIES = 512


def encode_outputs(stage: str, outputs: Dict[str, Any]) -> bytes:
    """Pickle one stage's output bundle (deep DFG graphs need headroom)."""
    # Imported lazily: engine.pool imports repro.flow, which imports this
    # package — a module-level import here would close the cycle.
    from repro.engine.pool import ensure_pickle_depth

    ensure_pickle_depth()
    return pickle.dumps(
        {"schema": STAGE_STORE_SCHEMA, "stage": stage, "outputs": outputs},
        protocol=4,
    )


def decode_outputs(data: bytes) -> Dict[str, Any]:
    """Unpickle a bundle written by :func:`encode_outputs`."""
    from repro.engine.pool import ensure_pickle_depth

    ensure_pickle_depth()
    payload = pickle.loads(data)
    if payload.get("schema") != STAGE_STORE_SCHEMA:
        raise ReproError(
            f"stage-store entry has schema {payload.get('schema')!r}, "
            f"expected {STAGE_STORE_SCHEMA!r}"
        )
    return payload["outputs"]


@dataclass
class StoredStage:
    """One store hit: sidecar metadata plus the payload bytes read at
    lookup time, so a later eviction cannot break :meth:`load`."""

    digest: str
    meta: Dict[str, Any]
    data: bytes

    @property
    def stage(self) -> str:
        return self.meta.get("stage", "")

    def load(self) -> Dict[str, Any]:
        """Unpickle the output bundle — always a fresh object graph."""
        return decode_outputs(self.data)


class MemoryStageStore:
    """In-process stage store: the overlay ``Flow.compare`` and sweeps can
    share across runs without touching disk.

    ``max_entries`` bounds the store LRU-style (a hit refreshes recency);
    ``None`` means unbounded, which is fine for a single compare or sweep
    but not for an overlay kept alive across many runs.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._entries = MemoryLru(max_entries)

    def get(self, digest: str) -> Optional[StoredStage]:
        return self._entries.get(digest)

    def put(self, digest: str, payload: bytes, meta: Dict[str, Any]) -> None:
        self._entries.put(digest, StoredStage(digest, dict(meta), payload))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return True


class StageArtifactStore(SidecarStore):
    """Bounded, content-addressed on-disk cache of stage artifacts.

    Picklable (plain attributes), so a :class:`~repro.flow.Flow` carrying
    one ships cleanly to engine worker processes — every worker then
    shares the same artifact directory.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        super().__init__(root or namespace_dir("stages"), max_entries)

    def get(self, digest: str) -> Optional[StoredStage]:
        """Look up ``digest``; a hit refreshes the entry's LRU recency.

        An entry written under another :data:`STAGE_STORE_SCHEMA` is a
        miss: its payload is never unpickled, and the stage re-runs and
        overwrites it.
        """
        entry = self.read_entry(digest)
        if entry is None or entry[0].get("schema") != STAGE_STORE_SCHEMA:
            return None
        return StoredStage(digest, *entry)

    def put(self, digest: str, payload: bytes, meta: Dict[str, Any]) -> int:
        """Store one entry atomically, then evict down to ``max_entries``.

        ``payload`` comes pre-pickled (see :func:`encode_outputs`) so the
        same bytes can feed a memory overlay without re-pickling.  Returns
        the number of entries evicted.
        """
        meta = dict(meta)
        meta.setdefault("schema", STAGE_STORE_SCHEMA)
        meta["digest"] = digest
        meta["created_s"] = time.time()
        meta["payload_bytes"] = len(payload)
        self.write_entry(digest, payload, meta, evict=False)
        return self.evict()

    # Defined here, not only inherited, so tools that wrap this class's
    # own methods (perfbench/spans.py) time the eviction as its own span.
    def evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``."""
        return super().evict()
