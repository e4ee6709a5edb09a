"""Content-addressed result store: ``$REPRO_CACHE_DIR/results/``.

Every entry is one finished flow compilation, keyed by the
:meth:`~repro.service.request.FlowRequest.digest` of the request that
produced it.  Two files per entry:

* ``<digest>.pkl`` — the pickled payload (request encoding, summary, and
  the full :class:`~repro.flow.FlowResult`);
* ``<digest>.json`` — a small metadata sidecar (design, config, Fmax,
  result digest, sizes) readable without unpickling, used for listings and
  the daemon's status endpoint.

Atomic writes, the writer/evictor lock and LRU eviction are the shared
store's (see :mod:`repro.store`); this module owns only the entry format.
Writes of the same digest are idempotent by construction: the flow is
deterministic, so last-writer-wins replaces equal bytes with equal bytes.
The store is bounded (``max_entries``); a successful :meth:`ResultStore.get`
refreshes the entry's recency, and :meth:`ResultStore.put` evicts the
least-recently-used entries beyond the bound.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.engine.pool import ensure_pickle_depth
from repro.errors import ReproError
from repro.flow import FlowResult
from repro.service.request import FlowRequest
from repro.store import SidecarStore, namespace_dir

#: Version tag of the on-disk entry layout.  ``/2``: the netlist inside a
#: ``FlowResult`` pickles as columns, so a ``/1`` entry reads as a miss.
STORE_SCHEMA = "repro-result-store/2"

#: Default LRU bound.  A FlowResult pickle runs tens of KB to a few MB
#: depending on design depth; 256 entries keeps the store well under a GB
#: while covering every design × config × seed point a realistic sweep hits.
DEFAULT_MAX_ENTRIES = 256


@dataclass
class StoredResult:
    """One store hit: the sidecar metadata plus the payload bytes read at
    lookup time (decoded only by :meth:`load`)."""

    digest: str
    meta: Dict[str, Any]
    data: bytes

    @property
    def result_digest(self) -> str:
        return self.meta.get("result_digest", "")

    @property
    def summary(self) -> Dict[str, Any]:
        return self.meta.get("summary", {})

    def load(self) -> FlowResult:
        """Unpickle the full :class:`FlowResult` (the expensive half)."""
        ensure_pickle_depth()
        payload = pickle.loads(self.data)
        if payload.get("schema") != STORE_SCHEMA:
            raise ReproError(
                f"result-store entry {self.digest!r} has schema "
                f"{payload.get('schema')!r}, expected {STORE_SCHEMA!r}"
            )
        return payload["result"]


class ResultStore(SidecarStore):
    """Bounded, content-addressed cache of finished flow compilations."""

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        super().__init__(root or namespace_dir("results"), max_entries)

    def get(self, digest: str) -> Optional[StoredResult]:
        """Look up ``digest``; a hit refreshes the entry's LRU recency.

        An entry written under another :data:`STORE_SCHEMA` is a miss: its
        payload is never unpickled, and the next compile overwrites it.
        """
        entry = self.read_entry(digest)
        if entry is None or entry[0].get("schema") != STORE_SCHEMA:
            return None
        return StoredResult(digest, *entry)

    def load_result(self, digest: str) -> Optional[FlowResult]:
        """Convenience: ``get`` + ``load`` in one call."""
        hit = self.get(digest)
        return hit.load() if hit is not None else None

    def put(self, request: FlowRequest, result: FlowResult) -> StoredResult:
        """Store ``result`` under ``request``'s digest (atomic), then evict
        down to ``max_entries``.  Returns the stored entry; the eviction
        count is available on ``entry.meta["evicted"]`` for observability.
        """
        digest = request.digest()
        meta = {
            "schema": STORE_SCHEMA,
            "digest": digest,
            "result_digest": result.result_digest(),
            "request": request.to_dict(),
            "summary": {
                "design": result.design,
                "config": result.config_label,
                "clock_target_mhz": result.clock_target_mhz,
                "fmax_mhz": result.fmax_mhz,
                "period_ns": result.period_ns,
                "critical_path_class": result.timing.path_class.value,
            },
            "created_s": time.time(),
        }
        ensure_pickle_depth()
        payload = {"schema": STORE_SCHEMA, "meta": meta, "result": result}
        blob = pickle.dumps(payload, protocol=4)
        meta["payload_bytes"] = len(blob)
        meta["evicted"] = self.write_entry(digest, blob, meta)
        return StoredResult(digest, meta, blob)
