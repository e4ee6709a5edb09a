"""The on-disk memo namespace (``$REPRO_CACHE_DIR/memos``).

No flow code reads or writes it any more: the only reuse rule left is the
stage store's (a stage is skipped when its input digest hits
``$REPRO_CACHE_DIR/stages``).  :class:`MemoSpill` stays because the
benchmark's span hooks (``perfbench/spans.py``) wrap its methods by name.
"""

from __future__ import annotations

import pickle
from typing import Any, Hashable, Optional

from repro.hashing import content_digest
from repro.store import BlobStore, namespace_dir

#: On-disk payload format marker (checked on load; a mismatch is a miss).
SPILL_SCHEMA = "repro-memo-spill/1"


# Kept only because perfbench/spans.py wraps load/save/prune by name.
class MemoSpill(BlobStore):
    """A bounded namespace of pickled memo entries.

    One namespace of pickle files, each holding a single memo entry named
    ``<memo>-<sha256(key)>.pkl``.  Keys are canonical-JSON content
    digests (the same recipe as the flow service), so every process —
    and every *future* process — derives identical file names for
    identical memo keys without coordination.

    Robustness over completeness: a key that cannot be canonicalized or a
    value that cannot be pickled is silently skipped (that entry stays
    memory-only), a torn/corrupt file is a miss, and all filesystem
    errors degrade to cache-off behavior.  The namespace is bounded by
    the store's LRU: loads refresh recency, and every :data:`PRUNE_EVERY`
    saves the oldest entries beyond ``max_entries`` are deleted.
    """

    PRUNE_EVERY = 64

    def __init__(
        self, root: Optional[str] = None, max_entries: int = 4096
    ) -> None:
        super().__init__(root or namespace_dir("memos"), (".pkl",), max_entries)
        self.saves = 0
        self.loads = 0
        self.errors = 0

    def _path(self, name: str, key_digest: str) -> str:
        return self.path(f"{name}-{key_digest}")

    def _key_digest(self, name: str, key: Hashable) -> Optional[str]:
        try:
            return content_digest(
                {"schema": SPILL_SCHEMA, "memo": name, "key": key}
            )
        except (TypeError, ValueError):
            return None  # non-JSONable key: memory-only entry

    def load(self, name: str, key: Hashable) -> Optional[Any]:
        """The spilled value for ``(name, key)``, or ``None`` on a miss."""
        key_digest = self._key_digest(name, key)
        blobs = None if key_digest is None else self.read(f"{name}-{key_digest}")
        if blobs is None:
            return None
        try:
            payload = pickle.loads(blobs[0])
        except (pickle.UnpicklingError, EOFError, ValueError, TypeError,
                AttributeError, ImportError, IndexError):
            return None  # torn/corrupt/foreign file: a miss, not an error
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != SPILL_SCHEMA
            or payload.get("memo") != name
        ):
            return None
        self.loads += 1
        return payload.get("value")

    def save(self, name: str, key: Hashable, value: Any) -> None:
        """Write-through ``(name, key) → value``; best-effort."""
        key_digest = self._key_digest(name, key)
        if key_digest is None:
            return
        try:
            blob = pickle.dumps(
                {"schema": SPILL_SCHEMA, "memo": name, "value": value},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except (TypeError, AttributeError, pickle.PicklingError):
            self.errors += 1
            return  # unpicklable value: memory-only entry
        try:
            self.write(f"{name}-{key_digest}", (blob,), evict=False)
        except OSError:
            self.errors += 1
            return
        self.saves += 1
        if self.saves % self.PRUNE_EVERY == 0:
            self.prune()

    def prune(self) -> int:
        """Delete the oldest entries beyond ``max_entries``; returns the
        number removed."""
        return self.evict()
