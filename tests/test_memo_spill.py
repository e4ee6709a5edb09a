"""Memo spill: the on-disk ``memos/`` namespace's own contract.

No flow code writes the namespace any more; :class:`MemoSpill` stays
because ``perfbench/spans.py`` wraps its ``load``/``save``/``prune`` by
name, so its round trip, miss handling and LRU bound are still checked.
"""

from __future__ import annotations

import os
import pickle

from repro.pipeline.incremental import MemoSpill, SPILL_SCHEMA


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
