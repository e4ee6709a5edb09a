"""Staged pass pipeline: digests, the artifact store, and partial re-runs."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ReproError
from repro.flow import Flow
from repro.ir.program import Design
from repro.opt import BASELINE, FULL
from repro.pipeline import (
    MemoryStageStore,
    Stage,
    StageArtifactStore,
    build_stages,
    design_digest,
    encode_outputs,
    table_digest,
)
from repro.pipeline import stages as stages_mod

from conftest import make_mini_stream_design, make_synthetic_table


def _counter_values(tracer, skip_prefix="pipeline."):
    """Aggregated counters minus the pipeline bookkeeping ones."""
    return {
        name: counter.value
        for name, counter in tracer.aggregate_metrics().counters.items()
        if not name.startswith(skip_prefix)
    }


class TestDesignDigest:
    def test_stable_across_rebuilds(self):
        a = design_digest(make_mini_stream_design(depth=4096))
        b = design_digest(make_mini_stream_design(depth=4096))
        assert a == b

    def test_sensitive_to_parameters(self):
        a = design_digest(make_mini_stream_design(depth=4096))
        b = design_digest(make_mini_stream_design(depth=8192))
        assert a != b

    def test_sensitive_to_meta(self):
        design = make_mini_stream_design(depth=4096)
        before = design_digest(design)
        design.meta["clock_mhz"] = 123.0
        assert design_digest(design) != before

    def test_table_digest_tracks_content(self, synthetic_table):
        assert table_digest(synthetic_table) == table_digest(synthetic_table)
        # Same generator → same content digest regardless of instance.
        assert table_digest(make_synthetic_table()) == table_digest(
            synthetic_table
        )


class TestStageDigest:
    def test_chains_input_digests(self):
        stage = stages_mod.SyncPruningStage()
        a = stage.input_digest({"enabled": True}, {"lowered": "d1"})
        b = stage.input_digest({"enabled": True}, {"lowered": "d2"})
        c = stage.input_digest({"enabled": False}, {"lowered": "d1"})
        assert len({a, b, c}) == 3

    def test_missing_producer_is_loud(self):
        stage = stages_mod.SchedulingStage()
        with pytest.raises(ReproError, match="cal_table"):
            stage.input_digest({}, {"lowered": "d1"})

    def test_dag_is_closed(self):
        """Every stage's inputs are produced by an earlier stage (or are
        flow-level context keys)."""
        produced = {"design"}
        for stage in build_stages():
            for key in stage.inputs:
                assert key in produced, f"{stage.name} consumes unproduced {key}"
            produced.update(stage.outputs)


class TestStageArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = StageArtifactStore(root=str(tmp_path / "stages"))
        payload = encode_outputs("demo", {"x": [1, 2, 3]})
        store.put("d" * 8, payload, {"stage": "demo"})
        hit = store.get("d" * 8)
        assert hit is not None
        assert hit.stage == "demo"
        assert hit.load() == {"x": [1, 2, 3]}

    def test_miss_is_none(self, tmp_path):
        store = StageArtifactStore(root=str(tmp_path / "stages"))
        assert store.get("nope") is None

    def test_corrupt_sidecar_is_a_miss(self, tmp_path):
        root = tmp_path / "stages"
        store = StageArtifactStore(root=str(root))
        store.put("e" * 8, encode_outputs("demo", {}), {"stage": "demo"})
        (root / ("e" * 8 + ".json")).write_text("{not json")
        assert store.get("e" * 8) is None

    def test_lru_eviction(self, tmp_path):
        store = StageArtifactStore(root=str(tmp_path / "stages"), max_entries=2)
        import time as _time

        for i, digest in enumerate(("aa", "bb", "cc")):
            evicted = store.put(
                digest, encode_outputs("demo", {"i": i}), {"stage": "demo"}
            )
            _time.sleep(0.01)
        assert evicted == 1
        assert store.get("aa") is None  # oldest gone
        assert store.get("cc") is not None
        assert len(store) == 2

    def test_hit_survives_eviction_before_load(self, tmp_path):
        """A hit owns its payload: another process evicting the entry
        between ``get`` and the deferred ``load`` must not break it."""
        import time as _time

        store = StageArtifactStore(root=str(tmp_path / "stages"), max_entries=1)
        store.put("aa", encode_outputs("demo", {"x": [1]}), {"stage": "demo"})
        hit = store.get("aa")
        _time.sleep(0.01)
        store.put("bb", encode_outputs("demo", {"x": [2]}), {"stage": "demo"})
        assert store.get("aa") is None  # evicted under the hit
        assert hit.load() == {"x": [1]}

    def test_empty_store_is_truthy(self, tmp_path):
        assert bool(StageArtifactStore(root=str(tmp_path / "s")))
        assert bool(MemoryStageStore())

    def test_memory_store_hands_out_fresh_copies(self):
        store = MemoryStageStore()
        store.put("aa", encode_outputs("demo", {"x": [1]}), {"stage": "demo"})
        first = store.get("aa").load()
        second = store.get("aa").load()
        assert first == second
        assert first["x"] is not second["x"]


class TestPartialReexecution:
    def test_warm_run_skips_every_cacheable_stage(self, tmp_path, synthetic_table):
        store = StageArtifactStore(root=str(tmp_path / "stages"))
        flow = Flow(calibration=synthetic_table, stage_cache=store)
        cold = flow.run(make_mini_stream_design(depth=4096), FULL)
        # A fresh flow instance has no warm in-process state, so every hit
        # must come from disk.
        warm_flow = Flow(calibration=synthetic_table, stage_cache=store)
        warm = warm_flow.run(make_mini_stream_design(depth=4096), FULL)
        assert all(j["action"] == "run" for j in cold.journal)
        for entry in warm.journal:
            if entry["cacheable"]:
                assert entry["action"] == "skipped", entry
                assert entry["source"] == "disk"
            else:
                assert entry["action"] == "run"
        assert warm.fingerprint() == cold.fingerprint()
        assert warm.result_digest() == cold.result_digest()

    def test_warm_trace_replays_cold_counters(self, tmp_path, synthetic_table):
        store = StageArtifactStore(root=str(tmp_path / "stages"))
        flow = Flow(calibration=synthetic_table, stage_cache=store)
        with obs.activate(obs.Tracer()) as cold_tracer:
            flow.run(make_mini_stream_design(depth=4096), FULL)
        with obs.activate(obs.Tracer()) as warm_tracer:
            result = flow.run(make_mini_stream_design(depth=4096), FULL)
        assert _counter_values(warm_tracer) == _counter_values(cold_tracer)
        skipped = warm_tracer.aggregate_metrics().counters[
            "pipeline.stages_skipped"
        ]
        assert skipped.value == sum(1 for j in result.journal if j["cacheable"])
        # Replayed stage spans are flagged; their children carry the
        # original cost as an attribute.
        (sched,) = [
            s for s in warm_tracer.roots[0].children if s.name == "scheduling"
        ]
        assert sched.attrs["cached"] is True
        assert all("cached_duration_ms" in c.attrs for c in sched.children)

    def test_config_change_invalidates_only_downstream(
        self, tmp_path, synthetic_table
    ):
        store = StageArtifactStore(root=str(tmp_path / "stages"))
        flow = Flow(calibration=synthetic_table, stage_cache=store)
        flow.run(make_mini_stream_design(depth=4096), BASELINE)
        # FULL shares only the pragma front-end with BASELINE (sync-pruning
        # flips on); everything downstream must re-run.
        second = flow.run(make_mini_stream_design(depth=4096), FULL)
        by_stage = {j["stage"]: j["action"] for j in second.journal}
        assert by_stage["pragmas"] == "skipped"
        assert by_stage["scheduling"] == "run"
        assert by_stage["timing"] == "run"

    def test_design_change_invalidates_everything(self, tmp_path, synthetic_table):
        store = StageArtifactStore(root=str(tmp_path / "stages"))
        flow = Flow(calibration=synthetic_table, stage_cache=store)
        flow.run(make_mini_stream_design(depth=4096), FULL)
        second = flow.run(make_mini_stream_design(depth=8192), FULL)
        assert all(j["action"] == "run" for j in second.journal)

    def test_stage_cache_off_never_stores(self, tmp_path, synthetic_table):
        flow = Flow(calibration=synthetic_table, stage_cache=False)
        first = flow.run(make_mini_stream_design(depth=4096), FULL)
        second = flow.run(make_mini_stream_design(depth=4096), FULL)
        assert all(j["action"] == "run" for j in first.journal + second.journal)
        assert second.fingerprint() == first.fingerprint()


class TestCompareSharing:
    def test_compare_verifies_and_lowers_exactly_once(
        self, tmp_path, synthetic_table, monkeypatch
    ):
        calls = {"verify": 0, "apply_pragmas": 0}
        real_apply = stages_mod.apply_pragmas

        def counting_apply(design):
            calls["apply_pragmas"] += 1
            return real_apply(design)

        monkeypatch.setattr(stages_mod, "apply_pragmas", counting_apply)
        # Count verification of *this* design (builders and pragma
        # lowering verify their own intermediate designs too).
        design = make_mini_stream_design(depth=4096)
        real_verify = design.verify

        def counting_verify():
            calls["verify"] += 1
            return real_verify()

        design.verify = counting_verify
        store = StageArtifactStore(root=str(tmp_path / "stages"))
        flow = Flow(calibration=synthetic_table, stage_cache=store)
        orig, opt = flow.compare(design)
        assert calls == {"verify": 1, "apply_pragmas": 1}
        assert orig.config_label == BASELINE.label
        assert opt.config_label == FULL.label

    def test_compare_matches_uncached_fingerprints(self, tmp_path, synthetic_table):
        store = StageArtifactStore(root=str(tmp_path / "stages"))
        cached = Flow(calibration=synthetic_table, stage_cache=store)
        plain = Flow(calibration=synthetic_table, stage_cache=False)
        with obs.activate(obs.Tracer()) as tracer:
            c_orig, c_opt = cached.compare(make_mini_stream_design(depth=4096))
        p_orig, p_opt = plain.compare(make_mini_stream_design(depth=4096))
        assert c_orig.fingerprint() == p_orig.fingerprint()
        assert c_opt.fingerprint() == p_opt.fingerprint()
        counters = tracer.aggregate_metrics().counters
        assert counters["pipeline.stages_skipped"].value > 0

    def test_compare_shares_frontend_without_disk(self, synthetic_table):
        """The in-process overlay alone (cold private disk store) is enough
        for the second run to reuse the shared front-end."""
        flow = Flow(calibration=synthetic_table, stage_cache=True)
        with obs.activate(obs.Tracer()):
            orig, opt = flow.compare(make_mini_stream_design(depth=2048))
        by_stage = {j["stage"]: j for j in opt.journal}
        assert by_stage["pragmas"]["action"] == "skipped"


class TestCalibrationMemo:
    def test_resolution_happens_once_per_flow(self, monkeypatch, synthetic_table):
        calls = []

        def fake_resolve(device, seed=2020, smooth_passes=1, path=None):
            calls.append((device, seed, smooth_passes, path))
            return synthetic_table, "built"

        monkeypatch.setattr("repro.flow.resolve_calibration", fake_resolve)
        flow = Flow(stage_cache=False)
        flow.run(make_mini_stream_design(depth=2048), FULL)
        flow.run(make_mini_stream_design(depth=4096), FULL)
        assert len(calls) == 1

    def test_memo_reports_original_source(self, monkeypatch, synthetic_table):
        monkeypatch.setattr(
            "repro.flow.resolve_calibration",
            lambda device, seed=2020, smooth_passes=1, path=None: (
                synthetic_table,
                "built",
            ),
        )
        flow = Flow(stage_cache=False)
        with obs.activate(obs.Tracer()) as tracer:
            flow.run(make_mini_stream_design(depth=2048), FULL)
            flow.run(make_mini_stream_design(depth=2048), FULL)
        sources = [
            span.attrs["source"]
            for root in tracer.roots
            for span in root.children
            if span.name == "calibration"
        ]
        assert sources == ["built", "built"]


class TestSweepSharing:
    def test_inline_sweep_skips_shared_stages(self, tmp_path, synthetic_table):
        from repro.experiments.sweep import sweep

        store = StageArtifactStore(root=str(tmp_path / "stages"))
        flow = Flow(calibration=synthetic_table, stage_cache=store)
        with obs.activate(obs.Tracer()) as tracer:
            result = sweep(
                make_mini_stream_design,
                "depth",
                [2048, 4096],
                configs={"orig": BASELINE, "full": FULL},
                flow=flow,
            )
        counters = tracer.aggregate_metrics().counters
        assert counters["pipeline.stages_skipped"].value > 0
        plain = sweep(
            make_mini_stream_design,
            "depth",
            [2048, 4096],
            configs={"orig": BASELINE, "full": FULL},
            flow=Flow(calibration=synthetic_table, stage_cache=False),
        )
        for cached_row, plain_row in zip(result.rows, plain.rows):
            for label in cached_row.results:
                assert (
                    cached_row.results[label].fingerprint()
                    == plain_row.results[label].fingerprint()
                )
