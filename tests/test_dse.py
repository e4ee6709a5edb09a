"""Tests for the design-space explorer (repro.dse)."""

import pytest

from repro.dse import (
    BACKEND_NAMES,
    DsePoint,
    EngineBackend,
    InlineBackend,
    PointSignals,
    explore,
    make_backend,
    point_signals,
)
from repro.errors import ReproError
from repro.flow import Flow
from repro.ir.transforms import EMPTY_PLAN
from repro.opt import CONFIG_LABELS, FULL

from conftest import make_synthetic_table

GENOME_PARAMS = {"unroll": 16}


def small_backend(seed=2020):
    return InlineBackend(flow=Flow(seed=seed, calibration=make_synthetic_table()))


@pytest.fixture(scope="module")
def report():
    return explore(
        "genome",
        params=GENOME_PARAMS,
        backend=small_backend(),
        budget=12,
        seed=2020,
        max_generations=3,
    )


class TestPoints:
    def test_digest_stable(self):
        a = DsePoint.make(FULL, plan=[["unroll", {"loop": "dp", "factor": 4}]])
        b = DsePoint.make(FULL, plan=[["unroll", {"loop": "dp", "factor": 4}]])
        assert a == b
        assert a.digest() == b.digest()

    def test_digest_separates_axes(self):
        base = DsePoint.make(FULL)
        assert base.digest() != DsePoint.make(CONFIG_LABELS["orig"]).digest()
        assert base.digest() != DsePoint.make(FULL, clock_mhz=400).digest()
        assert (
            base.digest()
            != DsePoint.make(
                FULL, plan=[["unroll", {"loop": "dp", "factor": 4}]]
            ).digest()
        )

    def test_config_label_roundtrip(self):
        for label, config in CONFIG_LABELS.items():
            assert DsePoint.make(config).config_label == label

    def test_spec_is_jsonable(self):
        import json

        point = DsePoint.make(
            FULL, plan=[["unroll", {"loop": "dp", "factor": 4}]], clock_mhz=400
        )
        spec = json.loads(json.dumps(point.spec()))
        rebuilt = DsePoint.make(
            type(FULL).from_json(spec["config"]),
            plan=spec["plan"],
            clock_mhz=spec["clock_mhz"],
        )
        assert rebuilt.digest() == point.digest()

    def test_signals_dominate(self):
        small = PointSignals("a", ops=10, max_fanout=4)
        big = PointSignals("b", ops=20, max_fanout=8)
        wide = PointSignals("c", ops=10, max_fanout=16)
        assert small.dominates(big)
        assert not big.dominates(small)
        assert not wide.dominates(small)
        assert small.dominates(wide)

    def test_point_signals_of_empty_plan(self):
        from repro.designs import build_design

        design = build_design("genome", **GENOME_PARAMS)
        sig = point_signals(design, EMPTY_PLAN)
        assert sig.ops > 0
        assert sig.max_fanout >= 1
        assert len(sig.lowered_digest) == 64


class TestBackends:
    def test_make_backend_names(self):
        for name in BACKEND_NAMES:
            assert make_backend(name).name == name

    def test_make_backend_passthrough(self):
        backend = small_backend()
        assert make_backend(backend) is backend

    @pytest.mark.parametrize("name", ("fpga", "cluster"))
    def test_make_backend_unknown(self, name):
        with pytest.raises(ReproError) as excinfo:
            make_backend(name)
        assert "valid backends: inline, engine, service" in str(excinfo.value)

    def test_failure_is_data_not_abort(self):
        backend = small_backend()
        bad = DsePoint.make(
            FULL, plan=[["unroll", {"loop": "no_such_loop", "factor": 2}]]
        )
        good = DsePoint.make(FULL)
        outcomes = backend.evaluate("genome", GENOME_PARAMS, 2020, [bad, good])
        assert not outcomes[0].ok
        assert "no_such_loop" in outcomes[0].error
        assert outcomes[1].ok
        assert outcomes[1].fmax_mhz > 0


class TestExplore:
    def test_generation_zero_covers_named_configs(self, report):
        gen0 = [e for e in report.evaluations if e.generation == 0]
        assert {e.point.config_label for e in gen0} == set(CONFIG_LABELS)
        assert all(e.point.plan == () for e in gen0)

    def test_winner_at_least_hand_tuned_full(self, report):
        full = next(
            e
            for e in report.evaluations
            if e.generation == 0 and e.point.config_label == "full"
        )
        assert report.winner is not None
        assert report.winner.fmax_mhz >= full.fmax_mhz

    def test_budget_respected(self, report):
        assert report.compiled <= report.budget

    def test_coalescing_keeps_compiles_below_enumerated(self, report):
        assert report.enumerated > report.compiled
        assert report.deduplicated + report.coalesced + report.pruned > 0

    def test_counter_arithmetic(self, report):
        # Every enumerated point is exactly one of: duplicate, coalesced,
        # pruned, compiled, or failed-before-compile.
        admission_failures = sum(
            1
            for e in report.evaluations
            if e.status == "failed" and e.signals is None
        )
        assert (
            report.deduplicated
            + report.coalesced
            + report.pruned
            + report.compiled
            + admission_failures
            == report.enumerated
        )

    def test_deterministic_reports(self):
        kwargs = dict(
            params=GENOME_PARAMS, budget=10, seed=2020, max_generations=2
        )
        a = explore("genome", backend=small_backend(), **kwargs)
        b = explore("genome", backend=small_backend(), **kwargs)
        assert a.winner.digest == b.winner.digest
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_search(self):
        a = explore(
            "genome",
            params=GENOME_PARAMS,
            backend=small_backend(),
            budget=10,
            seed=2020,
            max_generations=2,
        )
        b = explore(
            "genome",
            params=GENOME_PARAMS,
            backend=small_backend(seed=2021),
            budget=10,
            seed=2021,
            max_generations=2,
        )
        digests = lambda rep: [e.digest for e in rep.evaluations]  # noqa: E731
        assert digests(a) != digests(b)

    def test_report_roundtrips_to_json(self, report):
        import json

        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["winner"]["digest"] == report.winner.digest
        assert doc["counters"]["compiled"] == report.compiled

    def test_engine_backend_matches_inline(self, report):
        engine = explore(
            "genome",
            params=GENOME_PARAMS,
            backend=EngineBackend(
                jobs=1, flow=Flow(seed=2020, calibration=make_synthetic_table())
            ),
            budget=12,
            seed=2020,
            max_generations=3,
        )
        assert engine.winner.digest == report.winner.digest
        assert engine.winner.fmax_mhz == pytest.approx(report.winner.fmax_mhz)


class TestServiceBacked:
    def test_explore_through_thread_service(self, tmp_path):
        from repro.dse.backends import ServiceBackend
        from repro.service import ResultStore, ServiceClient, serve_in_thread

        with serve_in_thread(
            store=ResultStore(str(tmp_path / "results")),
            quarantine_dir=str(tmp_path / "quarantine"),
            workers=2,
            queue_limit=32,
        ) as server:
            client = ServiceClient(server.host, server.port)
            client.wait_ready()
            report = explore(
                "genome",
                params=GENOME_PARAMS,
                backend=ServiceBackend(client),
                budget=6,
                seed=2020,
                max_generations=0,
            )
        assert report.compiled == 6
        assert report.winner is not None
        assert report.winner.fmax_mhz > 0
