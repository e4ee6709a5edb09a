"""Hot-path profile over a broadcast-factor sweep, recorded for posterity.

Runs the genome design at several unroll factors — the broadcast-width
axis of the source paper — with the stage cache off (profiling measures
where *this run's* wall clock goes; replayed or skipped stages would read
as free), profiles the span trees, and records the ``repro-profile/1``
document under the ``profile`` key of ``BENCH_flow.json``.

Asserted: the profiler finds NO super-linear stage over the sweep.  The
O(n²) refinement loop inside placement — the hot spot ROADMAP item 3
wanted surfaced, and which this bench originally asserted *existed* — was
flattened to linear (cached worst-neighbor corner costs with lazy
invalidation plus search-box fail guards), so this assertion now guards
against the regression re-appearing.  Each factor is measured min-of-N on
a fresh cold flow to keep scheduler/allocator noise out of the fit.
"""

from __future__ import annotations

import gc

from repro import obs
from repro.designs import build_design
from repro.flow import Flow
from repro.opt import FULL
from repro.testing import synthetic_calibration

DESIGN = "genome"
PARAM = "unroll"
#: Broadcast factors swept (unroll=1 exercises a different RTL shape;
#: 2..8 is the regime the paper's figures cover).  The intermediate 6
#: keeps every path's fit at three-plus points even after the profiler
#: censors its sub-floor small-factor readings — a two-point fit is one
#: noisy ratio and swings ±0.4 in slope.
FACTORS = (2, 4, 6, 8)
TOP_K = 12
#: Rounds over the factor list; per-path minimum self-times are kept.
#: Repeats are interleaved round-robin across factors (not batched per
#: factor) with a collection boundary per run: this bench shares its
#: pytest session with the rest of the suite, so spans see collector
#: pauses for other benches' garbage and slow machine phases (frequency
#: scaling, cache pressure) that drift over the session.  Pauses only
#: ever *add* time, so the per-factor minimum across rounds is the
#: honest reading — and interleaving makes any drift hit every factor
#: equally instead of systematically inflating whichever factors run
#: last, which reads as a fake super-linear slope.
REPEAT = 5


def _measure():
    reports = []
    for _rep in range(REPEAT):
        for factor in FACTORS:
            gc.collect()
            tracer = obs.Tracer()
            flow = Flow(calibration=synthetic_calibration(), stage_cache=False)
            with obs.activate(tracer):
                flow.run(build_design(DESIGN, **{PARAM: factor}), FULL)
            reports.append((float(factor), obs.run_report(tracer)))
    return reports


def test_profile_finds_no_superlinear_stage(bench_extras, record):
    reports = _measure()

    document = obs.profile_reports(reports, top=TOP_K, repeat_reduce="min")
    document["design"] = DESIGN
    document["param"] = PARAM
    bench_extras["profile"] = document

    record(
        "profile_hotspots",
        f"{DESIGN} ({PARAM} sweep, config=full)\n"
        + obs.render_profile(document),
    )

    assert document["hotspots"], "profiler produced no hot paths"
    # Self-time shares are a partition of the total.
    assert abs(sum(s["share"] for s in document["hotspots"][:TOP_K]) - 1.0) < 0.2
    superlinear = document.get("superlinear_paths") or []
    assert not superlinear, (
        "super-linear scaling regressed in: "
        + ", ".join(superlinear)
        + " — placement refinement (and every other stage) is expected to "
        "scale linearly with broadcast width"
    )
