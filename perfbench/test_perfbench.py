"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import random

import pytest

import spans
import stats
from workloads import request_sequence


# -- percentile with sample count ---------------------------------------------
def test_tail_needs_more_than_ten_samples():
    assert stats.tail_percentile(10) is None
    # 11 samples: only the smallest has ten beyond it.
    assert stats.tail_percentile(11) == pytest.approx(100 / 11)


def test_tail_takes_highest_ladder_rung_with_ten_beyond():
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(99) == 75.0  # p90 would leave 9 beyond
    assert stats.tail_percentile(100) == 90.0  # p95 would leave 5 beyond
    assert stats.tail_percentile(1000) == 99.0  # p99.9 leaves 1, p99 leaves 10


def test_tail_below_twenty_samples_uses_exact_rank():
    # 18 samples: the 8th smallest leaves exactly ten above it.
    assert stats.tail_percentile(18) == pytest.approx(100 * 8 / 18)


def test_harrell_davis_estimates_quantiles():
    values = list(range(1, 100))
    assert stats.harrell_davis(values, 50.0) == pytest.approx(50.0, abs=1e-6)
    assert stats.harrell_davis(values, 75.0) == pytest.approx(75.0, abs=0.5)
    assert stats.harrell_davis([4.0] * 18, 44.4) == pytest.approx(4.0)
    assert stats.harrell_davis(reversed(values), 50.0) == pytest.approx(50.0, abs=1e-6)
    # One outlier moves the estimate a little, not to the outlier.
    assert 50.0 < stats.harrell_davis(values[:-1] + [1e4], 50.0) < 51.0


def test_harrell_davis_is_smooth_where_order_statistics_jump():
    # Two neighbours around the median swap places: the nearest-rank median
    # (the 8th of 16) jumps by the whole gap, the estimate hardly moves.
    base = [0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5, 0.6, 1.0, 1.5, 2.0, 4.0, 6.0, 8.0]
    before = sorted(base + [0.55, 0.9])
    after = sorted(base + [0.95, 0.52])
    jump = abs(after[7] - before[7])
    drift = abs(stats.harrell_davis(after, 50.0) - stats.harrell_davis(before, 50.0))
    assert drift < jump / 3


# -- self time over nested spans ---------------------------------------------
def span(i, parent, start, end, name="x.y"):
    return spans.Span(i, parent, name, start, end, "run", 1)


def test_self_time_subtracts_nested_children():
    tree = [
        span(1, None, 0.0, 10.0, "bench.request"),
        span(2, 1, 1.0, 4.0, "physical.place"),
        span(3, 2, 2.0, 3.0, "physical.sta"),
        span(4, 1, 5.0, 9.0, "pipeline.store_put"),
        span(5, 4, 6.0, 7.0, "pipeline.store_evict"),
    ]
    own = spans.self_times(tree)
    assert own == {1: pytest.approx(3.0), 2: pytest.approx(2.0), 3: pytest.approx(1.0),
                   4: pytest.approx(3.0), 5: pytest.approx(1.0)}
    # Self times partition the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)
    assert spans.self_time_by_name(tree) == {
        "bench.request": pytest.approx(3.0), "physical.place": pytest.approx(2.0),
        "physical.sta": pytest.approx(1.0), "pipeline.store_put": pytest.approx(3.0),
        "pipeline.store_evict": pytest.approx(1.0)}


def test_self_time_counts_overlapping_children_once():
    # Children from two worker processes overlap in time.
    tree = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 6.0), span(3, 1, 4.0, 8.0),
            span(4, 1, 9.0, 12.0)]  # the last one runs past its parent's end
    assert spans.self_times(tree)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_nests_spans_and_absorbs_other_processes():
    rec = spans.Recorder("r")
    with rec.span("bench.request") as root:
        with rec.span("rtl.generate") as inner:
            pass
    assert inner.parent == root.id and root.parent is None
    other = spans.Recorder("w")
    with other.span("physical.place"):
        with other.span("physical.sta"):
            pass
    rec.absorb(other.export(), parent=root)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["physical.place"].parent == root.id
    assert by_name["physical.sta"].parent == by_name["physical.place"].id
    assert len({s.id for s in rec.spans}) == len(rec.spans)


# -- digest-mismatch counting -------------------------------------------------
def test_digest_book_counts_served_mismatches():
    book = stats.DigestBook()
    assert book.compiled("genome[orig]", "aaa")
    assert book.served("genome[orig]", "aaa")
    assert not book.served("genome[orig]", "bbb")
    assert book.served("genome[orig]", "aaa")
    assert (book.checked, book.mismatch_count) == (3, 1)
    assert book.mismatches == [("genome[orig]", "aaa", "bbb")]


def test_digest_book_flags_unreferenced_and_recompile_drift():
    book = stats.DigestBook()
    assert not book.served("lstm[full]", "ccc")
    assert (book.unreferenced, book.mismatch_count) == (1, 0)
    book.compiled("lstm[full]", "ccc")
    assert not book.compiled("lstm[full]", "ddd")  # a later compile disagrees
    assert book.mismatch_count == 1


# -- service request mix ------------------------------------------------------
def test_request_sequence_is_seeded_and_repeats_only_issued_points():
    points = [f"p{i}" for i in range(18)]
    seq = request_sequence(points, 36, random.Random(7))
    assert seq == request_sequence(points, 36, random.Random(7))
    assert sorted(p for p, repeat in seq if not repeat) == sorted(points)
    assert sum(repeat for _, repeat in seq) == 36
    seen = set()
    for point, repeat in seq:
        assert repeat == (point in seen)
        seen.add(point)
