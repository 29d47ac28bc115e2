"""Tests for the benchmark's own arithmetic: self time and the tail percentile.

    python3 -m pytest perfbench
"""

import pytest

from spans import Tracer, covered_ns, nearest_rank, percentile, summarize, tail_percentile


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(2, 4), (3, 6)], 0, 10) == 4  # overlap counted once
    assert covered_ns([(2, 4), (4, 6)], 0, 10) == 4  # touching intervals
    assert covered_ns([(1, 9), (2, 3)], 0, 10) == 8  # one inside another
    assert covered_ns([(-5, 2), (8, 20)], 0, 10) == 4  # clipped at both ends
    assert covered_ns([(12, 15)], 0, 10) == 0  # entirely outside


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, -1),
        ("child", 10, 40, 0),
        ("grandchild", 15, 35, 1),
        ("child", 50, 70, 0),
    ]
    out = summarize(spans)
    assert out["root"] == [1, 100, 100 - 30 - 20]
    assert out["child"] == [2, 50, 50 - 20]
    assert out["grandchild"] == [1, 20, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 60, 0),
        ("b", 40, 80, 0),  # overlaps a by 20
        ("c", 90, 120, 0),  # runs past the parent's end
    ]
    assert summarize(spans)["root"] == [1, 100, 100 - 70 - 10]


def test_tracer_records_nesting_and_returns_results():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(start <= end for _, start, end, _ in tracer.spans)


def test_tracer_closes_the_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.run("boom", boom)
    tracer.run("after", lambda: None)
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("boom", -1), ("after", -1)]


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # p50 would leave 9 beyond it
        (20, "50"),
        (99, "50"),  # p90 leaves 9
        (100, "90"),
        (999, "90"),  # p99 leaves 9
        (1000, "99"),
        (9999, "99"),
        (10_000, "99.9"),
        (100_000, "99.99"),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert nearest_rank(100, "50") == 50
    assert percentile(values, "50") == 50
    assert percentile(values, "99") == 99
    assert percentile([7], "99.9") == 7
