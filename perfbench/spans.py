"""Spans recorded by the benchmark's own wrappers, and the arithmetic over them.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the index
of the enclosing span in the same list, or -1.  Spans stay in memory while a
round runs; the benchmark folds each round into per-name totals and writes the
raw spans out once, when it ends.  Nothing here reaches into ``src/``: spans
come only from wrapping the public functions the benchmark calls.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from time import perf_counter_ns

# Percentiles a tail metric may report, lowest first.
PERCENTILE_LADDER = ("50", "90", "99", "99.9", "99.99", "99.999")
MIN_SAMPLES_BEYOND = 10


class Tracer:
    """In-memory span recorder for one single-threaded round."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` with a span named ``name`` around every call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children get later indices
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` once inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict[str, list[int]]:
    """Per span name: ``[calls, total_ns, self_ns]``.

    Self time is a span's duration minus the part of it that its direct
    children cover; overlapping children count once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list[int]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0, 0])
        duration = end - start
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered_ns(children.get(index, ()), start, end)
    return out


def tail_percentile(n: int) -> str | None:
    """The highest ladder percentile with at least ten samples beyond it, if any."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - nearest_rank(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def nearest_rank(n: int, p: str) -> int:
    """1-based rank of the ``p``-th percentile among ``n`` sorted samples."""
    return max(1, math.ceil(Fraction(p) * n / 100))


def percentile(sorted_values, p: str):
    return sorted_values[nearest_rank(len(sorted_values), p) - 1]


def write_spans(path: str, header: dict, rounds) -> None:
    """One JSON line for the header, then one per span, tagged with its run id."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for run_id, spans in rounds:
            for index, (name, start, end, parent) in enumerate(spans):
                fh.write(
                    json.dumps(
                        {"run": run_id, "id": index, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
