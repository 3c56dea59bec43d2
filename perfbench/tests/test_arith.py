"""Tests of the benchmark's own arithmetic.

Run from the root of the repository::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from arith import (  # noqa: E402
    covered_length,
    interpolate_rate,
    median,
    search_max_rate,
    self_time_by_name,
    self_times,
    tail_percentile,
)


class TestTailPercentile:
    def test_p99_when_enough_samples(self):
        values = list(range(1, 2001))  # 1..2000
        pct, value = tail_percentile(values)
        assert pct == 99.0
        assert value == 1980.0  # rank ceil(0.99 * 2000) = 1980
        assert sum(v > value for v in values) == 20

    def test_lowered_until_ten_samples_beyond(self):
        values = list(range(1, 201))  # 200 samples: p99 would leave 2
        pct, value = tail_percentile(values)
        assert value == 190.0
        assert pct == pytest.approx(95.0)
        assert sum(v > value for v in values) == 10

    def test_exactly_ten_beyond_at_boundary(self):
        values = list(range(1, 1001))
        pct, value = tail_percentile(values)
        assert (pct, value) == (99.0, 990.0)
        assert sum(v > value for v in values) == 10

    def test_unsorted_input(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10  # 50 samples
        pct, value = tail_percentile(values)
        assert pct == pytest.approx(80.0)
        assert value == 4.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail_percentile(list(range(10)))
        assert tail_percentile(list(range(11)))[1] == 0.0


class TestMedian:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        with pytest.raises(ValueError):
            median([])

def span(id_, name, start, end, parent=None):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end}


class TestSelfTime:
    def test_no_children(self):
        assert self_times([span(1, "a", 0.0, 2.0)]) == {1: 2.0}

    def test_sequential_children(self):
        spans = [
            span(1, "run", 0.0, 10.0),
            span(2, "stage.ingest", 1.0, 4.0, parent=1),
            span(3, "stage.embed", 4.0, 9.0, parent=1),
            span(4, "checkpoint.save", 2.0, 3.0, parent=2),
        ]
        selfs = self_times(spans)
        assert selfs == {1: pytest.approx(2.0), 2: pytest.approx(2.0),
                         3: pytest.approx(5.0), 4: pytest.approx(1.0)}
        # Self times partition the root's wall time.
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span(1, "req", 0.0, 10.0),
            span(2, "x", 1.0, 5.0, parent=1),
            span(3, "x", 3.0, 7.0, parent=1),
        ]
        assert self_times(spans)[1] == pytest.approx(4.0)
        assert self_time_by_name(spans)["x"] == pytest.approx(8.0)

    def test_children_clipped_to_parent(self):
        assert covered_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
        assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


class TestRateSearch:
    def test_converges_below_threshold(self):
        capacity = 27.3
        rate, probes = search_max_rate(lambda r: r <= capacity, 8.0, 128.0, 7)
        assert rate <= capacity
        # Resolution after 7 steps: (128/8) ** (1/128) as a ratio.
        assert capacity / rate <= (128 / 8) ** (1 / 2**7)
        assert len(probes) == 8
        assert probes[0] == (8.0, True)

    def test_probes_are_geometric_midpoints(self):
        __, probes = search_max_rate(lambda r: False if r > 8 else True, 8.0, 128.0, 3)
        assert [r for r, __ in probes] == pytest.approx([8.0, 32.0, 16.0, math.sqrt(8 * 16)])

    def test_low_failing_stops(self):
        rate, probes = search_max_rate(lambda r: False, 8.0, 128.0, 5)
        assert rate == 8.0
        assert probes == [(8.0, False)]

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            search_max_rate(lambda r: True, 10.0, 5.0, 3)


class TestInterpolateRate:
    def test_midpoint_in_log_space(self):
        rate = interpolate_rate((16.0, 0.05), (64.0, 0.15), 0.10)
        assert rate == pytest.approx(32.0)

    def test_clipped_to_bracket(self):
        assert interpolate_rate((16.0, 0.12), (64.0, 0.15), 0.10) == pytest.approx(16.0)
        assert interpolate_rate((16.0, 0.01), (64.0, 0.05), 0.10) == pytest.approx(64.0)

    def test_flat_tail_keeps_passing_rate(self):
        assert interpolate_rate((16.0, 0.2), (20.0, 0.1), 0.1) == 16.0
