"""The benchmark's own arithmetic: percentiles, self time, rate search.

Pure functions with no dependency on the program under test, so the
unit tests in ``perfbench/tests`` pin them down exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def median(values: Iterable[float]) -> float:
    """Median of a non-empty collection (mean of the middle two)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty collection")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(
    values: Sequence[float], target: float = 99.0
) -> tuple[float, float]:
    """The highest percentile up to ``target`` with a real tail behind it.

    Nearest-rank percentiles: the sample of rank ``k`` (1-based, in
    ascending order) is the ``100 * k / n`` percentile and has ``n - k``
    samples beyond it. The rank used is ``ceil(target * n / 100)``,
    lowered until at least :data:`MIN_TAIL_SAMPLES` samples lie beyond.

    Returns:
        ``(percentile, value)``.

    Raises:
        ValueError: with ``MIN_TAIL_SAMPLES`` samples or fewer, no
            percentile has that many samples beyond it.
    """
    n = len(values)
    if n <= MIN_TAIL_SAMPLES:
        raise ValueError(
            f"{n} samples: no percentile has {MIN_TAIL_SAMPLES} beyond it"
        )
    ordered = sorted(values)
    rank = min(math.ceil(target * n / 100.0), n - MIN_TAIL_SAMPLES)
    rank = max(rank, 1)
    return 100.0 * rank / n, float(ordered[rank - 1])


def covered_length(
    intervals: Iterable[tuple[float, float]], start: float, end: float
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals are clipped to the window first; overlapping intervals
    (children running on several threads at once) count once.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for a, b in clipped:
        if b <= a:
            continue
        if cur_start is None or a > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus covered child time.

    Each span is a dict with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def self_time_by_name(spans: Sequence[dict]) -> dict[str, float]:
    """Total self time per span name."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + selfs[span["id"]]
    return totals


def search_max_rate(
    passes: Callable[[float], bool], low: float, high: float, steps: int
) -> tuple[float, list[tuple[float, bool]]]:
    """Highest rate in ``[low, high]`` that ``passes``, by log-scale bisection.

    Each step probes the geometric midpoint of the bracket, so the
    answer's resolution is ``(high / low) ** (1 / 2 ** steps)`` as a
    ratio whatever the absolute rate. ``low`` is probed first; when it
    fails, the search returns ``low`` with the failed probe recorded
    (the caller decides whether that is an error). ``high`` is assumed
    to fail and is never probed.

    Returns:
        ``(rate, probes)`` where ``probes`` lists every ``(rate, ok)``.
    """
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    probes: list[tuple[float, bool]] = []
    ok = passes(low)
    probes.append((low, ok))
    if not ok:
        return low, probes
    for __ in range(steps):
        mid = math.sqrt(low * high)
        ok = passes(mid)
        probes.append((mid, ok))
        if ok:
            low = mid
        else:
            high = mid
    return low, probes


def interpolate_rate(
    passed: tuple[float, float], failed: tuple[float, float], limit: float
) -> float:
    """Rate where the tail latency crosses ``limit``, between two probes.

    Each probe is ``(rate, tail_latency)``: the highest passing rate and
    the lowest failing one. Linear in log-rate, clipped to the bracket,
    so the answer moves smoothly instead of jumping between the
    bisection's lattice points.
    """
    (low, t_low), (high, t_high) = passed, failed
    if t_high <= t_low:
        return low
    share = min(max((limit - t_low) / (t_high - t_low), 0.0), 1.0)
    return math.exp(math.log(low) + share * (math.log(high) - math.log(low)))
