"""Latency and throughput statistics.

All functions operate on :class:`~repro.types.Operation` collections
produced by client sessions. Latencies are in simulated seconds; helper
properties expose microseconds because that is the unit the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import BenchmarkError
from repro.types import Operation, OpStatus, OpType


def percentile(values: Sequence[float], fraction: float) -> float:
    """Return the ``fraction`` percentile (0-1) of ``values``.

    Uses linear interpolation between closest ranks, matching the common
    definition used by numpy's default method.

    Raises:
        BenchmarkError: if ``values`` is empty or ``fraction`` out of range.
    """
    return _percentile_sorted(sorted(values), fraction)


def _percentile_sorted(ordered: Sequence[float], fraction: float) -> float:
    """:func:`percentile` of values already in ascending order."""
    if not ordered:
        raise BenchmarkError("cannot compute a percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise BenchmarkError("percentile fraction must be within [0, 1]")
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[low] == ordered[high]:
        # Short-circuit keeps equal neighbours exact; the interpolated form
        # can differ by an ulp and break percentile monotonicity.
        return ordered[low]
    weight = rank - low
    interpolated = ordered[low] + weight * (ordered[high] - ordered[low])
    # Clamp to the observed range (guards against floating-point overshoot).
    return min(max(interpolated, ordered[0]), ordered[-1])


@dataclass
class LatencySummary:
    """Latency percentiles for one class of operations (seconds).

    Attributes:
        count: Number of operations summarized.
        mean: Mean latency.
        median: 50th percentile latency.
        p95: 95th percentile latency.
        p99: 99th percentile latency.
        maximum: Worst observed latency.
    """

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    maximum: float

    @property
    def median_us(self) -> float:
        """Median latency in microseconds."""
        return self.median * 1e6

    @property
    def p99_us(self) -> float:
        """99th-percentile latency in microseconds."""
        return self.p99 * 1e6

    @classmethod
    def empty(cls) -> "LatencySummary":
        """A summary for an empty result set (all zeros)."""
        return cls(count=0, mean=0.0, median=0.0, p95=0.0, p99=0.0, maximum=0.0)


def latency_summary(
    results: Iterable[Operation],
    op_type: Optional[OpType] = None,
    only_ok: bool = True,
) -> LatencySummary:
    """Summarize latencies, optionally filtered by operation type.

    One walk over the records (fields read directly, not through the
    ``latency``/``ok`` properties) and one sort per call.
    """
    ok = OpStatus.OK
    latencies = [
        r.end_time - r.start_time
        for r in results
        if (op_type is None or r.op_type is op_type) and (not only_ok or r.status is ok)
    ]
    if not latencies:
        return LatencySummary.empty()
    # Summed in record order, before the sort: float addition is not
    # associative and the mean's bits are in committed baselines.
    mean = sum(latencies) / len(latencies)
    latencies.sort()
    return LatencySummary(
        count=len(latencies),
        mean=mean,
        median=_percentile_sorted(latencies, 0.50),
        p95=_percentile_sorted(latencies, 0.95),
        p99=_percentile_sorted(latencies, 0.99),
        maximum=latencies[-1],
    )


def throughput(
    results: Sequence[Operation],
    warmup_fraction: float = 0.1,
    only_ok: bool = True,
) -> float:
    """Steady-state throughput in operations per simulated second.

    The first ``warmup_fraction`` of the measured interval is discarded so
    that cold-start effects (empty queues, unsaturated pipelines) do not
    inflate or deflate the estimate.

    Two passes over ``results`` and no per-record list: the first finds the
    usable records' earliest start and latest end, the second counts the
    ends at or after the cutoff. A one-shot iterator is materialized first.
    """
    if iter(results) is results:
        results = list(results)
    ok = OpStatus.OK if only_ok else None
    start = end = None
    for r in results:
        if ok is None or r.status is ok:
            if start is None:
                start, end = r.start_time, r.end_time
            else:
                if r.start_time < start:
                    start = r.start_time
                if r.end_time > end:
                    end = r.end_time
    if start is None:
        return 0.0
    span = end - start
    if span <= 0:
        return 0.0
    cutoff = start + span * warmup_fraction
    effective_span = end - cutoff
    counted = 0
    for r in results:
        if (ok is None or r.status is ok) and r.end_time >= cutoff:
            counted += 1
    if effective_span <= 0 or not counted:
        return 0.0
    return counted / effective_span


def throughput_timeseries(
    results: Sequence[Operation],
    window: float,
    end_time: Optional[float] = None,
    only_ok: bool = True,
) -> List[Tuple[float, float]]:
    """Windowed throughput over time, for availability timelines (Figure 9).

    Returns:
        A list of ``(window_start_time, ops_per_second)`` pairs covering the
        execution from time zero to ``end_time`` (or the last completion).
    """
    if window <= 0:
        raise BenchmarkError("window must be positive")
    usable = [r for r in results if not only_ok or r.ok]
    if not usable:
        return []
    horizon = end_time if end_time is not None else max(r.end_time for r in usable)
    num_windows = int(horizon / window) + 1
    counts = [0] * num_windows
    for result in usable:
        # Clamp completions beyond the horizon into the final window so the
        # series conserves the operation count (Figure 9 availability
        # timelines would otherwise silently drop late completions).
        index = min(int(result.end_time / window), num_windows - 1)
        counts[max(index, 0)] += 1
    return [(i * window, counts[i] / window) for i in range(num_windows)]


def completed_ok(results: Iterable[Operation]) -> int:
    """Number of successfully completed operations."""
    return sum(1 for r in results if r.ok)


def abort_rate(results: Sequence[Operation]) -> float:
    """Fraction of operations that aborted (RMW conflicts)."""
    if not results:
        return 0.0
    aborted = sum(1 for r in results if r.status is OpStatus.ABORTED)
    return aborted / len(results)
