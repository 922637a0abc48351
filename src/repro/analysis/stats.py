"""Latency and throughput statistics.

All functions operate on :class:`~repro.types.Operation` collections
produced by client sessions. Latencies are in simulated seconds; helper
properties expose microseconds because that is the unit the paper plots.

The reduce holds no list that grows with the record count.
:func:`throughput` and :func:`throughput_timeseries` make two passes over
the records. :func:`latency_summary` sorts the latencies of at most
``_MAX_SORTED`` records. Over more, a pilot sample places a window around
each percentile, and one walk sums the latencies in record order, counts
the values at each window end and between windows, and keeps only each
window's interior, packed; the ranks a summary reads are then indexed in
the sorted interiors. A one-shot iterator is materialized into a list of
the records first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress, repeat
from math import ceil, copysign, floor, inf, nextafter, sqrt
from operator import eq
from struct import pack
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    return _interpolate(ordered.__getitem__, len(ordered), fraction)


def _rank_pair(count: int, fraction: float) -> Tuple[float, int, int]:
    """The ``fraction`` percentile's fractional rank among ``count`` ordered
    values and the two ranks it interpolates between."""
    rank = fraction * (count - 1)
    low = int(rank)
    return rank, low, min(low + 1, count - 1)


def _interpolate(at: Callable[[int], float], count: int, fraction: float) -> float:
    """The ``fraction`` percentile of ``count`` values whose ``i``-th
    smallest is ``at(i)``; reads ranks ``0``, ``count - 1`` and the pair
    :func:`_rank_pair` names, nothing else."""
    if not 0.0 <= fraction <= 1.0:
        raise BenchmarkError("percentile fraction must be within [0, 1]")
    if count == 1:
        return at(0)
    rank, low, high = _rank_pair(count, fraction)
    if at(low) == at(high):
        # Short-circuit keeps equal neighbours exact; the interpolated form
        # can differ by an ulp and break percentile monotonicity.
        return at(low)
    weight = rank - low
    interpolated = at(low) + weight * (at(high) - at(low))
    # Clamp to the observed range (guards against floating-point overshoot).
    return min(max(interpolated, at(0)), at(count - 1))


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


#: The percentiles a :class:`LatencySummary` reports.
_PERCENTILES = (0.50, 0.95, 0.99)

#: Records per chunk of a walk over the records.
_CHUNK = 4096
#: A summary of at most this many records sorts their latencies (a boxed
#: float and a list slot each: 256 KiB at most).
_MAX_SORTED = 1 << 13
#: Records in the evenly strided pilot sample that places the windows.
_PILOT = 8192
#: A window spans this many standard errors of the pilot's estimate of its
#: percentile on either side.
_WINDOW_SIGMAS = 5


#: The operation types a summary keeps (``None``: every type).
_Types = Optional[Tuple[OpType, ...]]


def _latency_list(
    records: Sequence[Operation], types: _Types, only_ok: bool
) -> List[float]:
    """The summarized records' latencies, in record order."""
    ok = OpStatus.OK
    return [
        r.end_time - r.start_time
        for r in records
        if (types is None or r.op_type in types) and (not only_ok or r.status is ok)
    ]


def _doubles(values: List[float]) -> memoryview:
    """``values`` packed as doubles: 8 B each, not 32 B boxed in a list."""
    return memoryview(pack("%dd" % len(values), *values)).cast("d")


def _latency_chunks(
    results: Sequence[Operation], types: _Types, only_ok: bool
) -> Iterator[List[float]]:
    """:func:`_latency_list` of ``results``, ``_CHUNK`` records at a time."""
    for start in range(0, len(results), _CHUNK):
        yield _latency_list(results[start : start + _CHUNK], types, only_ok)


def _sort_all(
    results: Sequence[Operation], types: _Types, only_ok: bool
) -> Tuple[float, int, Callable[[int], float]]:
    """The latencies' sum, count and value by rank, from a list of them all."""
    latencies = _latency_list(results, types, only_ok)
    # Summed in record order, before the sort: float addition is not
    # associative (and 3.12's sum() is compensated), and the mean's bits are
    # in committed baselines.
    total, count = sum(latencies), len(latencies)
    latencies.sort()
    # A NaN makes the sum NaN; sorted, a value with its sign bit set is
    # among the leading values <= 0.
    signs = map(copysign, repeat(1.0), latencies[: bisect_right(latencies, 0.0)])
    if total != total or min(signs, default=1.0) < 0:
        raise BenchmarkError("a latency is negative or NaN")
    return total, count, latencies.__getitem__


def _window_edges(
    results: Sequence[Operation], types: _Types, only_ok: bool
) -> Tuple[List[float], List[int]]:
    """The edges that split the latencies for a walk, and the ``bisect_right``
    indexes between them whose values the walk keeps.

    A window spans ``_WINDOW_SIGMAS`` standard errors of each percentile as
    an evenly strided pilot sample of ``_PILOT`` records places it; its ends
    are pilot values (pivots), or open where it reaches past the pilot's
    extremes. Each pivot ``p`` gives the edges ``p`` and ``nextafter(p,
    inf)``, so the odd index between them holds exactly the values equal to
    ``p``: those are counted, never kept. An even index holds the values
    strictly between two pivots; it is kept when a window spans it."""
    pilot = _latency_list(results[:: ceil(len(results) / _PILOT)], types, only_ok)
    if not pilot or not all(0.0 <= v < inf for v in pilot):
        return [], [0]  # one open window: keep everything
    pilot.sort()
    last = len(pilot) - 1
    windows = []
    for fraction in _PERCENTILES:
        spread = _WINDOW_SIGMAS * sqrt(fraction * (1.0 - fraction) / len(pilot))
        low = floor((fraction - spread) * last)
        high = ceil((fraction + spread) * last)
        windows.append((pilot[low] if low > 0 else -inf, pilot[high] if high < last else inf))
    pivots = sorted({end for window in windows for end in window} - {-inf, inf})
    between = enumerate(zip([-inf, *pivots], [*pivots, inf]))
    kept = [2 * i for i, (a, b) in between if any(lo <= a and b <= hi for lo, hi in windows)]
    return [edge for pivot in pivots for edge in (pivot, nextafter(pivot, inf))], kept


def latency_summary(
    results: Iterable[Operation],
    op_type: Optional[OpType | Tuple[OpType, ...]] = None,
    only_ok: bool = True,
) -> LatencySummary:
    """Summarize latencies, optionally filtered by operation type.

    ``op_type`` keeps one type, or every type in a tuple of them (the
    updates are ``(OpType.WRITE, OpType.RMW)``); ``None`` keeps all.

    Exact: every float equals what sorting all the latencies gives. At
    most ``_MAX_SORTED`` records are summed and sorted. Over more, a pilot
    sample places a window around each percentile (:func:`_window_edges`),
    and one walk over the records sums the latencies, finds the extremes,
    counts the values between the windows and at their ends, and keeps only
    the values inside them, packed. A rank at a window end is that end; a
    rank inside a window is read from the window's values, sorted once. A
    walk is the cost (a run's records are scattered over the heap: ~0.1 s
    per 200k), so only a rank that falls between windows, which no summary
    of the figures or the benchmark has, sorts every latency as a small
    input is.

    Raises:
        BenchmarkError: if a summarized latency is negative (or ``-0.0``)
            or NaN.
    """
    if not isinstance(results, (list, tuple)):
        results = list(results)
    types = (op_type,) if isinstance(op_type, OpType) else op_type
    if len(results) <= _MAX_SORTED:
        total, count, at = _sort_all(results, types, only_ok)
    else:
        windows = _window_edges(results, types, only_ok)
        total, count, at = _walk(results, types, only_ok, windows)
    if not count:
        return LatencySummary.empty()
    median, p95, p99 = (_interpolate(at, count, f) for f in _PERCENTILES)
    return LatencySummary(
        count=count, mean=total / count, median=median, p95=p95, p99=p99, maximum=at(count - 1)
    )


def _walk(
    results: Sequence[Operation],
    types: _Types,
    only_ok: bool,
    windows: Tuple[List[float], List[int]],
) -> Tuple[float, int, Callable[[int], float]]:
    """The latencies' sum, count and value at each rank a summary reads, from
    one walk over ``results`` split and kept by ``windows`` (:func:`_window_edges`)."""
    edges, indexes = windows
    gaps = [0] * (len(edges) + 1)
    keep = bytes(index in indexes for index in range(len(gaps)))
    kept: List[memoryview] = []
    low, top = inf, 0.0

    def counted(chunks: Iterator[List[float]]) -> Iterator[List[float]]:
        nonlocal low, top
        for chunk in chunks:
            if not chunk:
                continue
            least = min(chunk)
            # A sign bit is among the values <= 0; a NaN makes the sum NaN.
            if least <= 0.0 and min(map(copysign, repeat(1.0), chunk)) < 0:
                raise BenchmarkError("a latency is negative or NaN")
            low, top = min(low, least), max(top, max(chunk))
            # Bytes, so that counting each index runs at C speed.
            gap = bytes(map(bisect_right, repeat(edges), chunk))
            for index in range(len(gaps)):
                gaps[index] += gap.count(index)
            kept.append(_doubles([*compress(chunk, map(keep.__getitem__, gap))]))
            yield chunk

    # One sum() over the latencies in record order, as over a list of them.
    total = sum(chain.from_iterable(counted(_latency_chunks(results, types, only_ok))))
    if total != total:
        raise BenchmarkError("a latency is negative or NaN")
    count = sum(gaps)
    value = {0: low, count - 1: top}
    ranks = sorted({rank for f in _PERCENTILES for rank in _rank_pair(count, f)[1:]} - set(value))
    below = 0
    for index, size in enumerate(gaps):
        start, below = below, below + size
        inside = [rank for rank in ranks if start <= rank < below]
        if inside and index % 2:
            value.update(dict.fromkeys(inside, edges[index - 1]))
        elif inside and keep[index]:
            # One window sorted at a time: its boxed values are the peak.
            where = map(bisect_right, repeat(edges), chain.from_iterable(kept))
            ordered = sorted(compress(chain.from_iterable(kept), map(eq, where, repeat(index))))
            value.update((rank, ordered[rank - start]) for rank in inside)
            del ordered
        elif inside:
            # A rank between windows: the pilot misplaced them.
            return _sort_all(results, types, only_ok)
    return total, count, value.__getitem__


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

    Two passes over ``results`` and no per-record list, as in
    :func:`throughput`: the first finds the horizon (or, given
    ``end_time``, whether any record counts), the second fills the windows.

    Returns:
        A list of ``(window_start_time, ops_per_second)`` pairs covering the
        execution from time zero to ``end_time`` (or the last completion).
    """
    if window <= 0:
        raise BenchmarkError("window must be positive")
    if iter(results) is results:
        results = list(results)
    ok = OpStatus.OK if only_ok else None
    ends = (r.end_time for r in results if ok is None or r.status is ok)
    if end_time is None:
        horizon = max(ends, default=None)
    else:
        horizon = end_time if next(ends, None) is not None else None
    if horizon is None:
        return []
    num_windows = int(horizon / window) + 1
    counts = [0] * num_windows
    for r in results:
        if ok is None or r.status is ok:
            # Clamp completions beyond the horizon into the final window so
            # the series conserves the operation count (Figure 9 availability
            # timelines would otherwise silently drop late completions).
            index = min(int(r.end_time / window), num_windows - 1)
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
