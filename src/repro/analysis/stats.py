"""Latency and throughput statistics.

All functions operate on :class:`~repro.types.Operation` collections
produced by client sessions. Latencies are in simulated seconds; helper
properties expose microseconds because that is the unit the paper plots.

The reduce holds no list that grows with the record count.
:func:`throughput` and :func:`throughput_timeseries` make two passes over
the records. :func:`latency_summary` sorts the latencies of at most
``_MAX_SORTED`` records; over more, it makes one walk on any run this
package makes: it sums the latencies in record order, keeps only those in
a window around each percentile, and selects the eight order statistics a summary reads (the
minimum, the maximum and both neighbours of each percentile rank) from a
histogram of their IEEE-754 bit patterns instead of sorting them all. A
one-shot iterator is materialized into a list of the records first.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from math import ceil, copysign, floor, inf, sqrt
from operator import and_, rshift
from struct import pack, unpack
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
#: Records in the evenly strided pilot sample that places the keep windows.
_PILOT = 4096
#: A keep window spans this many standard errors of the pilot's estimate of
#: its percentile on either side.
_WINDOW_SIGMAS = 5
#: The first pass keeps at most this many values (8 B each); past that, or
#: if a rank falls outside the windows, the selection walks the records.
_MAX_WINDOWED = 1 << 16
#: Read as an unsigned integer, the IEEE-754 pattern of a non-negative
#: double orders as its value. A bin is the sign, the exponent and 8
#: mantissa bits of a pattern: 1/256 of a binade, so the occupied bins are
#: bounded by the binades spanned, not by the value count (1 us-10 ms is 14
#: binades, at most 3.6k bins).
_FIRST_SHIFT = 52 - 8
#: A refining pass splits each selected bin 256 ways.
_REFINE_BITS = 8
#: The selected bins' values are kept and sorted once they hold at most this
#: many (a boxed float and a list slot each, 32 B); more, and they are
#: refined.
_MAX_KEPT = 1 << 10


def _latency_list(
    records: Sequence[Operation], op_type: Optional[OpType], only_ok: bool
) -> List[float]:
    """The summarized records' latencies, in record order."""
    ok = OpStatus.OK
    return [
        r.end_time - r.start_time
        for r in records
        if (op_type is None or r.op_type is op_type) and (not only_ok or r.status is ok)
    ]


def _doubles(values: List[float]) -> memoryview:
    """``values`` packed as doubles: 8 B each, not a boxed float and a list
    slot (32 B)."""
    return memoryview(pack("%dd" % len(values), *values)).cast("d")


def _latency_chunks(
    results: Sequence[Operation], op_type: Optional[OpType], only_ok: bool
) -> Iterator[List[float]]:
    """:func:`_latency_list` of ``results``, ``_CHUNK`` records at a time."""
    for start in range(0, len(results), _CHUNK):
        yield _latency_list(results[start : start + _CHUNK], op_type, only_ok)


def _bits(chunk: memoryview) -> memoryview:
    """``chunk``'s doubles reinterpreted as unsigned 64-bit integers."""
    return chunk.cast("B").cast("Q")


def _from_bits(bits: int) -> float:
    return unpack("d", pack("Q", bits))[0]


def _window_edges(pilot: List[float]) -> List[float]:
    """The value windows the first pass keeps: the bins within
    ``_WINDOW_SIGMAS`` standard errors of each percentile as a sample
    ``pilot`` of the latencies places it, as ascending bin edges. A value
    ``v`` is in a window when ``bisect_right(edges, v)`` is odd; an odd
    count of edges leaves the last window open upwards."""
    if not pilot or not all(0.0 <= v < inf for v in pilot):
        return [0.0]  # keep everything
    pilot.sort()
    last = len(pilot) - 1

    def bin_edge(value: float, above: int) -> float:
        key = (unpack("Q", pack("d", value))[0] >> _FIRST_SHIFT) + above
        return _from_bits(key << _FIRST_SHIFT)

    windows = []
    for fraction in _PERCENTILES:
        spread = _WINDOW_SIGMAS * sqrt(fraction * (1.0 - fraction) / len(pilot))
        low = floor((fraction - spread) * last)
        high = ceil((fraction + spread) * last)
        windows.append(
            (
                bin_edge(pilot[low], 0) if low > 0 else 0.0,
                bin_edge(pilot[high], 1) if high < last else inf,
            )
        )
    edges: List[float] = []
    for start, end in sorted(windows):
        if edges and start <= edges[-1]:
            edges[-1] = max(edges[-1], end)
        else:
            edges += (start, end)
    if edges[-1] == inf:
        edges.pop()
    return edges


def _windowed_positions(gaps: List[int], ranks: List[int]) -> Optional[Dict[int, int]]:
    """Each rank's position among the values the windows kept, given
    ``gaps``, the value count per ``bisect_right`` index (odd: a window);
    ``None`` if a rank falls between windows."""
    positions: Dict[int, int] = {}
    below = outside = 0
    for gap, count in enumerate(gaps):
        for rank in ranks:
            if below <= rank < below + count:
                if not gap % 2:
                    return None
                positions[rank] = rank - outside
        below += count
        if not gap % 2:
            outside += count
    return positions


def _locate(
    counts: Counter, ranks: List[int], shift: int, parent_shift: int, parents: Dict[int, int]
) -> Dict[int, Tuple[int, int]]:
    """Map each of ``ranks`` (ascending) to ``(bin, below)``: the bin (a key
    at ``shift``) holding the value of that rank and the number of values
    in lower bins. ``counts`` holds the values of the bins ``parents`` maps
    (keys at ``parent_shift``) to their own number of values below."""
    where: Dict[int, Tuple[int, int]] = {}
    parent, seen, next_rank = None, 0, 0
    for key in sorted(counts):
        if key >> (parent_shift - shift) != parent:
            parent = key >> (parent_shift - shift)
            seen = parents[parent]
        below = seen
        seen += counts[key]
        while ranks[next_rank] < seen:
            where[ranks[next_rank]] = (key, below)
            next_rank += 1
            if next_rank == len(ranks):
                return where
    raise AssertionError("a rank lies outside the histogram")


def _select(chunks: Callable[[], Iterable[memoryview]], ranks: List[int]) -> Dict[int, float]:
    """The values at ascending sorted positions ``ranks`` among the values
    ``chunks()`` holds.

    A pass histograms them at ``_FIRST_SHIFT``. While the bins holding the
    ranks hold more than ``_MAX_KEPT`` values, a pass re-histograms just
    those bins ``_REFINE_BITS`` finer; a last pass keeps their values and
    sorts them. At shift 0 a bin is one bit pattern, so its value needs no
    pass at all.
    """
    shift = _FIRST_SHIFT
    counts: Counter = Counter()
    for chunk in chunks():
        counts.update(map(rshift, _bits(chunk), repeat(shift)))
    # At shift 64 every pattern is in bin 0, with nothing below it.
    where = _locate(counts, ranks, shift, 64, {0: 0})
    bins = dict(where.values())
    while shift and sum(counts[key] for key in bins) > _MAX_KEPT:
        finer = max(shift - _REFINE_BITS, 0)
        counts = Counter()
        for chunk in chunks():
            bits = _bits(chunk)
            counts.update(
                compress(
                    map(rshift, bits, repeat(finer)),
                    map(bins.__contains__, map(rshift, bits, repeat(shift))),
                )
            )
        where = _locate(counts, ranks, finer, shift, bins)
        bins = dict(where.values())
        shift = finer
    if not shift:
        return {rank: _from_bits(key) for rank, (key, _) in where.items()}
    kept: List[float] = []
    for chunk in chunks():
        keys = map(rshift, _bits(chunk), repeat(shift))
        kept.extend(compress(chunk, map(bins.__contains__, keys)))
    # The kept values sort into the selected bins' runs, in bin order.
    kept.sort()
    start: Dict[int, int] = {}
    position = 0
    for key in sorted(bins):
        start[key] = position - bins[key]
        position += counts[key]
    return {rank: kept[rank + start[key]] for rank, (key, _) in where.items()}


def latency_summary(
    results: Iterable[Operation],
    op_type: Optional[OpType] = None,
    only_ok: bool = True,
) -> LatencySummary:
    """Summarize latencies, optionally filtered by operation type.

    Exact: every float equals what sorting all the latencies gives. At
    most ``_MAX_SORTED`` records are summed and sorted. Over more, an evenly
    strided pilot sample of at most ``_PILOT`` records is read first; one
    walk over the records then sums the latencies, finds the extremes, and
    keeps only the values inside a window around each percentile that the
    pilot places (:func:`_window_edges`), counting the values between windows;
    the ranks are then selected among the kept values (:func:`_select`). A
    walk is the cost (a run's records are scattered over the heap: ~0.1 s
    per 200k), so the selection walks the records again only if a rank
    falls between windows or the windows hold too many values, which no
    summary of the figures or the benchmark does.

    Raises:
        BenchmarkError: if a summarized latency is negative (or ``-0.0``)
            or NaN.
    """
    if not isinstance(results, (list, tuple)):
        results = list(results)
    if len(results) <= _MAX_SORTED:
        latencies = _latency_list(results, op_type, only_ok)
        # Summed in record order, before the sort: float addition is not
        # associative (and 3.12's sum() is compensated), and the mean's
        # bits are in committed baselines.
        total, count = sum(latencies), len(latencies)
        latencies.sort()
        # A NaN makes the sum NaN; sorted, a value with its sign bit set is
        # among the leading values <= 0.
        signs = map(copysign, repeat(1.0), latencies[: bisect_right(latencies, 0.0)])
        if total != total or min(signs, default=1.0) < 0:
            raise BenchmarkError("a latency is negative or NaN")
        at: Callable[[int], float] = latencies.__getitem__
    else:
        pilot = _latency_list(results[:: ceil(len(results) / _PILOT)], op_type, only_ok)
        total, count, at = _walk(results, op_type, only_ok, _window_edges(pilot))
    if not count:
        return LatencySummary.empty()
    median, p95, p99 = (_interpolate(at, count, f) for f in _PERCENTILES)
    return LatencySummary(
        count=count, mean=total / count, median=median, p95=p95, p99=p99, maximum=at(count - 1)
    )


def _walk(
    results: Sequence[Operation], op_type: Optional[OpType], only_ok: bool, edges: List[float]
) -> Tuple[float, int, Callable[[int], float]]:
    """The latencies' sum and count, and the value at each rank a summary
    reads, in one walk over ``results`` that keeps the values inside the
    windows ``edges`` bound (more walks only if that does not suffice)."""
    gaps = [0] * (len(edges) + 1)
    windowed: Optional[List[memoryview]] = []
    low, top, kept = inf, 0.0, 0

    def first_pass(chunks: Iterator[List[float]]) -> Iterator[List[float]]:
        nonlocal windowed, low, top, kept
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
            if windowed is not None:
                windowed.append(_doubles([*compress(chunk, map(and_, gap, repeat(1)))]))
                kept += len(windowed[-1])
                if kept > _MAX_WINDOWED:
                    windowed = None
            yield chunk

    # One sum() over the latencies in record order, as over a list of them.
    total = sum(chain.from_iterable(first_pass(_latency_chunks(results, op_type, only_ok))))
    if total != total:
        raise BenchmarkError("a latency is negative or NaN")
    count = sum(gaps)
    value = {0: low, count - 1: top}
    ranks = sorted({rank for f in _PERCENTILES for rank in _rank_pair(count, f)[1:]} - set(value))
    if count and ranks:
        positions = None if windowed is None else _windowed_positions(gaps, ranks)
        if positions is not None:
            inside = windowed
            selected = _select(lambda: inside, sorted(positions.values()))
            value.update((rank, selected[position]) for rank, position in positions.items())
        else:
            value.update(
                _select(lambda: map(_doubles, _latency_chunks(results, op_type, only_ok)), ranks)
            )
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
