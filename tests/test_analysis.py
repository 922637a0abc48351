"""Statistics and report-formatting helpers."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import stats
from repro.analysis.report import format_table
from repro.analysis.stats import (
    LatencySummary,
    abort_rate,
    completed_ok,
    latency_summary,
    percentile,
    throughput,
    throughput_timeseries,
)
from repro.errors import BenchmarkError
from repro.types import Operation, OperationResult, OpStatus, OpType


def result(op, start, end, status=OpStatus.OK):
    return OperationResult(op=op, status=status, start_time=start, end_time=end)


def make_results(latencies, op_factory=lambda i: Operation.read(i)):
    out = []
    clock = 0.0
    for i, latency in enumerate(latencies):
        out.append(result(op_factory(i), clock, clock + latency))
        clock += latency
    return out


# --------------------------------------------------------------- percentile
def test_percentile_basics():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 5.0
    assert percentile(values, 0.5) == 3.0


def test_percentile_interpolates():
    assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(BenchmarkError):
        percentile([], 0.5)
    with pytest.raises(BenchmarkError):
        percentile([1.0], 1.5)


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=50), st.floats(0.0, 1.0))
def test_percentile_bounded_by_min_max(values, fraction):
    p = percentile(values, fraction)
    assert min(values) <= p <= max(values)


@given(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=50))
def test_percentiles_are_monotone(values):
    assert percentile(values, 0.25) <= percentile(values, 0.75) <= percentile(values, 0.99)


def test_percentile_monotone_for_equal_float_neighbors():
    """Regression: with nine values of {0.0, 999.9999999999999} the old
    ``low*(1-w) + high*w`` interpolation rounded p95 one ulp above p99."""
    values = [0.0] + [999.9999999999999] * 8
    p95 = percentile(values, 0.95)
    p99 = percentile(values, 0.99)
    assert p95 <= p99
    assert p95 == 999.9999999999999 == p99


def test_percentile_exact_on_equal_neighbors():
    # Both closest ranks hold the same value: no interpolation error allowed.
    assert percentile([1.1, 2.2, 2.2, 3.3], 0.5) == 2.2


# ------------------------------------------------------------------ summary
def test_latency_summary_counts_and_percentiles():
    results = make_results([1e-6] * 90 + [100e-6] * 10)
    summary = latency_summary(results)
    assert summary.count == 100
    assert summary.median == pytest.approx(1e-6)
    assert summary.p99 >= 50e-6
    assert summary.maximum == pytest.approx(100e-6)
    assert summary.p99_us == pytest.approx(summary.p99 * 1e6)


def test_latency_summary_filters_by_op_type():
    results = make_results([1e-6] * 10) + make_results(
        [50e-6] * 10, op_factory=lambda i: Operation.write(i, i)
    )
    reads = latency_summary(results, op_type=OpType.READ)
    writes = latency_summary(results, op_type=OpType.WRITE)
    assert reads.count == 10 and writes.count == 10
    assert writes.median > reads.median


def test_latency_summary_empty():
    assert latency_summary([]).count == 0
    assert LatencySummary.empty().median_us == 0.0


def test_latency_summary_excludes_failures_by_default():
    results = make_results([1e-6] * 5)
    results.append(result(Operation.read(0), 0.0, 1.0, status=OpStatus.ABORTED))
    assert latency_summary(results).count == 5
    assert latency_summary(results, only_ok=False).count == 6


# --------------------------------------------------------------- throughput
def test_throughput_counts_steady_state():
    results = make_results([1e-3] * 100)
    tput = throughput(results, warmup_fraction=0.0)
    assert tput == pytest.approx(1000.0, rel=0.05)


def test_throughput_empty_is_zero():
    assert throughput([]) == 0.0


def test_throughput_warmup_discards_early_ops():
    early = make_results([1e-3] * 10)
    assert throughput(early, warmup_fraction=0.5) > 0


def test_throughput_timeseries_windows():
    results = make_results([1e-3] * 100)
    series = throughput_timeseries(results, window=0.01)
    assert len(series) >= 10
    assert all(ops >= 0 for _, ops in series)
    total = sum(ops * 0.01 for _, ops in series)
    assert total == pytest.approx(100, rel=0.05)


def test_throughput_timeseries_requires_positive_window():
    with pytest.raises(BenchmarkError):
        throughput_timeseries(make_results([1e-3]), window=0.0)


def test_throughput_timeseries_conserves_ops_beyond_horizon():
    """Regression: completions past the caller's ``end_time`` horizon were
    silently dropped; they must be clamped into the final window so the
    series conserves the operation count (Figure 9 timelines)."""
    results = make_results([1e-3] * 100)  # completions span (0, 0.1]
    series = throughput_timeseries(results, window=0.01, end_time=0.05)
    counted = sum(ops * 0.01 for _, ops in series)
    assert counted == pytest.approx(100)
    # The overflow piles into the final window, not beyond the horizon.
    assert series[-1][0] == pytest.approx(0.05)
    assert series[-1][1] > series[0][1]


def test_completed_ok_and_abort_rate():
    results = make_results([1e-6] * 8)
    results.append(result(Operation.rmw(1, 2), 0.0, 1.0, status=OpStatus.ABORTED))
    assert completed_ok(results) == 8
    assert abort_rate(results) == pytest.approx(1 / 9)


# ------------------------------------------- reduce equivalence (references)
# The pre-PR-15 bodies, kept as the references the sort-once / single-pass
# versions must match bit for bit (every float, including the mean, is in
# committed baselines).
def _reference_percentile(values, fraction):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[low] == ordered[high]:
        return ordered[low]
    weight = rank - low
    interpolated = ordered[low] + weight * (ordered[high] - ordered[low])
    return min(max(interpolated, ordered[0]), ordered[-1])


def _reference_latency_summary(results, op_type=None, only_ok=True):
    types = (op_type,) if isinstance(op_type, OpType) else op_type
    latencies = [
        r.latency
        for r in results
        if (types is None or r.op.op_type in types) and (not only_ok or r.ok)
    ]
    if not latencies:
        return LatencySummary.empty()
    return LatencySummary(
        count=len(latencies),
        mean=sum(latencies) / len(latencies),
        median=_reference_percentile(latencies, 0.50),
        p95=_reference_percentile(latencies, 0.95),
        p99=_reference_percentile(latencies, 0.99),
        maximum=max(latencies),
    )


def _reference_throughput(results, warmup_fraction=0.1, only_ok=True):
    usable = [r for r in results if not only_ok or r.ok]
    if not usable:
        return 0.0
    start = min(r.start_time for r in usable)
    end = max(r.end_time for r in usable)
    span = end - start
    if span <= 0:
        return 0.0
    cutoff = start + span * warmup_fraction
    counted = [r for r in usable if r.end_time >= cutoff]
    effective_span = end - cutoff
    if effective_span <= 0 or not counted:
        return 0.0
    return len(counted) / effective_span


_OPS = {
    OpType.READ: Operation.read(1),
    OpType.WRITE: Operation.write(1, 1),
    OpType.RMW: Operation.rmw(1, 1),
}
# Few distinct times and latencies, so ties, equal percentile neighbours and
# zero-span lists all occur.
_TIMES = st.one_of(st.sampled_from([0.0, 1e-6, 2.5e-6, 1e-3]), st.floats(0.0, 1e-2))
_RECORDS = st.lists(
    st.builds(
        lambda op_type, status, start, latency: result(
            _OPS[op_type], start, start + latency, status=status
        ),
        st.sampled_from(list(OpType)),
        st.sampled_from([OpStatus.OK, OpStatus.OK, OpStatus.ABORTED, OpStatus.TIMEOUT]),
        _TIMES,
        _TIMES,
    ),
    max_size=40,
)


@st.composite
def _clustered_records(draw):
    """Up to a few thousand records whose latencies come from a few
    clusters (exact repeats, values an ulp apart, values within 0.1% of
    each other), so that many records share a histogram bin."""
    centers = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1e-6, 1.5e-6, 2.5e-6, 1e-3]), st.floats(0.0, 1e-2)),
            min_size=1,
            max_size=6,
        )
    )
    size = draw(st.integers(0, 3000))
    rng = draw(st.randoms(use_true_random=False))
    records = []
    for _ in range(size):
        center = rng.choice(centers)
        latency = center * (1.0 + rng.choice((0.0, 2.0**-52, rng.random() * 1e-3)))
        start = rng.choice((0.0, 1e-3, rng.random()))
        status = rng.choice((OpStatus.OK, OpStatus.OK, OpStatus.ABORTED, OpStatus.TIMEOUT))
        records.append(result(_OPS[rng.choice(list(OpType))], start, start + latency, status))
    return records


def _latency_records(latencies):
    return [result(_OPS[OpType.READ], 0.0, latency) for latency in latencies]


def _straddling_ties(count=150):
    """``count`` latencies in which each percentile's two interpolated ranks
    and the ranks on either side hold one value, in descending order."""
    ordered = [1e-6 * (1 + i) for i in range(count)]
    for fraction in (0.50, 0.95, 0.99):
        low = int(fraction * (count - 1))
        for rank in range(low - 1, min(low + 3, count)):
            ordered[rank] = ordered[low]
    return _latency_records(reversed(ordered))


def _hex_fields(summary):
    return tuple(
        value.hex() if isinstance(value, float) else value for value in vars(summary).values()
    )


#: Limits that force each path of the walk over the records (inputs this
#: small are otherwise sorted whole), and the function only that path runs:
#: windows placed by a 64-record pilot resolve every rank in the walk;
#: zero-width windows placed by an 8-record pilot can leave a rank between
#: them, and that miss sorts every latency.
_SELECTION_PATHS = (
    (dict(_MAX_SORTED=0, _PILOT=64), "_walk"),
    (dict(_MAX_SORTED=0, _PILOT=8, _WINDOW_SIGMAS=0), "_sort_all"),
)


@given(
    _clustered_records(),
    st.sampled_from([None, *OpType, (OpType.WRITE, OpType.RMW)]),
    st.booleans(),
)
@example(_latency_records([1.5e-6]), None, True)
@example(_latency_records([2.5e-6] * 101), None, True)
@example(_latency_records([0.0, 1e-6, 0.0, 3e-6, 0.0]), None, True)
@example(_latency_records([1e-6 * (1 + i * 1e-4) for i in range(199)] + [1e-3]), None, True)
@example(_straddling_ties(), None, True)
@settings(deadline=None)
def test_latency_summary_matches_reference(records, op_type, only_ok):
    """Every field bit for bit (compared as ``float.hex``), over a list, a
    tuple and a one-shot iterator; then over the list with the selection's
    limits patched so that each of its paths runs on small inputs."""
    expected = _hex_fields(_reference_latency_summary(records, op_type, only_ok))
    for view in (records, tuple(records), iter(records)):
        assert _hex_fields(latency_summary(view, op_type, only_ok)) == expected
    for limits, _ in _SELECTION_PATHS:
        with mock.patch.multiple(stats, **limits):
            with mock.patch.object(stats, "_walk", wraps=stats._walk) as walked:
                assert _hex_fields(latency_summary(records, op_type, only_ok)) == expected, limits
        assert walked.called == bool(records)


@pytest.mark.parametrize("limits, path", _SELECTION_PATHS, ids=["windows", "miss"])
def test_each_selection_path_runs(limits, path):
    rng = random.Random(7)
    records = _latency_records([10.0 ** rng.uniform(-6, -2) for _ in range(1000)])
    expected = _hex_fields(_reference_latency_summary(records))
    with mock.patch.multiple(stats, **limits):
        with mock.patch.object(stats, path, wraps=getattr(stats, path)) as ran:
            with mock.patch.object(stats, "_sort_all", wraps=stats._sort_all) as sorted_all:
                assert _hex_fields(latency_summary(records)) == expected
    assert ran.called
    assert sorted_all.called == (path == "_sort_all")


@pytest.mark.parametrize(
    "latencies, median",
    [
        # The maximum in a middle chunk: it is also the upper rank of p50.
        ((1e-6, 3e-6, 2e-6), 2e-6),
        # Two values: p50 interpolates between the minimum (in the first
        # chunk) and the maximum (in the last).
        ((1e-6, None, 3e-6), 2e-6),
    ],
)
def test_latency_summary_over_several_chunks_of_records(latencies, median):
    """A walk reads latencies ``stats._CHUNK`` records at a time, and most
    records here are filtered out: the extremes come from different chunks."""
    assert 3 * stats._CHUNK > stats._MAX_SORTED
    records = [
        result(_OPS[OpType.READ], 0.0, 1e-6 * (1 + i % 7), status=OpStatus.TIMEOUT)
        for i in range(3 * stats._CHUNK)
    ]
    for chunk, latency in enumerate(latencies):
        if latency is not None:
            records[chunk * stats._CHUNK + 10] = result(_OPS[OpType.READ], 0.0, latency)
    summary = latency_summary(records)
    assert _hex_fields(summary) == _hex_fields(_reference_latency_summary(records))
    assert summary.median == pytest.approx(median) and summary.maximum == 3e-6


@pytest.mark.parametrize("latency", [-1e-6, -0.0, float("nan"), -float("inf")])
@pytest.mark.parametrize("max_sorted", [stats._MAX_SORTED, 0], ids=["sorted", "walked"])
def test_latency_summary_rejects_a_negative_or_nan_latency(latency, max_sorted):
    # After a zero: sorted, a -0.0 need not come first.
    records = _latency_records([0.0, 1e-6, 2e-6, 3e-6])
    records.insert(1, result(_OPS[OpType.READ], 0.0, latency))
    with mock.patch.object(stats, "_MAX_SORTED", max_sorted):
        with pytest.raises(BenchmarkError):
            latency_summary(records)
        # A record the summary filters out is not judged.
        records[1].status = OpStatus.ABORTED
        assert latency_summary(records) == _reference_latency_summary(records)


@pytest.mark.parametrize("max_sorted", [stats._MAX_SORTED, 0], ids=["sorted", "walked"])
def test_latency_summary_accepts_an_infinite_latency(max_sorted):
    records = _latency_records([1e-6, float("inf"), 2e-6])
    with mock.patch.object(stats, "_MAX_SORTED", max_sorted):
        assert _hex_fields(latency_summary(records)) == _hex_fields(
            _reference_latency_summary(records)
        )


@given(
    _RECORDS,
    st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.booleans(),
)
# Ends exactly at the cutoff (``>=`` counts them).
@example([result(_OPS[OpType.READ], 0.0, 0.0), result(_OPS[OpType.READ], 0.0, 1e-3)], 0.0, True)
@example([result(_OPS[OpType.READ], 0.0, 5e-4), result(_OPS[OpType.READ], 0.0, 1e-3)], 0.5, False)
def test_throughput_matches_reference(records, warmup_fraction, only_ok):
    """Bit for bit (compared as ``float.hex``), over a list, a tuple and a
    one-shot iterator: the two passes over ``results`` return the very
    float the list-building reference does."""
    expected = _reference_throughput(records, warmup_fraction, only_ok).hex()
    for view in (records, tuple(records), iter(records)):
        assert throughput(view, warmup_fraction, only_ok).hex() == expected


def _reference_throughput_timeseries(results, window, end_time=None, only_ok=True):
    usable = [r for r in results if not only_ok or r.ok]
    if not usable:
        return []
    horizon = end_time if end_time is not None else max(r.end_time for r in usable)
    num_windows = int(horizon / window) + 1
    counts = [0] * num_windows
    for result_ in usable:
        index = min(int(result_.end_time / window), num_windows - 1)
        counts[max(index, 0)] += 1
    return [(i * window, counts[i] / window) for i in range(num_windows)]


def _hex_series(series):
    return [(start.hex(), rate.hex()) for start, rate in series]


@given(
    _RECORDS,
    st.one_of(st.sampled_from([1e-3, 2.5e-3]), st.floats(1e-4, 1e-2)),
    st.one_of(st.none(), st.sampled_from([0.0, 1e-3, 5e-3]), st.floats(0.0, 2e-2)),
    st.booleans(),
)
# A horizon given with no record to count, and one before every completion.
@example([result(_OPS[OpType.READ], 0.0, 1e-3, status=OpStatus.TIMEOUT)], 1e-3, 5e-3, True)
@example(
    [result(_OPS[OpType.READ], 0.0, 1e-2), result(_OPS[OpType.WRITE], 0.0, 2e-2)], 1e-3, 0.0, True
)
def test_throughput_timeseries_matches_reference(records, window, end_time, only_ok):
    """Bit for bit (``float.hex``) over a list, a tuple and a one-shot
    iterator: two passes and no list of the usable records return the very
    series the list-building reference does."""
    expected = _hex_series(_reference_throughput_timeseries(records, window, end_time, only_ok))
    for view in (records, tuple(records), iter(records)):
        assert _hex_series(throughput_timeseries(view, window, end_time, only_ok)) == expected


def test_operation_result_copies_the_request():
    """The compatibility constructor builds a new record and never aliases
    (or touches) the operation it copies."""
    op = Operation.rmw(3, "new", compare="old", client_id=4)
    first = OperationResult(op, OpStatus.OK, "new", 1.0, 2.0)
    second = OperationResult(op, OpStatus.ABORTED, None, 3.0, 5.0)
    assert first is not op and second is not first
    assert (first.op_type, first.key, first.payload, first.op_id, first.client_id) == (
        OpType.RMW, 3, "new", op.op_id, 4,
    )
    assert first.compare == "old"
    assert (first.status, first.value, first.latency) == (OpStatus.OK, "new", 1.0)
    assert (second.status, second.latency) == (OpStatus.ABORTED, 2.0)
    assert (op.status, op.value, op.start_time, op.end_time) == (None, None, 0.0, 0.0)
    assert first.op is first


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=50), st.floats(0.0, 1.0))
def test_percentile_matches_reference(values, fraction):
    assert percentile(values, fraction) == _reference_percentile(values, fraction)


def test_reduce_matches_reference_on_degenerate_inputs():
    one = [result(_OPS[OpType.READ], 1.0, 1.5)]
    zero_span = [result(_OPS[OpType.WRITE], 2.0, 2.0)] * 3
    for records in ([], one, zero_span):
        assert latency_summary(records) == _reference_latency_summary(records)
        assert throughput(records) == _reference_throughput(records)
    assert throughput(zero_span) == 0.0
    assert latency_summary(one).p99 == 0.5


def test_latency_summary_equal_neighbours_around_a_percentile_rank():
    # Ranks 94-96 of 101 sorted latencies hold the same value, submitted out
    # of order: p95 must take the short-circuit (exactly that value), as the
    # per-call-sorting reference does.
    latencies = [float(i) for i in range(101)]
    latencies[94] = latencies[95] = latencies[96] = 95.1
    records = [result(_OPS[OpType.READ], 0.0, latency) for latency in reversed(latencies)]
    summary = latency_summary(records)
    assert summary.p95 == 95.1
    assert summary == _reference_latency_summary(records)


# ------------------------------------------------------------------- report
def test_format_table_alignment_and_title():
    text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "| a   | bb |" in lines[1]
    assert all(len(line) == len(lines[1]) for line in lines[2:])
