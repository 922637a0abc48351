"""The paper's figures and tables, declared as data.

:data:`FIGURES` maps every ``--figure`` key to a :class:`Figure` record and
is the one place a figure is declared: the runner's ``--figure`` choices and
``--shards`` guards, the docs check and CI all read it. Most parts are
:class:`Grid` values — an experiment grid plus the reducer that turns its
results into table rows — run by :func:`sweep`. Parts that drive a scenario
(a crash, a live migration, a flash crowd), calibrate their grid from a
probe, or judge every cell's history stay functions returning a
:class:`FigureResult`.

Every result's rows mirror the series the paper plots, plus a ``data``
mapping for programmatic access (used by the benchmark assertions). Results
are deterministic for a given seed and scale preset.

The absolute numbers differ from the paper (the substrate is a Python
discrete-event simulator, not a 56 Gb InfiniBand testbed); the assertions in
``benchmarks/`` check the *shape*: who wins, roughly by how much, and where
the qualitative effects (leader bottleneck, tail hotspot, unavailability
window) appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.analysis.stats import throughput_timeseries
from repro.bench.harness import ExperimentResult, ExperimentSpec, Scale, build_workload
from repro.bench.runner import run_cells
from repro.cluster.autoscale import AutoscaleConfig
from repro.cluster.client import ClosedLoopClient
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.cluster.rebalance_plan import default_target, owner_at
from repro.core.config import HermesConfig
from repro.errors import BenchmarkError
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig, PlannedMigration
from repro.membership.view import ShardMigration
from repro.protocols.base import protocol_registry
from repro.sim.node import ServiceTimeModel
from repro.verification import check_all
from repro.verification.history import History
from repro.workloads.distributions import ShiftingHotspotKeys, UniformKeys
from repro.workloads.generator import WorkloadMix
from repro.workloads.presets import preset_spec_kwargs


#: Write ratios evaluated by Figures 5 and 6 of the paper.
PAPER_WRITE_RATIOS: Tuple[float, ...] = (0.01, 0.05, 0.20, 0.50, 0.75, 1.00)

#: The three protocols compared in the main throughput/latency figures.
MAIN_PROTOCOLS: Tuple[str, ...] = ("hermes", "craq", "zab")

#: Replication degrees swept by Figure 7.
REPLICA_COUNTS: Tuple[int, ...] = (3, 5, 7)

#: Object sizes (bytes) swept by Figure 8.
OBJECT_SIZES: Tuple[int, ...] = (32, 256, 1024)

#: Write ratio of the open-loop sweep and of its capacity probe.
OPEN_LOOP_WRITE_RATIO: float = 0.20

#: Shard counts of the open-loop sweep: the unsharded ladder plus coupled
#: S-shard deployments offered the same absolute ladder.
OPEN_LOOP_SHARD_COUNTS: Tuple[int, ...] = (1, 4)

#: Open-loop ladder rungs as fractions of each protocol's measured
#: closed-loop capacity: two points below saturation, one at it, one past
#: it — the hockey stick is guaranteed to sit inside the sweep regardless
#: of protocol speed or scale preset.
OPEN_LOOP_LADDER_FRACTIONS: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)

#: Auto-calibrated loads are rounded to this granularity (ops/s) so the
#: ladder stays readable and stable against sub-percent capacity wobble.
_LADDER_ROUNDING = 10_000.0

#: Workload presets swept by the RMW-mix figure (see repro.workloads.presets).
RMW_MIX_PRESETS: Tuple[str, ...] = (
    "read-heavy",
    "update-heavy",
    "rmw-heavy",
    "skewed-rmw-heavy",
)

#: Shard counts swept by the shard-scaling and transaction figures.
SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)

#: Cross-shard probabilities swept by the transaction figure.
TXN_CROSS_SHARD_POINTS: Tuple[float, ...] = (0.0, 0.5, 1.0)

#: Fraction of client requests that are transactions in the txn figure.
TXN_FRACTION: float = 0.25

#: Keys per transaction in the txn figure. Three keys give every shard
#: count a clearly monotone abort-rate response to the cross-shard
#: probability (more locks per transaction, wider cross-shard spans).
TXN_KEYS: int = 3

#: ``txn_fraction`` axis of the transaction-grid figure.
TXN_FRACTION_POINTS: Tuple[float, ...] = (0.1, 0.25, 0.5)

#: ``txn_keys`` axis of the transaction-grid figure.
TXN_KEYS_POINTS: Tuple[int, ...] = (2, 3, 4)

#: Shard count held fixed by the transaction-grid figure (mid-sweep point
#: of :data:`SHARD_COUNTS`, large enough that cross-shard 2PC dominates).
TXN_GRID_SHARDS: int = 4

#: Cross-shard probability held fixed by the transaction-grid figure.
TXN_GRID_CROSS_SHARD: float = 0.5

#: Session populations swept by the user-count figure.
USER_SWEEP_SESSIONS: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)

#: Shard counts swept by the user-count figure (parallel execution: each
#: shard owns a dedicated simulation over its key partition).
USER_SWEEP_SHARD_COUNTS: Tuple[int, ...] = (8, 16, 32, 64)

#: Aggregate offered load (operations per simulated second) held fixed
#: across every usersweep cell, so delivered throughput and latency isolate
#: the session-count and shard-count axes.
USER_SWEEP_OFFERED_LOAD: float = 2.0e6


@dataclass
class FigureResult:
    """A reproduced table or figure.

    Attributes:
        figure: Identifier, e.g. ``"Figure 5a"``.
        headers: Column headers of the rendered table.
        rows: Table rows.
        data: Structured access to the numbers, keyed per experiment.
        notes: Free-form notes (what the paper reported, caveats).
    """

    figure: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    data: Dict = field(default_factory=dict)
    notes: str = ""

    def table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(self.headers, self.rows, title=self.figure)


# ---------------------------------------------------------------------------
# Declarations: a grid, a figure, and the one sweep that runs grids
# ---------------------------------------------------------------------------
Cells = List[Tuple[Hashable, ExperimentSpec]]
Runs = Dict[Hashable, ExperimentResult]
Row = Tuple[Dict[Hashable, object], List[object]]
Reducer = Callable[[Runs], Iterable[Row]]


@dataclass(frozen=True)
class Grid:
    """A figure that is one experiment grid: cells in, one table out.

    Attributes:
        title: Table title (``FigureResult.figure``).
        headers: Column headers.
        notes: Notes stamped into the artifact.
        cells: ``scale -> [(key, spec), ...]``, the grid in run order. Each
            spec's ``label`` is part of its derived seed.
        rows: ``runs -> [(data, row), ...]``: every table row with the
            ``data`` entries it reports, where ``runs`` maps each cell key
            to its result in cell order.
    """

    title: str
    headers: Sequence[str]
    notes: str
    cells: Callable[[Scale], Cells]
    rows: Reducer


def sweep(
    grid: Grid,
    scale: Optional[Scale] = None,
    seed: int = 1,
    jobs: Optional[int] = None,
    overrides: Optional[Dict[str, object]] = None,
) -> FigureResult:
    """Run a grid (seeds derived from ``seed``, ``jobs`` workers, every cell
    given the ``overrides`` spec fields) and tabulate it."""
    runs = run_cells(
        grid.cells(scale or Scale.default()), root_seed=seed, jobs=jobs, spec_overrides=overrides
    )
    result = FigureResult(grid.title, list(grid.headers), notes=grid.notes)
    for data, row in grid.rows(runs):
        result.data.update(data)
        result.rows.append(row)
    return result


Part = Union[Grid, Callable[..., FigureResult]]


@dataclass(frozen=True)
class Figure:
    """One ``--figure`` key: its parts and the facts the runner needs.

    Attributes:
        parts: One :class:`FigureResult` each, in artifact order: a
            :class:`Grid`, or a function. A function of a scaled figure takes
            ``(scale, seed, jobs)``; of a scale-independent one, ``seed`` and
            ``shards`` when ``sharded``, otherwise nothing.
        scaled: ``--scale`` applies; otherwise the artifact stamps
            ``"scale": null``.
        sharded: The scenario takes ``--shards`` as its ``shards`` argument
            and always runs coupled (grids get ``--shards``/``--shard-mode``
            as cell overrides instead; scaled functions own their shard
            axes and get neither).
        min_shards: The fewest shards the scenario runs on. An explicitly
            selected figure with fewer is rejected; ``--figure all`` runs it
            at its own default instead.
        parallel: The figure may run under ``--shard-mode parallel``.
    """

    parts: Tuple[Part, ...]
    scaled: bool = True
    sharded: bool = False
    min_shards: int = 1
    parallel: bool = True


# ---------------------------------------------------------------------------
# Row reducers shared by several grids
# ---------------------------------------------------------------------------
def _throughput_columns(leading: Callable[[Hashable], List[object]]) -> Reducer:
    """Rows over consecutive cells sharing ``leading(key)`` (the row's first
    columns), with one throughput column per cell."""

    def rows(runs: Runs) -> Iterable[Row]:
        for lead, group in groupby(runs.items(), key=lambda item: leading(item[0])):
            throughputs = {key: run.throughput for key, run in group}
            yield throughputs, [*lead, *(f"{value:,.0f}" for value in throughputs.values())]

    return rows


_TXN_COLUMNS = ["throughput", "txns_committed", "txns_aborted", "abort_rate", "p99_us"]


def _txn_rows(leading: Callable[[Hashable], List[object]]) -> Reducer:
    """One row per transaction cell: ``leading(key)``, then :data:`_TXN_COLUMNS`."""

    def rows(runs: Runs) -> Iterable[Row]:
        for key, run in runs.items():
            stats = run.cluster_stats
            committed, aborted = stats["txns_committed"], stats["txns_aborted"]
            finished = committed + aborted
            abort_rate = aborted / finished if finished else 0.0
            p99 = run.overall_latency.p99_us
            data = {
                "throughput": run.throughput,
                "txns_committed": committed,
                "txns_aborted": aborted,
                "txns_cross_shard": stats["txns_cross_shard"],
                "abort_rate": abort_rate,
                "p99_us": p99,
            }
            row = [f"{run.throughput:,.0f}", committed, aborted, f"{abort_rate:.3f}", f"{p99:.1f}"]
            yield {key: data}, [*leading(key), *row]

    return rows


# ---------------------------------------------------------------------------
# Figures 5 and 6: throughput and latency vs write ratio, latency vs load
# ---------------------------------------------------------------------------
def _throughput_sweep(skewed: bool) -> Grid:
    """Figure 5a (uniform) or 5b (zipfian 0.99): throughput vs write ratio on
    5 nodes. The title is also every cell's label."""
    title = "Figure 5b (throughput, zipfian 0.99)" if skewed else "Figure 5a (throughput, uniform)"
    return Grid(
        title=title,
        headers=["write_ratio", *MAIN_PROTOCOLS],
        notes="throughput in completed operations per simulated second",
        cells=lambda scale: [
            (
                (protocol, ratio),
                ExperimentSpec(
                    protocol=protocol,
                    num_replicas=5,
                    write_ratio=ratio,
                    zipfian_exponent=0.99 if skewed else None,
                    label=title,
                ).with_scale(scale),
            )
            for ratio in PAPER_WRITE_RATIOS
            for protocol in MAIN_PROTOCOLS
        ],
        rows=_throughput_columns(lambda key: [f"{key[1]:.0%}"]),
    )


def _load_cells(scale: Scale) -> Cells:
    """Figure 6a: offered load swept via closed-loop clients per replica."""
    cells: Cells = []
    for protocol in MAIN_PROTOCOLS:
        spec = ExperimentSpec(protocol=protocol, write_ratio=0.05, label="fig6a").with_scale(scale)
        cells += [((protocol, n), replace(spec, clients_per_replica=n)) for n in (1, 2, 4, 8)]
    return cells


def _load_rows(runs: Runs) -> Iterable[Row]:
    for (protocol, clients), run in runs.items():
        point = (run.throughput, run.overall_latency.median_us, run.overall_latency.p99_us)
        row = [protocol, clients, f"{point[0]:,.0f}", f"{point[1]:.1f}", f"{point[2]:.1f}"]
        yield {(protocol, clients): point}, row


def _latency_sweep(skewed: bool) -> Grid:
    """Figure 6b (uniform) or 6c (zipfian 0.99): read/write median and 99th
    latency vs write ratio. The title is also every cell's label."""
    title = (
        "Figure 6c (latency vs write ratio, zipfian 0.99)"
        if skewed
        else "Figure 6b (latency vs write ratio, uniform)"
    )
    return Grid(
        title=title,
        headers=[
            "protocol",
            "write_ratio",
            "read_median_us",
            "read_p99_us",
            "write_median_us",
            "write_p99_us",
        ],
        notes="latencies measured at a fixed offered load (paper: rCRAQ peak load)",
        cells=lambda scale: [
            (
                (protocol, ratio),
                ExperimentSpec(
                    protocol=protocol,
                    write_ratio=ratio,
                    zipfian_exponent=0.99 if skewed else None,
                    label=title,
                ).with_scale(scale),
            )
            for protocol in ("hermes", "craq")
            for ratio in PAPER_WRITE_RATIOS
        ],
        rows=_latency_rows,
    )


def _latency_rows(runs: Runs) -> Iterable[Row]:
    for (protocol, ratio), run in runs.items():
        read, write = run.read_latency, run.write_latency
        data = {
            "read_median_us": read.median_us,
            "read_p99_us": read.p99_us,
            "write_median_us": write.median_us,
            "write_p99_us": write.p99_us,
            "throughput": run.throughput,
        }
        yield {(protocol, ratio): data}, [
            protocol,
            f"{ratio:.0%}",
            f"{read.median_us:.1f}",
            f"{read.p99_us:.1f}",
            f"{write.median_us:.1f}",
            f"{write.p99_us:.1f}",
        ]


# ---------------------------------------------------------------------------
# Figure 8: comparison to Derecho (write-only, varying object size)
# ---------------------------------------------------------------------------
def _derecho_rows(runs: Runs) -> Iterable[Row]:
    for size in OBJECT_SIZES:
        hermes = runs[("hermes", size)].throughput
        derecho = runs[("derecho", size)].throughput
        ratio = hermes / derecho if derecho else float("inf")
        row = [f"{size}B", f"{hermes:,.0f}", f"{derecho:,.0f}", f"{ratio:.1f}x"]
        yield {size: {"hermes": hermes, "derecho": derecho, "ratio": ratio}}, row


# ---------------------------------------------------------------------------
# Open-loop (Poisson) offered-load sweep — the open-loop counterpart of
# Figures 5/6: external load is fixed, not completion-driven, so queueing
# delay appears as soon as a protocol saturates.
# ---------------------------------------------------------------------------
def probe_protocol_capacities(
    scale: Scale, seed: int = 1, jobs: Optional[int] = None
) -> Dict[str, float]:
    """Measure each main protocol's closed-loop capacity at the open-loop mix.

    One saturating closed-loop cell per protocol — the same simulation a
    Figure 5 grid cell runs — whose steady-state throughput approximates
    the protocol's service capacity. The probe goes through
    :func:`run_cells`, so its seeds derive from the cell identities and the
    figure's root seed: the measured capacities (and hence the calibrated
    ladder) are fully deterministic for a given ``(scale, seed)``.
    """
    cells = [
        (
            protocol,
            ExperimentSpec(
                protocol=protocol,
                write_ratio=OPEN_LOOP_WRITE_RATIO,
                label="openloop-probe",
            ).with_scale(scale),
        )
        for protocol in MAIN_PROTOCOLS
    ]
    runs = run_cells(cells, root_seed=seed, jobs=jobs)
    return {protocol: runs[protocol].throughput for protocol in MAIN_PROTOCOLS}


def calibrated_ladder(capacity: float) -> List[float]:
    """Offered-load points derived from a measured protocol capacity."""
    return [
        max(_LADDER_ROUNDING, round(capacity * fraction / _LADDER_ROUNDING) * _LADDER_ROUNDING)
        for fraction in OPEN_LOOP_LADDER_FRACTIONS
    ]


def figure_open_loop(
    scale: Optional[Scale] = None, seed: int = 1, jobs: Optional[int] = None
) -> FigureResult:
    """Delivered throughput and latency versus Poisson offered load.

    Every session issues requests at a fixed aggregate rate regardless of
    completions (:class:`~repro.cluster.client.OpenLoopClient`). Below
    saturation the delivered throughput tracks the offered load and latency
    stays flat; past a protocol's capacity the delivered curve plateaus and
    latency grows with the backlog — the classic open-loop hockey stick
    that closed-loop sweeps (Figure 6a) understate.

    The ladder is **auto-calibrated per protocol**: a quick closed-loop
    capacity probe (:func:`probe_protocol_capacities`) measures each
    protocol's saturation throughput, and the sweep offers 0.5x, 1.0x, 1.5x
    and 2.0x of it — so every protocol's curve shows its own knee, instead
    of a fixed absolute ladder that under-drives fast protocols and floods
    slow ones.

    :data:`OPEN_LOOP_SHARD_COUNTS` adds a key-range sharding axis: the same
    absolute ladder (calibrated against the unsharded protocol) is offered
    to coupled sharded deployments, showing how role spreading moves the
    saturation knee without changing the offered load. ``S = 1`` rows and
    their derived seeds are identical to the pre-axis sweep.
    """
    scale = scale or Scale.default()
    capacities = probe_protocol_capacities(scale, seed=seed, jobs=jobs)
    rungs = {
        protocol: list(zip(OPEN_LOOP_LADDER_FRACTIONS, calibrated_ladder(capacities[protocol])))
        for protocol in MAIN_PROTOCOLS
    }

    def cell_key(protocol: str, shards: int, index: int) -> Tuple:
        # S=1 keeps the pre-axis cell keys; sharded cells add S.
        return (protocol, index) if shards == 1 else (protocol, shards, index)

    def cells(scale: Scale) -> Cells:
        base = ExperimentSpec(write_ratio=OPEN_LOOP_WRITE_RATIO, label="openloop").with_scale(scale)
        return [
            (
                cell_key(protocol, shards, index),
                replace(
                    base, protocol=protocol, client_model="open", offered_load=load, shards=shards
                ),
            )
            for shards in OPEN_LOOP_SHARD_COUNTS
            for protocol in MAIN_PROTOCOLS
            for index, (_, load) in enumerate(rungs[protocol])
        ]

    def rows(runs: Runs) -> Iterable[Row]:
        for protocol in MAIN_PROTOCOLS:
            for shards in OPEN_LOOP_SHARD_COUNTS:
                for index, (fraction, load) in enumerate(rungs[protocol]):
                    run = runs[cell_key(protocol, shards, index)]
                    rung = f"{fraction:.1f}x"
                    # S=1 keeps the pre-axis data keys; sharded rows add S.
                    data_key = (
                        (protocol, rung, index) if shards == 1 else (protocol, shards, rung, index)
                    )
                    latency = run.overall_latency
                    point = {
                        "offered": load,
                        "delivered": run.throughput,
                        "median_us": latency.median_us,
                        "p99_us": latency.p99_us,
                    }
                    row = [protocol, shards, rung, f"{load:,.0f}", f"{run.throughput:,.0f}"]
                    row += [f"{latency.median_us:.1f}", f"{latency.p99_us:.1f}"]
                    yield {(protocol, "capacity"): capacities[protocol], data_key: point}, row

    grid = Grid(
        title="Open-loop sweep (Poisson arrivals, 20% writes, uniform)",
        headers=[
            "protocol", "shards", "ladder", "offered_ops_s",
            "delivered_ops_s", "median_us", "p99_us",
        ],
        notes=(
            "offered load split evenly across all sessions; Poisson arrivals; "
            "ladder auto-calibrated per protocol from a closed-loop capacity probe"
            "; sharded rows offer the same absolute ladder to coupled "
            "S-shard deployments"
        ),
        cells=cells,
        rows=rows,
    )
    return sweep(grid, scale, seed, jobs)


# ---------------------------------------------------------------------------
# RMW-heavy workload mixes (paper §3.6: RMWs are conflicting and may abort)
# ---------------------------------------------------------------------------
def _rmw_cells(scale: Scale) -> Cells:
    """Hermes across named workload presets, including 50%-RMW mixes.

    The ``rmw-heavy`` presets exercise the conflicting-update path (CRMW
    rules): aborts appear under key contention, which the skewed variant
    amplifies. A control row runs the rmw-heavy mix with RMW support
    disabled (every RMW degrades to a plain write) to expose the protocol
    cost of RMW semantics at identical load.
    """
    cells = [
        (
            preset,
            replace(
                ExperimentSpec(protocol="hermes", label="rmw-mix").with_scale(scale),
                **preset_spec_kwargs(preset),
            ),
        )
        for preset in RMW_MIX_PRESETS
    ]
    control = ExperimentSpec(
        protocol="hermes", hermes=HermesConfig(enable_rmw=False), label="rmw-mix-control"
    ).with_scale(scale)
    cells.append(("rmw-heavy (as writes)", replace(control, **preset_spec_kwargs("rmw-heavy"))))
    return cells


def _rmw_rows(runs: Runs) -> Iterable[Row]:
    for label, run in runs.items():
        write, aborted = run.write_latency, run.cluster_stats["rmws_aborted"]
        data = {
            "throughput": run.throughput,
            "write_median_us": write.median_us,
            "write_p99_us": write.p99_us,
            "rmws_aborted": aborted,
        }
        yield {label: data}, [
            label,
            f"{run.throughput:,.0f}",
            f"{write.median_us:.1f}",
            f"{write.p99_us:.1f}",
            aborted,
        ]


# ---------------------------------------------------------------------------
# Shard scaling: key-range partitioned protocol groups (HermesKV's
# multi-threaded partitioning, §6, as a scale-out axis)
# ---------------------------------------------------------------------------
def _shard_scale(skewed: bool) -> Grid:
    """Aggregate throughput as the key space is partitioned into S shards.

    Two execution models are compared at every shard count:

    * **coupled** — all S protocol groups share the same five simulated
      nodes (one :class:`~repro.cluster.sharding.ShardHost` CPU/NIC budget
      per node, like HermesKV threads sharing a machine). Throughput gains
      come only from spreading placed protocol roles — the ZAB leader, the
      chain head/tail — across nodes, not from extra compute.
    * **parallel** — each shard owns a dedicated simulation over its key
      partition and replays its slice of the unsharded request stream; the
      runner executes the shards in separate worker processes and merges
      the metrics deterministically. This is the scale-out model: aggregate
      throughput grows with S.

    ``S = 1`` is the classic unsharded deployment and anchors both columns.

    ``skewed`` (``shardskew``) runs the same grid with zipfian(0.99) keys:
    hash partitioning (integer keys map by modulo) spreads the head of the
    distribution across shards, so parallel-mode scaling survives skew,
    while per-shard load imbalance and hot-key write serialization compress
    the gains relative to the uniform sweep — the effect it quantifies.
    """
    base = ExperimentSpec(
        write_ratio=0.20,
        zipfian_exponent=0.99 if skewed else None,
        label="shardskew" if skewed else "shardscale",
    )

    def cells(scale: Scale) -> Cells:
        cells: Cells = []
        for protocol in MAIN_PROTOCOLS:
            spec = replace(base, protocol=protocol).with_scale(scale)
            cells.append(((protocol, 1, "base"), spec))
            for shards in SHARD_COUNTS[1:]:  # S=1 is the base cell
                cells.append(((protocol, shards, "coupled"), replace(spec, shards=shards)))
                cells.append(
                    (
                        (protocol, shards, "parallel"),
                        replace(spec, shards=shards, shard_mode="parallel"),
                    )
                )
        return cells

    return Grid(
        title=(
            "Shard scaling under skew (key-range partitioned groups, 20% writes, zipfian 0.99)"
            if skewed
            else "Shard scaling (key-range partitioned groups, 20% writes, uniform)"
        ),
        headers=["protocol", "shards", "coupled_ops_s", "parallel_ops_s", "parallel_speedup"],
        notes=(
            "coupled: shards share node CPU/NIC on one simulated cluster; "
            "parallel: independent shards merged across worker processes; "
            "speedup is parallel throughput relative to the same protocol at S=1"
        ),
        cells=cells,
        rows=_shard_scale_rows,
    )


def _shard_scale_rows(runs: Runs) -> Iterable[Row]:
    for protocol in MAIN_PROTOCOLS:
        base = runs[(protocol, 1, "base")]
        for shards in SHARD_COUNTS:
            if shards == 1:
                coupled = parallel = base
            else:
                coupled = runs[(protocol, shards, "coupled")]
                parallel = runs[(protocol, shards, "parallel")]
            speedup = parallel.throughput / base.throughput if base.throughput else 0.0
            data = {
                "coupled": coupled.throughput,
                "parallel": parallel.throughput,
                "parallel_speedup": speedup,
            }
            yield {(protocol, shards): data}, [
                protocol,
                shards,
                f"{coupled.throughput:,.0f}",
                f"{parallel.throughput:,.0f}",
                f"{speedup:.2f}x",
            ]


# ---------------------------------------------------------------------------
# Cross-shard transactions: 2PC over shard groups (repro.cluster.txn)
# ---------------------------------------------------------------------------
def _txn_cells(scale: Scale) -> Cells:
    """Multi-key transactions over shard groups: cross-shard cost and aborts.

    Sweeps the cross-shard probability of a ``txn_mix`` workload
    (:data:`TXN_FRACTION` of requests are :data:`TXN_KEYS`-key
    transactions, zipfian(0.99) keys for contention) at S ∈
    :data:`SHARD_COUNTS` coupled shards. Expected shape:

    * a ``txn off`` control per shard count isolates the transaction
      layer's overhead at identical load;
    * at fixed S > 1, the **abort rate rises monotonically with the
      cross-shard probability**: cross-shard transactions hold their
      no-wait key locks across the full two-phase round instead of a
      single lock-master visit, widening the conflict window;
    * ``S = 1`` runs every transaction as a one-phase prepare
      (``txns_cross_shard == 0``) regardless of the requested cross-shard
      probability, so only the 0.0 point is swept.
    """
    base = ExperimentSpec(
        protocol="hermes", write_ratio=0.5, zipfian_exponent=0.99, label="txn"
    ).with_scale(scale)
    cells: Cells = []
    for shards in SHARD_COUNTS:
        cells.append(((shards, "off"), replace(base, shards=shards)))
        for cross in TXN_CROSS_SHARD_POINTS if shards > 1 else TXN_CROSS_SHARD_POINTS[:1]:
            cells.append(
                (
                    (shards, cross),
                    replace(
                        base,
                        shards=shards,
                        txn_fraction=TXN_FRACTION,
                        txn_keys=TXN_KEYS,
                        txn_cross_shard=cross,
                    ),
                )
            )
    return cells


def _txn_grid_cells(scale: Scale) -> Cells:
    """The contention surface: ``txn_fraction`` x ``txn_keys`` at fixed shards.

    Complements the txn figure (which sweeps the cross-shard probability)
    by sweeping the other two transaction-grid axes at S =
    :data:`TXN_GRID_SHARDS` coupled shards and a 50% cross-shard
    probability. Expected shape:

    * at fixed ``txn_keys``, raising ``txn_fraction`` grows the absolute
      number of aborts roughly linearly — more transactions contend for
      the same zipfian-hot locks;
    * at fixed ``txn_fraction``, raising ``txn_keys`` raises the **abort
      rate**: every extra key is another no-wait lock the transaction must
      win, and another chance to span a second shard and hold its locks
      across the full 2PC round.
    """
    base = ExperimentSpec(
        protocol="hermes",
        write_ratio=0.5,
        zipfian_exponent=0.99,
        shards=TXN_GRID_SHARDS,
        txn_cross_shard=TXN_GRID_CROSS_SHARD,
        label="txngrid",
    ).with_scale(scale)
    return [
        ((fraction, keys), replace(base, txn_fraction=fraction, txn_keys=keys))
        for fraction in TXN_FRACTION_POINTS
        for keys in TXN_KEYS_POINTS
    ]


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------
def _optimization_cells(scale: Scale) -> Cells:
    """Hermes optimizations O1 (skip VALs), O2 (virtual ids), O3 (ACK broadcast)."""
    variants: Dict[str, HermesConfig] = {
        "baseline (O1 on)": HermesConfig(),
        "no O1 (always VAL)": HermesConfig(skip_unneeded_vals=False),
        "O2 (4 virtual ids)": HermesConfig(virtual_ids_per_node=4),
        "O3 (broadcast ACKs)": HermesConfig(broadcast_acks=True),
    }
    return [
        (
            label,
            ExperimentSpec(
                protocol="hermes", write_ratio=0.20, hermes=config, label="ablation-opt"
            ).with_scale(scale),
        )
        for label, config in variants.items()
    ]


def _optimization_rows(runs: Runs) -> Iterable[Row]:
    for label, run in runs.items():
        messages = run.cluster_stats["messages_sent"]
        p99 = run.write_latency.p99_us
        data = {"throughput": run.throughput, "write_p99_us": p99, "messages_sent": messages}
        yield {label: data}, [label, f"{run.throughput:,.0f}", f"{p99:.1f}", messages]


def _wings_rows(runs: Runs) -> Iterable[Row]:
    for label, run in runs.items():
        packets = run.cluster_stats["messages_sent"]
        data = {"throughput": run.throughput, "network_packets": packets}
        yield {label: data}, [label, f"{run.throughput:,.0f}", packets]


# ---------------------------------------------------------------------------
# Million-session user sweep on the aggregated client model
# ---------------------------------------------------------------------------
def figure_usersweep(
    scale: Optional[Scale] = None, seed: int = 1, jobs: Optional[int] = None
) -> FigureResult:
    """Million-session sweep on the aggregated client model.

    Sweeps the synthetic session population against the shard count with
    one open-loop :class:`~repro.cluster.client.AggregatedClient` generator
    per node (``client_model="aggregated"``) and parallel shard execution.
    The simulated *work* per cell is fixed by the scale preset
    (``clients_per_replica * ops_per_client`` operations per node), so a
    10^6-session cell costs the same simulation effort as a 10^3-session
    one — the point of the aggregated model, and what makes "millions of
    users" a smoke-scale run. Every cell records a history and stamps the
    full ``check_all`` verdict into the artifact: scaling the population
    must not cost protocol fidelity.

    Wall-clock throughput (simulated users served per second of real time,
    the model's headline number) is deliberately *not* written into the
    artifact — artifacts are byte-deterministic at any ``--jobs`` — and is
    measured separately by ``scripts/usersweep_speedup.py``.
    """
    scale = scale or Scale.default()
    base = ExperimentSpec(
        protocol="hermes",
        write_ratio=0.05,
        zipfian_exponent=0.99,
        label="usersweep",
        record_history=True,
    ).with_scale(scale)
    cells = [
        (
            (sessions, shards),
            replace(
                base,
                client_model="aggregated",
                sessions=sessions,
                offered_load=USER_SWEEP_OFFERED_LOAD,
                shards=shards,
                shard_mode="parallel",
            ),
        )
        for sessions in USER_SWEEP_SESSIONS
        for shards in USER_SWEEP_SHARD_COUNTS
    ]
    runs = run_cells(cells, root_seed=seed, jobs=jobs, keep_results=True)

    # The preloaded dataset is seed-independent (values are factory(key, 0)),
    # so one workload instance serves every cell's checker.
    initial_values = build_workload(cells[0][1]).initial_dataset()
    result = FigureResult(
        figure="User sweep (hermes, aggregated client model, zipfian 0.99, 5% writes)",
        headers=[
            "sessions",
            "shards",
            "delivered_ops_s",
            "median_us",
            "p99_us",
            "completed_ops",
            "check_all_ok",
        ],
        notes=(
            "one aggregated generator per node stands in for sessions/"
            "num_replicas sessions (merged Poisson arrivals at "
            f"{USER_SWEEP_OFFERED_LOAD:,.0f} ops/s aggregate); simulation "
            "cost is bounded by the scale preset's op budget, independent "
            "of the session count; check_all verdicts cover every cell's "
            "merged per-shard history; wall-clock users/sec is measured by "
            "scripts/usersweep_speedup.py (not stored: artifacts are "
            "byte-deterministic)"
        ),
    )
    all_ok = True
    for (sessions, shards), run in runs.items():
        report = check_all(run.history, initial_values=initial_values)
        all_ok = all_ok and report.ok
        median_us, p99_us = run.overall_latency.median * 1e6, run.overall_latency.p99 * 1e6
        result.data[(sessions, shards)] = {
            "sessions": sessions,
            "shards": shards,
            "offered_ops_s": USER_SWEEP_OFFERED_LOAD,
            "delivered_ops_s": run.throughput,
            "completed_ops": len(run.results),
            "median_us": median_us,
            "p99_us": p99_us,
            "check_all_ok": report.ok,
            "checks": report.summary(),
        }
        result.rows.append(
            [
                sessions,
                shards,
                f"{run.throughput:,.0f}",
                f"{median_us:.2f}",
                f"{p99_us:.2f}",
                len(run.results),
                report.ok,
            ]
        )
    result.notes += f"; all cells check_all_ok={all_ok}"
    return result


# ---------------------------------------------------------------------------
# Scenario figures: one bespoke, scale-independent cluster each
# ---------------------------------------------------------------------------
def _membership(detection_timeout: float = 0.150, **extra) -> MembershipConfig:
    """The scenarios' RM service: 40 ms leases renewed every 10 ms, 10 ms pings."""
    return MembershipConfig(
        lease_duration=0.040,
        renewal_interval=0.010,
        detection=FailureDetectorConfig(ping_interval=0.010, detection_timeout=detection_timeout),
        **extra,
    )


def _start_clients(
    cluster: Cluster,
    workload: WorkloadMix,
    clients_per_replica: int,
    think_time: float,
    history: Optional[History],
) -> List[ClosedLoopClient]:
    """Start ``clients_per_replica`` unbounded closed-loop sessions on every
    node (client ids in node order)."""
    clients = [
        ClosedLoopClient(
            client_id=client_id,
            cluster=cluster,
            workload=workload,
            max_ops=10**9,
            think_time=think_time,
            replica_id=node_id,
            history=history,
        )
        for client_id, node_id in enumerate(
            node_id for node_id in cluster.node_ids for _ in range(clients_per_replica)
        )
    ]
    for client in clients:
        client.start()
    return clients


def figure_9_failure(
    shards: int = 1,
    num_replicas: int = 5,
    num_keys: int = 1_000,
    crash_time: float = 0.060,
    detection_timeout: float = 0.150,
    total_time: float = 0.400,
    clients_per_replica: int = 3,
    seed: int = 1,
) -> FigureResult:
    """Figure 9: HermesKV throughput before, during and after a node failure.

    A five-node Hermes deployment runs with the RM service enabled (5%
    writes, 120 us think time); one node is crashed at ``crash_time``. Live
    nodes block on the failed node's ACKs, throughput collapses, and once
    the conservative detection timeout and the outstanding leases expire the
    membership is reliably updated and throughput recovers (at a lower
    steady state, since one replica is gone).

    With ``shards > 1`` the same scenario runs on a sharded cluster: one
    per-node membership stack serves every co-hosted shard, the crashed node
    is a shard's transaction lock master (so in-flight 2PC aborts and
    lock-table recovery are exercised — 10% of requests are 2-key
    transactions), the node is recovered 200 ms after the crash (it rejoins
    as a live process but stays outside the view), and the run records a
    full history that is checked for per-key linearizability and
    transaction atomicity. The unsharded default is byte-identical to the
    classic Figure 9 setup.
    """
    sharded = shards > 1
    window = 0.010
    config = ClusterConfig(
        protocol="hermes",
        num_replicas=num_replicas,
        shards=shards,
        seed=seed,
        run_membership_service=True,
        membership=_membership(detection_timeout),
    )
    cluster = Cluster(config)
    workload = WorkloadMix(
        distribution=UniformKeys(num_keys),
        write_ratio=0.05,
        value_size=32,
        seed=seed,
        txn_fraction=0.10 if sharded else 0.0,
        txn_keys=2,
        txn_cross_shard=0.5 if sharded else 0.0,
        txn_num_shards=shards,
    )
    cluster.preload(workload.initial_dataset())

    # Unsharded: crash the last node (the classic setup). Sharded: crash a
    # shard's lock master so transaction recovery is exercised too. The
    # schedule is declarative (FailureEvent list through a FailureInjector):
    # arming schedules exactly one engine event per fault at the same code
    # position the hand-wired crash_at/schedule_at pair used to, so the
    # event-sequence allocation — and hence every artifact byte — is
    # unchanged.
    crashed_node = (shards - 1) % num_replicas if sharded else max(cluster.node_ids)
    recover_time = crash_time + 0.200
    faults = [FailureEvent.crash(crash_time, crashed_node)]
    if sharded and recover_time < total_time:
        faults.append(FailureEvent.recover(recover_time, crashed_node))
    FailureInjector(cluster, faults).arm()

    history = History() if sharded else None
    # Clients of the failed node simply stop completing requests after the
    # crash; including them shows the lower post-recovery steady state (one
    # replica's worth of serving capacity is gone).
    clients = _start_clients(cluster, workload, clients_per_replica, 120e-6, history)
    cluster.run(until=total_time)

    results = [r for client in clients for r in client.results]
    series = throughput_timeseries(results, window=window, end_time=total_time)

    reconfig_times = (
        cluster.membership_service.reconfiguration_times if cluster.membership_service else []
    )
    result = FigureResult(
        figure="Figure 9 (throughput under a node failure)"
        + (f", {shards} shards" if sharded else ""),
        headers=["time_ms", "ops_per_sec"],
        notes=(
            f"node {crashed_node} crashed at {crash_time * 1e3:.0f} ms; "
            f"membership reconfigured at "
            + ", ".join(f"{t * 1e3:.1f} ms" for t in reconfig_times)
        ),
    )
    for time_s, ops in series:
        result.rows.append([f"{time_s * 1e3:.0f}", f"{ops:,.0f}"])
    result.data = {
        "series": series,
        "crash_time": crash_time,
        "reconfiguration_times": reconfig_times,
        "window": window,
    }
    if sharded:
        report = check_all(history, initial_values=workload.initial_dataset())
        txn_report = report.checker("transactions")
        participants = [
            replica._txn_participant
            for replica in cluster.all_replicas()
            if replica._txn_participant is not None
        ]
        result.data.update(
            {
                "shards": shards,
                "recover_time": recover_time,
                "linearizable": report.passed("linearizability"),
                "txn_check_ok": txn_report.ok,
                "txns_committed": cluster.txn_stat("txns_committed"),
                "txns_aborted": cluster.txn_stat("txns_aborted"),
                "txns_timedout": cluster.txn_stat("txns_timedout"),
                "txns_view_aborted": cluster.txn_stat("txns_view_aborted"),
                "participant_view_aborts": sum(p.view_change_aborts for p in participants),
            }
        )
        result.notes += (
            f"; sharded run verified: linearizable={result.data['linearizable']}, "
            f"txn atomicity={txn_report.ok} "
            f"({txn_report.details['committed']} committed / "
            f"{txn_report.details['aborted']} aborted txns)"
        )
    return result


# ---------------------------------------------------------------------------
# Live shard migration: view-change-driven rebalance of a key range
# ---------------------------------------------------------------------------
def figure_migrate(shards: int = 4, seed: int = 1) -> FigureResult:
    """Live shard migration: throughput rebalances across shard groups.

    A sharded five-node Hermes cluster (20% writes) runs with the RM
    service enabled; at 80 ms the service starts a planned rebalance moving
    half of shard 0's key range to the opposite shard (freeze → copy
    through the target protocol's replicated write path → Paxos-decided
    routing flip → release of parked operations). The figure reports each
    shard's served throughput before and after the flip: the source's share
    drops by roughly the migrated fraction and the target's share rises by
    the same amount, while the run's full history passes the per-key
    linearizability checker and the migration-atomicity checker (no
    operation observes pre-migration state after the flip).
    """
    if shards < 2:
        raise BenchmarkError("figure migrate requires shards >= 2")
    source_shard, migrate_time, total_time = 0, 0.080, 0.240
    # The "opposite" shard (2 of 4 at the default), so --shards S just
    # works for any S >= 2.
    target_shard = default_target(source_shard, shards)
    migration = ShardMigration(source=source_shard, target=target_shard)
    config = ClusterConfig(
        protocol="hermes",
        num_replicas=5,
        shards=shards,
        seed=seed,
        run_membership_service=True,
        membership=_membership(
            migrations=[PlannedMigration(at_time=migrate_time, migration=migration)]
        ),
    )
    cluster = Cluster(config)
    workload = WorkloadMix(
        distribution=UniformKeys(1_000), write_ratio=0.20, value_size=32, seed=seed
    )
    cluster.preload(workload.initial_dataset())

    history = History()
    clients = _start_clients(cluster, workload, 3, 120e-6, history)
    cluster.run(until=total_time)

    records = cluster.migration_records
    if not records:
        raise BenchmarkError("the planned migration did not complete within the run")
    record = records[0]
    flip_time = record.flip_time

    # Per-shard served ops, attributed to the owning shard at completion
    # time: migrated keys count toward the source before the flip and the
    # target after it.
    results = [r for c in clients for r in c.results if r.ok]
    flips = [(record.migration, record.flip_time) for record in records]

    # Measurement windows clear of the start-up ramp and the freeze window.
    pre_lo, pre_hi = migrate_time * 0.25, migrate_time
    post_lo, post_hi = flip_time + 0.010, total_time - 0.010
    pre_counts = [0] * shards
    post_counts = [0] * shards
    for r in results:
        end = r.end_time
        if pre_lo <= end < pre_hi:
            pre_counts[owner_at(r.key, shards, flips, end)] += 1
        elif post_lo <= end < post_hi:
            post_counts[owner_at(r.key, shards, flips, end)] += 1
    pre_span = pre_hi - pre_lo
    post_span = post_hi - post_lo

    report = check_all(
        history,
        initial_values=workload.initial_dataset(),
        migration_records=[record],
    )
    linearizable = report.passed("linearizability")
    migration_check = report.checker("migration")

    result = FigureResult(
        figure=f"Live shard migration ({shards} shards, half of shard "
        f"{source_shard} -> shard {target_shard})",
        headers=["shard", "pre_ops_s", "post_ops_s", "post/pre"],
        notes=(
            f"migration started at {migrate_time * 1e3:.0f} ms, froze at "
            f"{record.freeze_time * 1e3:.2f} ms, copied {len(record.values)} keys, "
            f"flipped at {flip_time * 1e3:.2f} ms; linearizable={linearizable}, "
            f"migration atomicity={migration_check.ok} "
            f"({migration_check.details['reads_checked']} post-flip reads checked)"
        ),
    )
    for shard in range(shards):
        pre_rate = pre_counts[shard] / pre_span if pre_span > 0 else 0.0
        post_rate = post_counts[shard] / post_span if post_span > 0 else 0.0
        ratio = post_rate / pre_rate if pre_rate else 0.0
        result.data[shard] = {"pre_ops_s": pre_rate, "post_ops_s": post_rate, "ratio": ratio}
        result.rows.append([shard, f"{pre_rate:,.0f}", f"{post_rate:,.0f}", f"{ratio:.2f}x"])
    result.data["summary"] = {
        "migrated_keys": len(record.values),
        "freeze_time": record.freeze_time,
        "frozen_time": record.frozen_time,
        "copied_time": record.copied_time,
        "flip_time": flip_time,
        "linearizable": linearizable,
        "migration_check_ok": migration_check.ok,
        "post_flip_reads_checked": migration_check.details["reads_checked"],
    }
    return result


# ---------------------------------------------------------------------------
# Flash crowd: elastic resharding under a shifting zipfian hot head
# ---------------------------------------------------------------------------
def figure_flashcrowd(shards: int = 4, seed: int = 1) -> FigureResult:
    """Flash crowd vs the autoscaler: aggregate throughput recovery.

    A four-node chain-replication deployment (tail-only linearizable reads —
    the classic CR hot-spot weakness) runs a read-heavy (5% writes)
    zipfian(0.5) workload over 128 keys per shard whose entire key
    population lives on one shard; at 100 ms the crowd shifts to a
    different shard (:class:`~repro.workloads.distributions.
    ShiftingHotspotKeys`). Per-node CPU is modelled single-core so the hot
    shard's tail genuinely saturates: aggregate throughput is capped by
    one node while three idle.

    The same seeded scenario runs twice: a ``policy=off`` control row, and
    a ``policy=on`` row where the autoscale loop co-hosted with the
    membership service (:mod:`repro.cluster.autoscale`) watches per-shard
    load and splits the hot shard's slice to cold shards through the live
    freeze/copy/flip pipeline — including re-splitting after the crowd
    shifts. The artifact reports per-window per-shard throughput for both
    rows, the migration rounds the policy executed, and the post-shift
    aggregate recovery ratio (``policy=on`` / ``policy=off``), with the
    full verification stack (linearizability + transaction atomicity +
    migration atomicity) stamped per row.
    """
    if shards < 2:
        raise BenchmarkError("figure flashcrowd requires shards >= 2")
    shift_time, total_time, window = 0.100, 0.300, 0.020
    num_keys = 128 * shards
    initial_hot = 0
    shifted_hot = 1 % shards
    # Post-shift measurement starts once the policy has had time to detect
    # the new hot shard and re-split it (a few sampling windows plus
    # migration rounds); both rows use the same windows.
    post_lo, post_hi = shift_time + 0.060, total_time - 0.010
    pre_lo, pre_hi = shift_time * 0.30, shift_time

    def scenario(policy_on: bool) -> Dict[str, object]:
        autoscale = (
            AutoscaleConfig(
                interval=8e-3,
                window_ticks=2,
                imbalance_threshold=1.6,
                min_ops_per_window=200,
                cooldown=12e-3,
                max_rounds=8,
                seed=seed,
            )
            if policy_on
            else None
        )
        config = ClusterConfig(
            protocol="cr",
            num_replicas=4,
            shards=shards,
            seed=seed,
            run_membership_service=True,
            membership=_membership(autoscale=autoscale),
            # Single-core nodes: the flash crowd must be able to saturate
            # the hot shard's tail (the default 20-thread model never
            # binds at client counts a bespoke figure can afford).
            service_model=ServiceTimeModel(base=2e-6, send_overhead=0.5e-6, worker_threads=1),
        )
        cluster = Cluster(config)
        distribution = ShiftingHotspotKeys(num_keys, shards, hot_shard=initial_hot, exponent=0.5)
        workload = WorkloadMix(
            distribution=distribution, write_ratio=0.05, value_size=32, seed=seed
        )
        cluster.preload(workload.initial_dataset())
        history = History()
        clients = _start_clients(cluster, workload, 6, 5e-6, history)
        cluster.sim.schedule_at(shift_time, distribution.set_hot_shard, shifted_hot)
        cluster.run(until=total_time)

        records = cluster.migration_records
        flips = [(record.migration, record.flip_time) for record in records]
        results = [r for c in clients for r in c.results if r.ok]

        num_windows = int(round(total_time / window))
        per_window = [[0] * shards for _ in range(num_windows)]
        for r in results:
            index = int(r.end_time / window)
            if 0 <= index < num_windows:
                per_window[index][owner_at(r.key, shards, flips, r.end_time)] += 1
        series = [
            {
                "time": index * window,
                "per_shard_ops_s": [count / window for count in counts],
                "total_ops_s": sum(counts) / window,
            }
            for index, counts in enumerate(per_window)
        ]
        pre_ops = sum(1 for r in results if pre_lo <= r.end_time < pre_hi)
        post_ops = sum(1 for r in results if post_lo <= r.end_time < post_hi)

        report = check_all(
            history,
            initial_values=workload.initial_dataset(),
            migration_records=records,
        )
        service = cluster.membership_service
        autoscaler = cluster.autoscaler
        return {
            "series": series,
            "pre_rate": pre_ops / (pre_hi - pre_lo),
            "post_rate": post_ops / (post_hi - post_lo),
            "rounds": [
                {
                    "time": entry.time,
                    "source": entry.migration.source,
                    "target": entry.migration.target,
                    "stride": entry.migration.stride,
                    "offset": entry.migration.offset,
                }
                for entry in (autoscaler.rounds if autoscaler else [])
            ],
            "migrations_completed": len(records),
            "migrations_cancelled": service.migrations_cancelled,
            "check_all_ok": report.ok,
            "checks": report.summary(),
        }

    off = scenario(False)
    on = scenario(True)
    recovery_ratio = on["post_rate"] / off["post_rate"] if off["post_rate"] else 0.0

    result = FigureResult(
        figure=f"Flash crowd vs autoscale ({shards} shards, hot shard "
        f"{initial_hot} -> {shifted_hot} at {shift_time * 1e3:.0f} ms)",
        headers=["policy", "window_ms", *[f"shard{s}_ops_s" for s in range(shards)], "total_ops_s"],
        notes=(
            f"post-shift aggregate recovery {recovery_ratio:.2f}x "
            f"(policy=on {on['post_rate']:,.0f} ops/s vs policy=off "
            f"{off['post_rate']:,.0f} ops/s over [{post_lo * 1e3:.0f}, "
            f"{post_hi * 1e3:.0f}) ms); {len(on['rounds'])} autoscale rounds, "
            f"{on['migrations_cancelled']} cancelled; check_all: "
            f"off={off['check_all_ok']}, on={on['check_all_ok']}"
        ),
    )
    for policy, row_data in (("off", off), ("on", on)):
        for entry in row_data["series"]:
            result.rows.append(
                [
                    policy,
                    f"{entry['time'] * 1e3:.0f}",
                    *[f"{rate:,.0f}" for rate in entry["per_shard_ops_s"]],
                    f"{entry['total_ops_s']:,.0f}",
                ]
            )
    result.data = {
        "off": off,
        "on": on,
        "recovery_ratio": recovery_ratio,
        "shift_time": shift_time,
        "window": window,
        "shards": shards,
        "post_window": [post_lo, post_hi],
    }
    return result


# ---------------------------------------------------------------------------
# Table 2: protocol feature comparison
# ---------------------------------------------------------------------------
def table_2_features() -> FigureResult:
    """Table 2: read/write feature comparison of the evaluated systems."""
    registry = protocol_registry()
    result = FigureResult(
        figure="Table 2 (protocol features)",
        headers=[
            "system",
            "local reads",
            "leases",
            "consistency",
            "inter-key concurrent",
            "decentralized",
            "write latency (RTT)",
        ],
    )
    for name in ("hermes", "craq", "zab", "derecho", "cr"):
        features = registry[name].features()
        result.data[name] = features
        result.rows.append(
            [
                features.name,
                "yes" if features.local_reads else "no",
                features.leases,
                features.consistency,
                "yes" if features.inter_key_concurrent_writes else "no",
                "yes" if features.decentralized_writes else "no",
                features.write_latency_rtt,
            ]
        )
    return result


# ---------------------------------------------------------------------------
# The figure table
# ---------------------------------------------------------------------------
#: Every ``--figure`` key, in ``--figure`` help order (``--figure all`` runs
#: them sorted by key).
FIGURES: Dict[str, Figure] = {
    "5": Figure((_throughput_sweep(skewed=False), _throughput_sweep(skewed=True))),
    "6": Figure(
        (
            Grid(
                title="Figure 6a (latency vs throughput, 5% writes, uniform)",
                headers=["protocol", "clients/replica", "throughput", "median_us", "p99_us"],
                notes="offered load swept via closed-loop clients per replica",
                cells=_load_cells,
                rows=_load_rows,
            ),
            _latency_sweep(skewed=False),
            _latency_sweep(skewed=True),
        )
    ),
    "7": Figure(
        (
            Grid(
                title="Figure 7 (scalability with replication degree)",
                headers=["write_ratio", "protocol", *[f"{n} nodes" for n in REPLICA_COUNTS]],
                notes="",
                cells=lambda scale: [
                    (
                        (protocol, ratio, replicas),
                        ExperimentSpec(
                            protocol=protocol,
                            num_replicas=replicas,
                            write_ratio=ratio,
                            label="fig7",
                        ).with_scale(scale),
                    )
                    for ratio in (0.01, 0.20)
                    for protocol in MAIN_PROTOCOLS
                    for replicas in REPLICA_COUNTS
                ],
                rows=_throughput_columns(lambda key: [f"{key[1]:.0%}", key[0]]),
            ),
        )
    ),
    "8": Figure(
        (
            Grid(
                title="Figure 8 (Hermes single-thread vs Derecho, write-only)",
                headers=["object_size", "hermes", "derecho", "ratio"],
                notes="both systems limited to one worker thread per node (paper §6.5)",
                cells=lambda scale: [
                    (
                        (protocol, size),
                        ExperimentSpec(
                            protocol=protocol,
                            write_ratio=1.0,
                            value_size=size,
                            worker_threads=1,
                            label="fig8",
                        ).with_scale(scale),
                    )
                    for size in OBJECT_SIZES
                    for protocol in ("hermes", "derecho")
                ],
                rows=_derecho_rows,
            ),
        )
    ),
    "9": Figure((figure_9_failure,), scaled=False, sharded=True, parallel=False),
    "migrate": Figure(
        (figure_migrate,), scaled=False, sharded=True, min_shards=2, parallel=False
    ),
    "flashcrowd": Figure(
        (figure_flashcrowd,), scaled=False, sharded=True, min_shards=2, parallel=False
    ),
    "table2": Figure((table_2_features,), scaled=False),
    "ablations": Figure(
        (
            Grid(
                title="Ablation: Hermes protocol optimizations",
                headers=["variant", "throughput", "write_p99_us", "messages_sent"],
                notes="",
                cells=_optimization_cells,
                rows=_optimization_rows,
            ),
            Grid(
                title="Ablation: Wings opportunistic batching",
                headers=["transport", "throughput", "network_packets"],
                notes="",
                cells=lambda scale: [
                    (
                        label,
                        ExperimentSpec(
                            protocol="hermes",
                            write_ratio=0.20,
                            use_wings=use_wings,
                            label="ablation-wings",
                        ).with_scale(scale),
                    )
                    for label, use_wings in (("direct", False), ("wings batching", True))
                ],
                rows=_wings_rows,
            ),
        )
    ),
    # Open-loop Poisson sessions cannot be split across independent shard
    # simulations (parallel mode replays closed-loop streams only).
    "openloop": Figure((figure_open_loop,), parallel=False),
    "rmw": Figure(
        (
            Grid(
                title="RMW-heavy workload mixes (Hermes)",
                headers=["preset", "throughput", "write_median_us", "write_p99_us", "rmws_aborted"],
                notes="rmw-heavy = 50% reads / 50% RMWs; control row degrades RMWs to writes",
                cells=_rmw_cells,
                rows=_rmw_rows,
            ),
        )
    ),
    "shardscale": Figure((_shard_scale(skewed=False),)),
    "shardskew": Figure((_shard_scale(skewed=True),)),
    "txn": Figure(
        (
            Grid(
                title="Cross-shard transactions (2PC over shard groups, zipfian 0.99)",
                headers=["shards", "cross_shard_p", *_TXN_COLUMNS],
                notes=(
                    f"{TXN_FRACTION:.0%} of requests are {TXN_KEYS}-key transactions; "
                    "no-wait locks at per-shard lock masters; aborts are lock "
                    "conflicts; 'off' rows run the identical workload without "
                    "transactions"
                ),
                cells=_txn_cells,
                rows=_txn_rows(
                    lambda key: [key[0], key[1] if key[1] == "off" else f"{key[1]:.1f}"]
                ),
            ),
        )
    ),
    "txngrid": Figure(
        (
            Grid(
                title=(
                    f"Transaction grid (txn_fraction x txn_keys, {TXN_GRID_SHARDS} coupled "
                    "shards, zipfian 0.99)"
                ),
                headers=["txn_fraction", "txn_keys", *_TXN_COLUMNS],
                notes=(
                    f"{TXN_GRID_CROSS_SHARD:.0%} of generated transactions span shards; "
                    "no-wait locks at per-shard lock masters; aborts are lock "
                    "conflicts"
                ),
                cells=_txn_grid_cells,
                rows=_txn_rows(lambda key: [f"{key[0]:.2f}", key[1]]),
            ),
        )
    ),
    "usersweep": Figure((figure_usersweep,)),
}
