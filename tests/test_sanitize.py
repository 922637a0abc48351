"""Tests for the opt-in runtime sanitizer (repro.analysis.sanitize).

The sanitizer is observer-only: the final test in this module re-runs a
smoke benchmark figure with ``REPRO_SANITIZE=1`` and asserts the artifact
is byte-identical to the committed baseline.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis.sanitize import (
    Sanitizer,
    SanitizerError,
    get_sanitizer,
    reset_sanitizer,
    sanitizer_enabled,
)
from repro.bench.runner import resolve_scale, run_figure
from repro.cluster.client import ClosedLoopClient, run_clients
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import NodeProcess
from repro.types import Operation, OpStatus, Transaction
from repro.workloads.generator import ScriptedOps
from tests.conftest import make_cluster, small_workload

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _sanitizer_cleanup():
    """Every test leaves the singleton dropped and ``random`` unwrapped."""
    yield
    reset_sanitizer()


@pytest.fixture
def sanitize_on(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


# ------------------------------------------------------------- env plumbing
class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitizer_enabled()
        assert get_sanitizer() is None

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitizer_enabled()
        assert get_sanitizer() is not None

    @pytest.mark.parametrize("value", ["0", "", "off", "no"])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitizer_enabled()

    def test_only_sanitizer_and_runner_read_the_environment(self):
        """No behaviour switch hides in an env var elsewhere under ``src/``."""

        def reads_environ(path: Path) -> bool:
            names = {"environ", "getenv"}
            return any(
                (isinstance(node, ast.Attribute) and node.attr in names)
                or (isinstance(node, ast.ImportFrom) and names & {a.name for a in node.names})
                for node in ast.walk(ast.parse(path.read_text()))
            )

        src = REPO_ROOT / "src" / "repro"
        readers = [p for p in sorted(src.rglob("*.py")) if reads_environ(p)]
        assert readers == [src / "analysis" / "sanitize.py", src / "bench" / "runner.py"]

    def test_singleton_reused_and_reset(self, sanitize_on):
        first = get_sanitizer()
        assert get_sanitizer() is first
        reset_sanitizer()
        assert get_sanitizer() is not first

    def test_reset_restores_random_module(self, sanitize_on):
        original = random.random
        get_sanitizer()
        assert random.random is not original
        reset_sanitizer()
        assert random.random is original


# ----------------------------------------------------------- fingerprinting
@dataclass(slots=True)
class _Msg:
    key: int
    values: dict


class TestFingerprint:
    def setup_method(self):
        self.san = Sanitizer()

    def test_primitives_verbatim(self):
        for value in (None, 3, 2.5, "x", b"y", True):
            assert self.san.fingerprint(value) == value

    def test_mutation_changes_fingerprint(self):
        payload = {"keys": [1, 2]}
        before = self.san.fingerprint(payload)
        payload["keys"].append(3)
        assert self.san.fingerprint(payload) != before

    def test_dataclass_fields_walked(self):
        msg = _Msg(key=1, values={"a": 1})
        before = self.san.fingerprint(msg)
        msg.values["a"] = 2
        assert self.san.fingerprint(msg) != before

    def test_distinguishes_container_kinds(self):
        assert self.san.fingerprint((1, 2)) != self.san.fingerprint([1, 2])

    def test_cycles_terminate(self):
        loop = []
        loop.append(loop)
        assert self.san.fingerprint(loop) == self.san.fingerprint(loop)

    def test_opaque_leaves_stable(self):
        fn = lambda: None  # noqa: E731
        assert self.san.fingerprint(fn) == self.san.fingerprint(fn)

    def test_verify_passes_unmutated(self):
        payload = (0, {"k": [1]})
        self.san.verify(payload, self.san.fingerprint(payload), node_id=0)

    def test_verify_raises_on_mutation(self):
        payload = (0, {"k": [1]})
        expected = self.san.fingerprint(payload)
        payload[1]["k"].append(2)
        with pytest.raises(SanitizerError, match="mutated after send"):
            self.san.verify(payload, expected, node_id=0)


# -------------------------------------------------------------- store guard
class _DummyStore:
    def __init__(self):
        self.data = {}

    def get(self, key):
        return self.data.get(key)

    def try_get_record(self, key):
        return self.data.get(key)

    def record(self, key):
        return self.data.setdefault(key, None)

    def peek_record(self, key):
        return self.data.get(key)

    def put(self, key, value):
        self.data[key] = value


class _Token:
    def __init__(self, node_id, guest_tag=0):
        self.node_id = node_id
        self.guest_tag = guest_tag


class TestStoreGuard:
    def setup_method(self):
        self.san = Sanitizer()
        self.owner = _Token(0, guest_tag=1)
        self.host = _Token(0)
        self.store = _DummyStore()
        self.san.guard_store(self.store, owner=self.owner, host=self.host)

    def test_unrestricted_outside_handlers(self):
        self.store.put("k", 1)
        assert self.store.get("k") == 1

    def test_owner_handler_may_access(self):
        self.san.begin_delivery(self.owner)
        try:
            self.store.put("k", 1)
            assert self.store.get("k") == 1
        finally:
            self.san.end_delivery()

    def test_host_dispatch_may_access(self):
        """ShardHost-level access (migration copy) is legitimate by design."""
        self.san.begin_delivery(self.host)
        try:
            self.store.put("k", 1)
        finally:
            self.san.end_delivery()

    def test_cross_replica_access_flagged(self):
        rogue = _Token(2, guest_tag=0)
        self.san.begin_delivery(rogue)
        try:
            with pytest.raises(SanitizerError, match="cross-replica state access"):
                self.store.get("k")
            with pytest.raises(SanitizerError, match="cross-replica state access"):
                self.store.put("k", 1)
            with pytest.raises(SanitizerError, match="cross-replica state access"):
                self.store.record("k")
        finally:
            self.san.end_delivery()


# --------------------------------------------------- simulator integration
class _Recorder(NodeProcess):
    """Minimal node: records payloads; optional misbehaviour on delivery."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []
        self.draw_global_rng = False

    def on_message(self, src, message):
        if self.draw_global_rng:
            random.random()
        self.received.append(message)

    def on_local_work(self, work):
        self.received.append(work)


def _pair(jitter=0.0):
    sim = Simulator()
    network = Network(sim, NetworkConfig(jitter=jitter))
    return sim, _Recorder(0, sim, network), _Recorder(1, sim, network)


class TestDeliveryIntegration:
    def test_clean_send_passes_and_is_checked(self, sanitize_on):
        sim, a, b = _pair()
        a.send(1, {"op": "write", "keys": [1, 2]}, size_bytes=64)
        sim.run()
        assert b.received == [{"op": "write", "keys": [1, 2]}]
        assert get_sanitizer().fingerprints_checked >= 1

    def test_mutation_after_send_caught(self, sanitize_on):
        sim, a, b = _pair()
        payload = {"op": "write", "keys": [1, 2]}
        a.send(1, payload, size_bytes=64)
        payload["keys"].append(3)  # the aliasing bug the zero-copy path forbids
        with pytest.raises(SanitizerError, match="mutated after send"):
            sim.run()

    def test_mutation_of_local_work_caught(self, sanitize_on):
        sim, a, _ = _pair()
        work = ["read", 7]
        a.submit_local(work, size_bytes=32)
        work[1] = 8
        with pytest.raises(SanitizerError, match="mutated after send"):
            sim.run()

    def test_handler_time_global_rng_flagged(self, sanitize_on):
        sim, a, b = _pair()
        b.draw_global_rng = True
        a.send(1, "ping", size_bytes=16)
        with pytest.raises(SanitizerError, match="unseeded randomness"):
            sim.run()

    def test_seeded_stream_allowed_in_handler(self, sanitize_on):
        sim, a, b = _pair()
        stream = random.Random(42)
        b.on_message = lambda src, message: b.received.append(stream.random())
        a.send(1, "ping", size_bytes=16)
        sim.run()
        assert len(b.received) == 1

    def test_timer_callback_guarded(self, sanitize_on):
        sim, a, _ = _pair()
        a.set_timer(0.001, random.random)
        with pytest.raises(SanitizerError, match="unseeded randomness"):
            sim.run()

    def test_global_rng_fine_outside_handlers(self, sanitize_on):
        get_sanitizer()
        random.random()  # harness/setup code is unaffected

    def test_disabled_means_no_entry_overhead(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim, a, b = _pair()
        assert a._sanitizer is None
        payload = {"keys": [1]}
        a.send(1, payload, size_bytes=64)
        payload["keys"].append(2)  # not detected (and not paid for) when off
        sim.run()
        assert b.received == [{"keys": [1, 2]}]


# ------------------------------------------------------ cluster level smoke
class TestClusterSanitized:
    def test_sanitized_cluster_runs_clean(self, sanitize_on):
        """A real Hermes cluster under load raises no sanitizer alarms."""
        cluster = make_cluster("hermes", 3)
        workload = small_workload(0.3)
        cluster.preload(workload.initial_dataset())
        client = ClosedLoopClient(0, cluster, workload, max_ops=50)
        run_clients(cluster, [client], max_time=1.0)
        assert client.done
        assert get_sanitizer().fingerprints_checked > 0
        assert get_sanitizer().stores_guarded >= 3

    def test_sharded_cluster_runs_clean(self, sanitize_on):
        cluster = make_cluster("hermes", 3, shards=2)
        workload = small_workload(0.3)
        cluster.preload(workload.initial_dataset())
        client = ClosedLoopClient(0, cluster, workload, max_ops=40)
        run_clients(cluster, [client], max_time=1.0)
        assert client.done


    def test_prepare_outliving_its_transaction_runs_clean(self, sanitize_on):
        """A 2PC prepare may be delivered after its transaction resolved.

        The prepare carries the member operations, and a member operation is
        also its client's record: the session fills in its outcome when the
        coordinator times out, while the prepare to the remote lock master
        is still crossing a slow link. Only an operation's request fields
        are part of the message, so that late delivery is not a mutation.
        """
        cluster = make_cluster("hermes", 3, shards=2)
        coordinator = cluster.replica(0).view.role_ring(0)[0]
        remote = cluster.replica(0).view.role_ring(1)[0]
        assert remote != coordinator
        shard_of = cluster.nodes[coordinator].router.shard_of
        keys = [next(key for key in range(100) if shard_of(key) == shard) for shard in (0, 1)]
        cluster.preload({key: b"v0" for key in keys})
        txn = Transaction(ops=[Operation.read(keys[0]), Operation.write(keys[1], b"v1")])
        # The prepare to shard 1's master lands far past the 2.5 ms
        # coordinator timeout.
        cluster.network.degrade_link(coordinator, remote, latency_factor=10_000.0)
        client = ClosedLoopClient(
            0, cluster, ScriptedOps({0: [txn]}), max_ops=1, replica_id=coordinator
        )
        run_clients(cluster, [client], max_time=1.0)
        assert [op.status for op in client.results] == [OpStatus.TIMEOUT] * 2
        # Deliver the late prepare (and the abort decision behind it).
        cluster.run(until=1.0)
        assert cluster.replica(remote, shard=1)._txn_participant is not None
        assert get_sanitizer().fingerprints_checked > 0


# --------------------------------------------------------- observer-only
@pytest.mark.parametrize("figure", ["9"])
def test_sanitized_smoke_figure_byte_identical(figure, tmp_path, sanitize_on):
    """REPRO_SANITIZE=1 must not perturb artifacts by a single byte."""
    baseline = REPO_ROOT / "bench-baselines" / "smoke" / f"BENCH_fig{figure}.json"
    run_figure(
        figure,
        resolve_scale("smoke"),
        seed=1,
        jobs=1,
        output_dir=str(tmp_path),
        print_tables=False,
    )
    fresh = tmp_path / baseline.name
    assert fresh.read_bytes() == baseline.read_bytes()
    assert get_sanitizer().fingerprints_checked > 0
