"""Request-stream generation.

A :class:`WorkloadMix` combines a key distribution with an operation mix
(write ratio, optional RMW ratio) and a value factory, and produces
:class:`~repro.types.Operation` objects on demand. Each client session owns
its own random stream so that runs are deterministic and adding clients does
not perturb the requests of existing ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.errors import WorkloadError
from repro.types import Key, Operation, OpType, Transaction, Value
from repro.workloads.distributions import KeyDistribution, UniformKeys

#: A callable producing the value for a write: ``factory(key, sequence) -> value``.
ValueFactory = Callable[[Key, int], Value]


def sized_value_factory(value_size: int) -> ValueFactory:
    """Return a factory producing byte payloads of ``value_size`` bytes.

    The payload encodes the key and a per-stream sequence number in its
    prefix, making every written value unique — a property the
    linearizability checker exploits.
    """

    def factory(key: Key, sequence: int) -> bytes:
        prefix = f"{key}:{sequence}:".encode("ascii")
        if len(prefix) >= value_size:
            return prefix[:value_size]
        return prefix + b"x" * (value_size - len(prefix))

    return factory


@dataclass
class WorkloadMix:
    """A request mix over a key distribution.

    Attributes:
        distribution: Key-access distribution.
        write_ratio: Fraction of operations that are updates (0.0 - 1.0).
        rmw_ratio: Fraction of *updates* that are RMWs rather than plain
            writes (Hermes-specific experiments; 0 for the paper's figures).
        value_size: Size of written values in bytes.
        value_factory: Optional custom value factory; defaults to unique
            byte payloads of ``value_size`` bytes.
        seed: Base seed; per-client streams derive from it.
        txn_fraction: Fraction of generated requests that are multi-key
            transactions (:class:`~repro.types.Transaction`) instead of
            single operations. ``0.0`` (the default) generates the classic
            single-op stream — byte-identical to pre-transaction workloads,
            since the transaction branch then consumes no random draws.
        txn_keys: Number of distinct keys per generated transaction.
        txn_cross_shard: Probability that a generated transaction spans at
            least two shards (its remaining keys are then unconstrained);
            with the complementary probability all of its keys are drawn
            from a single shard. Meaningful only when ``txn_num_shards > 1``.
        txn_num_shards: The deployment's shard count, used to steer key
            choice across or within shards (keys route exactly like
            :class:`repro.cluster.sharding.ShardRouter`).
    """

    distribution: KeyDistribution
    write_ratio: float = 0.05
    rmw_ratio: float = 0.0
    value_size: int = 32
    value_factory: Optional[ValueFactory] = None
    seed: int = 1
    txn_fraction: float = 0.0
    txn_keys: int = 2
    txn_cross_shard: float = 0.0
    txn_num_shards: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_ratio <= 1.0:
            raise WorkloadError("write_ratio must be within [0, 1]")
        if not 0.0 <= self.rmw_ratio <= 1.0:
            raise WorkloadError("rmw_ratio must be within [0, 1]")
        if self.value_size < 1:
            raise WorkloadError("value_size must be >= 1")
        if not 0.0 <= self.txn_fraction <= 1.0:
            raise WorkloadError("txn_fraction must be within [0, 1]")
        if not 0.0 <= self.txn_cross_shard <= 1.0:
            raise WorkloadError("txn_cross_shard must be within [0, 1]")
        if self.txn_keys < 1:
            raise WorkloadError("txn_keys must be >= 1")
        if self.txn_num_shards < 1:
            raise WorkloadError("txn_num_shards must be >= 1")
        if self.value_factory is None:
            self.value_factory = sized_value_factory(self.value_size)
        self._client_rngs: Dict[int, random.Random] = {}
        self._client_sequences: Dict[int, int] = {}
        self._txn_router = None

    @classmethod
    def uniform(cls, num_keys: int, write_ratio: float, **kwargs) -> "WorkloadMix":
        """Convenience constructor for a uniform mix."""
        return cls(distribution=UniformKeys(num_keys), write_ratio=write_ratio, **kwargs)

    # -------------------------------------------------------------- sampling
    def _rng_for(self, client_id: int) -> random.Random:
        rng = self._client_rngs.get(client_id)
        if rng is None:
            rng = random.Random((self.seed * 1_000_003 + client_id) & 0x7FFFFFFF)
            self._client_rngs[client_id] = rng
        return rng

    def next_operation(self, client_id: int) -> Operation:
        """Produce the next request for the given client session.

        Returns an :class:`~repro.types.Operation`, or — with probability
        ``txn_fraction`` — a multi-key :class:`~repro.types.Transaction`.
        """
        return self.draw(client_id, self._rng_for(client_id))

    def draw(self, client_id: int, rng: random.Random) -> Union[Operation, Transaction]:
        """Draw ``client_id``'s next request from ``rng``.

        The one draw order — txn-fraction check, key sample, write-ratio
        check, sequence bump, rmw check — of this mix and of every
        :class:`~repro.workloads.aggregate.AggregateWorkload` over it, which
        passes a per-session stream with ``random()`` in place of ``rng``.
        """
        if self.txn_fraction and rng.random() < self.txn_fraction:
            return self._next_transaction(client_id, rng)
        key = self.distribution.sample(rng)
        if rng.random() >= self.write_ratio:
            # Direct construction (not Operation.read): one operation is
            # generated per client request, so the classmethod hop counts.
            return Operation(OpType.READ, key, client_id=client_id)
        sequence = self._client_sequences.get(client_id, 0) + 1
        self._client_sequences[client_id] = sequence
        assert self.value_factory is not None
        value = self.value_factory(key, sequence * 1_000 + client_id)
        if self.rmw_ratio > 0.0 and rng.random() < self.rmw_ratio:
            return Operation.rmw(key, value, client_id=client_id)
        return Operation.write(key, value, client_id=client_id)

    # ---------------------------------------------------------- transactions
    def _shard_router(self):
        """The key→shard mapping (lazy import; workloads stay cluster-free)."""
        router = self._txn_router
        if router is None:
            from repro.cluster.sharding import ShardRouter

            router = self._txn_router = ShardRouter(self.txn_num_shards)
        return router

    def _force_shard(self, key: Key, shard: int) -> Optional[Key]:
        """Deterministically remap an integer key into ``shard`` (or None)."""
        if type(key) is not int:
            return None
        shards = self.txn_num_shards
        mapped = key - (key % shards) + shard
        if mapped >= self.distribution.num_keys:
            mapped -= shards
        if mapped < 0:
            return None
        return mapped

    def _next_transaction(self, client_id: int, rng: random.Random) -> Transaction:
        """Draw one multi-key transaction.

        The first key is drawn from the key distribution like any single
        operation; with probability ``txn_cross_shard`` the second key is
        steered to a *different* shard (remaining keys unconstrained),
        otherwise every key is steered to the first key's shard. Steering
        resamples from the distribution (so skew is preserved) and falls
        back to a deterministic modular remap when resampling misses.
        """
        sample = self.distribution.sample
        shard_of = self._shard_router().shard_of
        shards = self.txn_num_shards
        first = sample(rng)
        target = shard_of(first)
        keys = [first]
        cross = (
            shards > 1
            and self.txn_cross_shard > 0.0
            and rng.random() < self.txn_cross_shard
        )
        cross_satisfied = not cross
        while len(keys) < self.txn_keys:
            want_other_shard = not cross_satisfied
            key = None
            for _ in range(16):
                candidate = sample(rng)
                if candidate in keys:
                    continue
                candidate_shard = shard_of(candidate)
                if want_other_shard and candidate_shard == target:
                    continue
                if not cross and candidate_shard != target:
                    continue
                key = candidate
                break
            if key is None:
                # Resampling missed (e.g. a tiny or heavily skewed key
                # space): remap the next draw into the needed shard.
                desired = (target + 1) % shards if want_other_shard else target
                key = self._force_shard(sample(rng), desired)
                if key is None or key in keys:
                    break  # give up on this member; issue a smaller txn
            if want_other_shard and shard_of(key) != target:
                cross_satisfied = True
            keys.append(key)
        ops = []
        factory = self.value_factory
        assert factory is not None
        for key in keys:
            if rng.random() < self.write_ratio:
                sequence = self._client_sequences.get(client_id, 0) + 1
                self._client_sequences[client_id] = sequence
                ops.append(
                    Operation.write(key, factory(key, sequence * 1_000 + client_id), client_id)
                )
            else:
                ops.append(Operation(OpType.READ, key, client_id=client_id))
        return Transaction(ops=ops, client_id=client_id)

    def stream(self, client_id: int, count: int) -> Iterator[Operation]:
        """Yield ``count`` operations for one client."""
        for _ in range(count):
            yield self.next_operation(client_id)

    # ------------------------------------------------------------ preloading
    def initial_dataset(self) -> Dict[Key, Value]:
        """The initial key → value mapping to preload into every replica."""
        assert self.value_factory is not None
        return {key: self.value_factory(key, 0) for key in self.distribution.keys()}


class ScriptedOps:
    """A workload that replays precomputed per-client operation lists.

    Process-parallel shard execution generates the *unsharded* request
    stream once per shard worker and filters it down to the shard's keys
    (see :func:`repro.bench.harness.run_shard_experiment`); the surviving
    subsequence is replayed verbatim through this class. Replaying — rather
    than re-sampling — guarantees that the per-shard streams sum exactly to
    the unsharded stream: total operation counts, key choice and op mix are
    invariant under the shard count.

    Attributes:
        scripts: Client id → that client's operations, in issue order.
        seed: Seed exposed to client sessions (they fold it into their
            request-latency jitter streams).
    """

    def __init__(self, scripts: Dict[int, List[Operation]], seed: int = 1) -> None:
        self.scripts = scripts
        self.seed = seed
        self._cursor: Dict[int, int] = {client_id: 0 for client_id in scripts}

    def ops_for(self, client_id: int) -> int:
        """How many operations the script holds for ``client_id``."""
        return len(self.scripts.get(client_id, ()))

    def next_operation(self, client_id: int) -> Operation:
        """Replay the next scripted operation for the given client."""
        index = self._cursor[client_id]
        self._cursor[client_id] = index + 1
        return self.scripts[client_id][index]
