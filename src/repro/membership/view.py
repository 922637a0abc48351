"""Membership views, shard maps and leases.

A :class:`MembershipView` is the epoch-tagged set of live replicas. On
sharded clusters the view is *shard-aware*: it optionally carries a
:class:`ShardMap` describing the key→shard routing epoch, which is how live
shard migrations are propagated — a rebalance is just another Paxos-decided
view change whose shard map moves a slice of one shard's key range to
another shard (see :mod:`repro.cluster.sharding` for the execution side).

A :class:`Lease` is the time-bounded permission a replica holds to serve
requests under a given view; a replica whose lease has expired must stop
serving until it obtains a fresh lease (paper §2.4).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.types import Key, NodeId


def shard_and_sub(key: Key, num_shards: int) -> "Tuple[int, int]":
    """The (base shard, sub-index) of a key under stable hash partitioning.

    The single source of truth for how keys split into a shard and a
    within-shard sub-index: integers partition by modulo, other key types
    by CRC-32 of their ``repr`` (stable across processes and Python hash
    randomization). Freeze filters, migration copies and slice predicates
    all build on this; :class:`repro.cluster.sharding.ShardRouter` inlines
    the same arithmetic on its per-operation hot path — keep them in sync.
    """
    if type(key) is int:
        return key % num_shards, key // num_shards
    digest = zlib.crc32(repr(key).encode("utf-8"))
    return digest % num_shards, digest // num_shards


@dataclass(frozen=True)
class ShardMigration:
    """A transfer of part of one shard's key range to another shard.

    The migrated slice is described declaratively so it travels compactly
    inside views: of the keys hash-partitioned to ``source``, every key
    whose sub-index (the key's position within the shard's range) is
    congruent to ``offset`` modulo ``stride`` moves to ``target``. The
    default ``stride=2, offset=0`` moves half of the source shard's range.

    Attributes:
        source: Shard currently owning the migrated keys.
        target: Shard that owns them after the flip.
        stride: Modulus of the sub-index filter selecting migrated keys.
        offset: Residue of the sub-index filter.
    """

    source: int
    target: int
    stride: int = 2
    offset: int = 0

    def validate(self, num_shards: int) -> None:
        """Raise :class:`ConfigurationError` for invalid settings."""
        if not 0 <= self.source < num_shards or not 0 <= self.target < num_shards:
            raise ConfigurationError(
                f"migration shards must lie in [0, {num_shards}); "
                f"got source={self.source}, target={self.target}"
            )
        if self.source == self.target:
            raise ConfigurationError("migration source and target must differ")
        if self.stride < 1 or not 0 <= self.offset < self.stride:
            raise ConfigurationError("migration requires stride >= 1 and 0 <= offset < stride")

    def route(self, shard: int, sub: int) -> int:
        """One step of the routing chain: the shard a key routed to
        ``shard``, with base sub-index ``sub``, is owned by after this
        migration.

        The one spelling of the step: the router, the freeze predicate and
        the rebalance planner all chain migrations through it. A valid
        migration's target differs from its source, so a key moves exactly
        when the step changes its shard.
        """
        if shard == self.source and sub % self.stride == self.offset:
            return self.target
        return shard

    def matches(self, key: Key, num_shards: int) -> bool:
        """Whether ``key`` belongs to the migrated slice, over the **base**
        mapping.

        Uses the same base hash as :class:`repro.cluster.sharding.ShardRouter`
        (modulo for integer keys, CRC-32 otherwise). For a first migration
        this is exactly the set the router re-routes after the flip; when
        earlier migrations already moved keys, the execution layer
        evaluates the slice against the routed chain instead (see
        :func:`repro.cluster.sharding.migration_predicate`).
        """
        base, sub = shard_and_sub(key, num_shards)
        return self.route(base, sub) != base


#: Phases a shard map moves through while a migration is in flight.
SHARD_MAP_PREPARING = "preparing"
SHARD_MAP_ACTIVE = "active"
#: A migration abandoned before its flip (e.g. a node crashed mid-freeze):
#: nodes unfreeze and release parked operations back to the source shard;
#: routing never moved.
SHARD_MAP_CANCELLED = "cancelled"


@dataclass(frozen=True)
class ShardMap:
    """Epoch-tagged key→shard routing state carried by shard-aware views.

    Attributes:
        epoch: Routing epoch; routers only ever move forward to higher
            epochs (:meth:`repro.cluster.sharding.ShardRouter.apply`).
        migrations: The **cumulative** ordered migrations applied on top of
            the base hash mapping — routers must retain every completed
            rebalance, not only the newest, so each successive shard map
            carries the whole chain. During ``preparing``/``active`` the
            in-flight migration is ``migrations[-1]``.
        phase: ``"preparing"`` while the migrated keys are frozen and
            copied; ``"active"`` once routers must serve the new mapping;
            ``"cancelled"`` when an in-flight migration was abandoned
            (``migrations`` then excludes it — routing never moved).
        cancelled: The abandoned migration of a ``cancelled`` map (nodes
            use it to unfreeze the parked operations at its source).
    """

    epoch: int
    migrations: Tuple[ShardMigration, ...] = ()
    phase: str = SHARD_MAP_ACTIVE
    cancelled: Optional[ShardMigration] = None


@dataclass(frozen=True)
class MembershipView:
    """An epoch-tagged membership of live replicas.

    Attributes:
        epoch_id: Monotonically increasing configuration number. Messages are
            tagged with the sender's epoch and dropped on mismatch.
        members: The set of node ids considered live in this epoch.
        shard_map: Key→shard routing state on sharded clusters (``None``
            for unsharded deployments and sharded ones that never migrated).
    """

    epoch_id: int
    members: FrozenSet[NodeId]
    shard_map: Optional[ShardMap] = None

    @classmethod
    def initial(cls, members: Iterable[NodeId]) -> "MembershipView":
        """The first view (epoch 1) over the given members."""
        frozen = frozenset(members)
        if not frozen:
            raise ConfigurationError("membership view requires at least one member")
        return cls(epoch_id=1, members=frozen)

    def without(self, *failed: NodeId) -> "MembershipView":
        """A successor view with ``failed`` removed and the epoch bumped."""
        remaining = self.members - frozenset(failed)
        if not remaining:
            raise ConfigurationError("cannot remove every member from the view")
        return MembershipView(
            epoch_id=self.epoch_id + 1, members=remaining, shard_map=self.shard_map
        )

    def with_added(self, *joined: NodeId) -> "MembershipView":
        """A successor view with ``joined`` added and the epoch bumped."""
        return MembershipView(
            epoch_id=self.epoch_id + 1,
            members=self.members | frozenset(joined),
            shard_map=self.shard_map,
        )

    def with_shard_map(self, shard_map: ShardMap) -> "MembershipView":
        """A successor view installing ``shard_map`` with the epoch bumped."""
        return MembershipView(
            epoch_id=self.epoch_id + 1, members=self.members, shard_map=shard_map
        )

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` is a member of this view."""
        return node in self.members

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.members)

    def majority(self) -> int:
        """Size of a majority quorum of this view."""
        return len(self.members) // 2 + 1

    def others(self, node: NodeId) -> FrozenSet[NodeId]:
        """Members other than ``node``."""
        return self.members - {node}

    def role_ring(self, shard: int) -> Tuple[NodeId, ...]:
        """The members sorted, then rotated by ``shard``: the one placement
        rule. Shard ``shard``'s roles follow ring position (ZAB's leader,
        Derecho's sequencer and the 2PC lock master at ``ring[0]``, chains
        in ring order), so shards spread their hotspots across nodes."""
        members = sorted(self.members)
        rotation = shard % len(members)
        return tuple(members[rotation:] + members[:rotation])


@dataclass
class Lease:
    """A membership lease held by a replica.

    Attributes:
        epoch_id: The epoch for which the lease is valid.
        expires_at: Local-clock time at which the lease expires.
    """

    epoch_id: int
    expires_at: float

    def valid(self, local_time: float) -> bool:
        """Whether the lease is still valid at the given local-clock time."""
        return local_time < self.expires_at

    def renewed(self, new_expiry: float) -> "Lease":
        """Return a copy of this lease extended to ``new_expiry``."""
        return Lease(epoch_id=self.epoch_id, expires_at=max(self.expires_at, new_expiry))
