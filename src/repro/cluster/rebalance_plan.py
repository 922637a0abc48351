"""Shared shard-rebalance slice planning.

PR 5's live migration executes a :class:`~repro.membership.view.ShardMigration`
(freeze → copy → routing flip → release) but left the *choice* of slice to
each call site: ``figure_migrate`` hard-coded the half-way default target and
an ``owner_of`` closure that only understood a single operator-planned
migration. This module is the single source of truth both for the bench
figures and for the autoscaler (:mod:`repro.cluster.autoscale`), which plans
slices repeatedly against whatever chain is already applied.

All arithmetic here mirrors the routing layer exactly:

* keys split into ``(base shard, sub-index)`` via
  :func:`repro.membership.view.shard_and_sub`;
* a migration moves a key when its *routed* shard (the base shard with
  every earlier migration chained on top) equals the migration's source and
  the **base** sub-index satisfies ``sub % stride == offset`` — one
  :meth:`~repro.membership.view.ShardMigration.route` step, the same one
  :func:`repro.cluster.sharding.migration_predicate` and the router chain.

Everything is pure and deterministic: planning depends only on the prior
chain, never on wall clock or iteration order of unordered containers.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.membership.view import ShardMigration, shard_and_sub
from repro.types import Key


def default_target(source: int, num_shards: int) -> int:
    """The half-way-around default target shard for a migration.

    This is the exact formula ``figure_migrate`` has always used
    (``(source + num_shards // 2) % num_shards``), kept here so the figure
    and any caller that wants "the canonical cold choice absent load data"
    agree byte-for-byte.
    """
    if num_shards < 2:
        raise ConfigurationError("default_target requires num_shards >= 2")
    target = (source + num_shards // 2) % num_shards
    if target == source:  # num_shards == 1 is excluded above; unreachable
        raise ConfigurationError("degenerate migration: target equals source")
    return target


def routed_shard(
    key: Key, num_shards: int, migrations: Sequence[ShardMigration]
) -> int:
    """The shard owning ``key`` after applying ``migrations`` in chain order.

    Matches :meth:`repro.cluster.sharding.ShardRouter.shard_of` with the
    same chain applied — used by tests and figures to predict routing
    without instantiating a router.
    """
    shard, sub = shard_and_sub(key, num_shards)
    for migration in migrations:
        shard = migration.route(shard, sub)
    return shard


def owner_at(
    key: Key,
    num_shards: int,
    flips: Sequence[Tuple[ShardMigration, float]],
    time: float,
) -> int:
    """The shard serving ``key`` at simulated ``time``.

    ``flips`` lists ``(migration, flip_time)`` pairs in chain order — the
    order the routers applied them. A migration participates in the chain
    only once its flip has happened (``flip_time <= time``); because the
    service serializes migrations, a chain prefix by time is always a chain
    prefix by order. Replaces ``figure_migrate``'s single-migration
    ``owner_of`` closure, which broke as soon as a second rebalance chained
    on top.
    """
    shard, sub = shard_and_sub(key, num_shards)
    for migration, flip_time in flips:
        if flip_time > time:
            break
        shard = migration.route(shard, sub)
    return shard


def _routed_class(
    base: int, residue: int, migrations: Sequence[ShardMigration]
) -> int:
    """Routed shard of the whole key class ``(base, residue mod M)``.

    Only valid when every migration's stride divides the modulus the
    ``residue`` is taken under (the planner uses ``2 * lcm(strides)``), so
    the residue determines every migration's sub-index test.
    """
    shard = base
    for migration in migrations:
        shard = migration.route(shard, residue)
    return shard


def plan_migration(
    source: int,
    num_shards: int,
    prior: Iterable[ShardMigration] = (),
    target: Optional[int] = None,
) -> Optional[ShardMigration]:
    """Plan the next migration splitting ``source``'s current slice.

    The planned slice is chosen over the *routed* chain: with ``prior``
    migrations already applied, the keys currently served by ``source``
    fall into sub-index residue classes modulo ``stride = 2 * lcm(prior
    strides)``; the planner picks the residue class holding the largest
    share of ``source``'s current keys (ties broken by smallest offset, so
    the plan is deterministic) and moves it to ``target``.

    With ``prior=()`` this reproduces the operator default exactly:
    ``ShardMigration(source, target, stride=2, offset=0)`` — half the
    shard's base range. A second split of the same source yields
    ``stride=4, offset=1`` (half of the remaining half), and so on.

    Returns ``None`` when ``source`` currently owns no residue class (its
    whole range has already been migrated away) — there is nothing left to
    plan.

    Args:
        source: The hot shard to split (its *routed* slice).
        num_shards: Total shard count.
        prior: The cumulative applied migration chain, in order.
        target: Destination shard; defaults to :func:`default_target`.
    """
    if num_shards < 2:
        return None
    if not 0 <= source < num_shards:
        raise ConfigurationError(
            f"plan_migration source must lie in [0, {num_shards}); got {source}"
        )
    chain = tuple(prior)
    if target is None:
        target = default_target(source, num_shards)
    if not 0 <= target < num_shards or target == source:
        raise ConfigurationError(
            f"plan_migration target must lie in [0, {num_shards}) and differ "
            f"from source; got target={target}, source={source}"
        )
    stride = 2 * lcm(1, *(m.stride for m in chain))
    best_offset = -1
    best_weight = 0
    for offset in range(stride):
        weight = sum(
            1
            for base in range(num_shards)
            if _routed_class(base, offset, chain) == source
        )
        if weight > best_weight:
            best_weight = weight
            best_offset = offset
    if best_offset < 0:
        return None
    migration = ShardMigration(
        source=source, target=target, stride=stride, offset=best_offset
    )
    migration.validate(num_shards)
    return migration
