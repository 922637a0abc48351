"""Key-access distributions.

Two distributions cover the paper's evaluation: uniform (Figures 5a, 6a, 6b,
7, 8, 9) and zipfian with exponent 0.99 (Figures 5b, 6c), the skew used by
YCSB and by the related systems the paper cites.

Zipfian sampling precomputes the cumulative distribution once and samples
with binary search, so drawing a key is O(log n) and building the
distribution is O(n) — fast enough for the paper's one-million-key dataset.
The distribution is packed doubles behind a ``memoryview`` (8 B per rank,
not a 24 B boxed float and an 8 B list slot); ``bisect`` finds the same rank
in it.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.types import Key


class KeyDistribution:
    """Base class for key-access distributions over ``num_keys`` integer keys.

    The key objects are built once, as a list: :meth:`keys` returns it and
    every :meth:`sample` returns one of its elements, so the preloaded
    dataset, the stores and every generated operation share one ``int`` per
    key instead of one per draw.
    """

    def __init__(self, num_keys: int) -> None:
        if num_keys < 1:
            raise WorkloadError("num_keys must be >= 1")
        self.num_keys = num_keys
        self._keys: List[int] = list(range(num_keys))

    def sample(self, rng: random.Random) -> Key:
        """Draw one key."""
        raise NotImplementedError

    def keys(self) -> Sequence[Key]:
        """The full key space (used for dataset preloading)."""
        return self._keys


class UniformKeys(KeyDistribution):
    """Uniform access over the key space."""

    def sample(self, rng: random.Random) -> Key:
        """Draw a key uniformly at random.

        Inverse-transform on a single ``random()`` draw: ``randrange`` costs
        three extra internal calls per draw, and one key draw happens per
        generated operation. The float has 53 random bits, far more than any
        practical key-space size, so uniformity is preserved.
        """
        return self._keys[int(rng.random() * self.num_keys)]


def _zipfian_cdf(ranks: int, exponent: float) -> Tuple[memoryview, float]:
    """The unnormalized zipfian CDF over ``ranks`` popularity ranks, as
    packed doubles, and its total."""
    cdf = memoryview(bytearray(8 * ranks)).cast("d")
    total = 0.0
    for rank in range(1, ranks + 1):
        total += 1.0 / (rank ** exponent)
        cdf[rank - 1] = total
    return cdf, total


class ZipfianKeys(KeyDistribution):
    """Zipfian (power-law) access over the key space.

    Args:
        num_keys: Size of the key space.
        exponent: Zipf exponent; the paper (and YCSB) use 0.99.
        shuffle_seed: If given, key ranks are permuted pseudo-randomly so the
            hottest keys are not simply 0, 1, 2, ... — useful when key ids
            carry meaning elsewhere. ``None`` keeps rank order (key 0 is the
            hottest), which is the simplest to reason about in tests.
    """

    def __init__(
        self,
        num_keys: int,
        exponent: float = 0.99,
        shuffle_seed: Optional[int] = None,
    ) -> None:
        super().__init__(num_keys)
        if exponent <= 0:
            raise WorkloadError("zipfian exponent must be positive")
        self.exponent = exponent
        self._cdf, self._total = _zipfian_cdf(num_keys, exponent)
        self._permutation: Optional[List[int]] = None
        if shuffle_seed is not None:
            permutation = list(self._keys)
            random.Random(shuffle_seed).shuffle(permutation)
            self._permutation = permutation

    def sample(self, rng: random.Random) -> Key:
        """Draw a key with zipfian popularity."""
        target = rng.random() * self._total
        rank = bisect.bisect_left(self._cdf, target)
        if rank >= self.num_keys:
            rank = self.num_keys - 1
        if self._permutation is not None:
            return self._permutation[rank]
        return self._keys[rank]

    def probability_of_rank(self, rank: int) -> float:
        """Access probability of the key with the given popularity rank."""
        if not 0 <= rank < self.num_keys:
            raise WorkloadError(f"rank {rank} out of range")
        weight = 1.0 / ((rank + 1) ** self.exponent)
        return weight / self._total


class ShiftingHotspotKeys(KeyDistribution):
    """Zipfian access concentrated on one shard, with a movable hot spot.

    Models a flash crowd: popularity rank ``r`` maps to key
    ``(hot_shard + r * num_shards) % num_keys``, so when ``num_shards``
    divides ``num_keys`` every access lands on keys congruent to
    ``hot_shard`` modulo ``num_shards`` — the whole zipfian head (and tail)
    hammers a single shard. :meth:`set_hot_shard` re-aims the crowd
    mid-run; scheduling it at a simulated instant (e.g. via
    ``cluster.sim.schedule_at``) keeps runs deterministic because the
    switch happens at an exact event time, not a wall-clock one.

    Args:
        num_keys: Size of the key space; must be a multiple of
            ``num_shards`` so the hot slice stays shard-pure.
        num_shards: Shard count of the deployment the workload targets.
        hot_shard: Initially hot shard.
        exponent: Zipf exponent over ranks within the hot slice.
    """

    def __init__(
        self,
        num_keys: int,
        num_shards: int,
        hot_shard: int = 0,
        exponent: float = 0.99,
    ) -> None:
        super().__init__(num_keys)
        if num_shards < 1:
            raise WorkloadError("num_shards must be >= 1")
        if num_keys % num_shards != 0:
            raise WorkloadError("num_keys must be a multiple of num_shards")
        if not 0 <= hot_shard < num_shards:
            raise WorkloadError(f"hot_shard {hot_shard} out of range")
        if exponent <= 0:
            raise WorkloadError("zipfian exponent must be positive")
        self.num_shards = num_shards
        self.hot_shard = hot_shard
        self.exponent = exponent
        ranks = num_keys // num_shards
        self._cdf, self._total = _zipfian_cdf(ranks, exponent)

    def set_hot_shard(self, shard: int) -> None:
        """Re-aim the flash crowd at another shard (takes effect immediately)."""
        if not 0 <= shard < self.num_shards:
            raise WorkloadError(f"hot_shard {shard} out of range")
        self.hot_shard = shard

    def sample(self, rng: random.Random) -> Key:
        """Draw a key with zipfian popularity inside the hot shard's slice."""
        target = rng.random() * self._total
        rank = bisect.bisect_left(self._cdf, target)
        if rank >= len(self._cdf):
            rank = len(self._cdf) - 1
        return self._keys[(self.hot_shard + rank * self.num_shards) % self.num_keys]
