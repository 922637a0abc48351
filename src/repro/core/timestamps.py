"""Per-key logical timestamps and virtual node ids.

Hermes tags every write with a monotonically increasing per-key logical
timestamp implemented as a Lamport clock (paper §3.1): a lexicographically
ordered ``[version, cid]`` tuple combining the key's version number with the
node id of the coordinating replica. Ties on version are broken by ``cid``,
which lets every replica deterministically establish a single global order
of writes to a key without any central ordering point.

Optimization O2 (§3.3) improves fairness of tie-breaking by giving each
physical node several *virtual* node ids and picking one at random per write;
:class:`VirtualNodeIds` implements the interleaved assignment used in the
paper's example (A:{1,4,7,...}, B:{2,5,8,...}, ...).
"""

from __future__ import annotations

import random
from typing import ClassVar, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.types import NodeId

#: Wire size of a timestamp: 4-byte version + 2-byte cid (rounded up).
TIMESTAMP_BYTES = 8

#: Bits of a packed :class:`Timestamp` below its version: the cid's width.
_CID_BITS = 32
_CID_MASK = (1 << _CID_BITS) - 1

#: ``int.__new__``, to build a packed timestamp without re-checking its halves.
_new_int = int.__new__


class Timestamp(int):
    """A per-key logical timestamp ``[version, cid]``.

    Comparison is lexicographic: a timestamp A is higher than B if
    ``A.version > B.version``, or the versions are equal and ``A.cid > B.cid``
    (paper footnote 5). The pair is packed into one ``int``,
    ``version << 32 | cid``, so that order, equality and hashing are the
    integer's own: timestamps are compared on every INV, ACK and VAL, and a
    packed one is compared in C with no attribute loads. A ``cid`` must fit
    in 32 bits (:class:`VirtualNodeIds` guarantees it for every virtual id).
    """

    __slots__ = ()

    #: The zero timestamp every key starts from (assigned after the class body).
    ZERO: ClassVar["Timestamp"]

    def __new__(cls, version: int, cid: int) -> "Timestamp":
        if version < 0 or not 0 <= cid <= _CID_MASK:
            raise ValueError(f"timestamp out of range: version={version}, cid={cid}")
        return _new_int(cls, version << _CID_BITS | cid)

    def __getnewargs__(self) -> Tuple[int, int]:  # type: ignore[override]
        return (self >> _CID_BITS, self & _CID_MASK)

    def __repr__(self) -> str:
        return f"Timestamp(version={self >> _CID_BITS}, cid={self & _CID_MASK})"

    @property
    def version(self) -> int:
        """The key's version number (the high-order half of the order)."""
        return self >> _CID_BITS

    @property
    def cid(self) -> int:
        """The coordinator's (virtual) node id, breaking version ties."""
        return self & _CID_MASK

    def increment(self, cid: int, by: int = 1) -> "Timestamp":
        """A successor timestamp with the version advanced and a new cid.

        Args:
            cid: Coordinator (virtual) node id to embed.
            by: Version increment — 1 for RMWs, 2 for writes when RMWs are
                enabled so that a racing write always outranks a racing RMW
                (paper §3.6 CTS rule).
        """
        if by < 1:
            raise ConfigurationError("timestamp increment must be >= 1")
        if not 0 <= cid <= _CID_MASK:
            raise ValueError(f"timestamp cid out of range: {cid}")
        return _new_int(Timestamp, ((self >> _CID_BITS) + by) << _CID_BITS | cid)

    def concurrent_with(self, other: "Timestamp") -> bool:
        """Whether two timestamps denote concurrent writes (same version)."""
        return self >> _CID_BITS == other >> _CID_BITS and self != other


Timestamp.ZERO = Timestamp(version=0, cid=0)


class VirtualNodeIds:
    """Interleaved virtual node id assignment (optimization O2).

    With ``num_nodes`` physical nodes and ``ids_per_node`` virtual ids each,
    physical node ``n`` owns virtual ids ``{n + k * num_nodes}`` for
    ``k = 0 .. ids_per_node - 1`` (shifted so ids start at the physical id).
    Distinct physical nodes never share a virtual id, preserving correctness,
    while the random per-write choice spreads tie-break wins evenly.
    """

    def __init__(
        self,
        node_id: NodeId,
        num_nodes: int,
        ids_per_node: int = 1,
        rng: Optional[random.Random] = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if ids_per_node < 1:
            raise ConfigurationError("ids_per_node must be >= 1")
        if node_id < 0:
            raise ConfigurationError("node_id must be non-negative")
        highest = node_id + (ids_per_node - 1) * num_nodes
        if highest > _CID_MASK:
            raise ConfigurationError(
                f"virtual id {highest} of node {node_id} does not fit a "
                f"timestamp's 32-bit cid"
            )
        self.node_id = node_id
        self.num_nodes = num_nodes
        self.ids_per_node = ids_per_node
        self._rng = rng or random.Random(node_id)
        self._ids: List[int] = [node_id + k * num_nodes for k in range(ids_per_node)]

    @property
    def ids(self) -> List[int]:
        """All virtual ids owned by this node."""
        return list(self._ids)

    def pick(self) -> int:
        """Choose a virtual id for the next write (random for fairness)."""
        if self.ids_per_node == 1:
            return self._ids[0]
        return self._rng.choice(self._ids)

    def owner_of(self, virtual_id: int) -> NodeId:
        """Map a virtual id back to its owning physical node."""
        return virtual_id % self.num_nodes

    def owns(self, virtual_id: int) -> bool:
        """Whether this node owns the given virtual id."""
        return self.owner_of(virtual_id) == self.node_id % self.num_nodes
