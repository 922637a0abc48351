"""In-memory key-value store with a shared read-only base.

This is the authoritative per-replica datastore used by every protocol in
the library. A key's record is one object holding the value and the
protocol's per-key state: each protocol names its record class
(:attr:`~repro.protocols.base.ReplicaNode.RECORD`) and the store creates
records of that class. Hermes' record carries the key's state, timestamp
and RMW flag (paper §3, Figure 3), CR's its chain version and CRAQ's its
clean/dirty version map; ZAB and Derecho use the plain
:class:`ValueRecord`.

Every replica of a shard starts from the same preloaded dataset and
diverges only through writes (paper §3). :meth:`KeyValueStore.load`
therefore installs the dataset as the store's *base*, a read-only
:class:`types.MappingProxyType` that all replicas of a shard share, and a
replica creates its own record for a key only the first time a write or a
protocol's per-key state needs it — in exactly the state a preload ``put``
would have left. Reads of an untouched key are served from the base and
allocate nothing. The simulation is single-threaded, so there is no lock
object, and every record a replica does not create is one less object for
the host's cyclic collector to walk.

:class:`~repro.core.replica.HermesReplica` relies on this layout for
speed: its per-operation paths call the bound ``_records.get`` and its read
fast path falls back to one ``base.get``. Everything else goes through the
methods below.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterator, Mapping, Optional, Type

from repro.errors import KeyNotFound
from repro.types import Key, Value

#: The base of a store nothing was loaded into.
_EMPTY: Mapping[Key, Value] = MappingProxyType({})

#: An absent key: ``get``'s default meaning "raise ``KeyNotFound``", and the
#: miss marker of a base lookup.
_REQUIRED: Any = object()


@dataclass(slots=True)
class ValueRecord:
    """A stored record: the application value.

    Protocols that keep per-key state subclass it (a slotted dataclass with
    defaults for every added field), so a key costs one object.
    """

    value: Value = None


class KeyValueStore:
    """A replica-local, unbounded key-value store over a shared base.

    Args:
        record_type: The class of every record the store creates; called
            with the key's value alone.
    """

    def __init__(self, record_type: Type[ValueRecord] = ValueRecord) -> None:
        self._records: Dict[Key, ValueRecord] = {}
        self._new_record = record_type
        #: The preloaded dataset, read-only and shared by every replica of
        #: the shard. A key's record, once created, shadows its base value.
        self.base: Mapping[Key, Value] = _EMPTY

    # ---------------------------------------------------------------- basic
    def __contains__(self, key: Key) -> bool:
        return key in self._records or key in self.base

    def keys(self) -> Iterator[Key]:
        """Iterate over the stored keys: the base's, then those written since.

        While iterating, a caller may create the record of a key it has been
        handed (``try_get_record``) but may not add keys.
        """
        base = self.base
        yield from base
        for key in self._records:
            if key not in base:
                yield key

    # ----------------------------------------------------------------- read
    def get(self, key: Key, default: Any = _REQUIRED) -> Value:
        """Return the value stored for ``key`` (or ``default`` if given).

        Raises:
            KeyNotFound: if the key is not present and no default is given.
        """
        record = self._records.get(key)
        if record is not None:
            return record.value
        value = self.base.get(key, default)
        if value is _REQUIRED:
            raise KeyNotFound(repr(key))
        return value

    def try_get_record(self, key: Key) -> Optional[ValueRecord]:
        """Return the record for ``key`` or ``None`` if absent.

        A base key gets its own record here, on first use, as in
        :meth:`record`.
        """
        return self.record(key) if key in self else None

    def record(self, key: Key) -> ValueRecord:
        """Return the record for ``key``, creating it on first touch.

        The new record holds the key's base value, or ``None`` for a key
        the base does not hold; either way the caller may change its
        per-key state without touching any other replica.
        """
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = self._new_record(self.base.get(key))
        return record

    def peek_record(self, key: Key) -> Optional[ValueRecord]:
        """Return the record this store created for ``key``, or ``None``.

        Unlike :meth:`try_get_record` it never creates one: ``None`` means
        the key is untouched in the base (read it with :meth:`get`) or absent.
        """
        return self._records.get(key)

    # ---------------------------------------------------------------- write
    def put(self, key: Key, value: Value) -> ValueRecord:
        """Insert or update ``key`` with ``value``; other record state stays."""
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = self._new_record(value)
        else:
            record.value = value
        return record

    def load(self, dataset: Mapping[Key, Value]) -> None:
        """Install ``dataset`` as this store's initial contents.

        An empty store takes ``dataset`` as its read-only base without
        copying it: the caller must not mutate it afterwards, and may hand
        the same mapping to every replica of a shard. A store that already
        holds data applies ``dataset`` as a sequence of :meth:`put` calls.
        """
        if self._records or self.base:
            for key, value in dataset.items():
                self.put(key, value)
        else:
            self.base = MappingProxyType(dataset)
