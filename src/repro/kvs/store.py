"""Versioned in-memory key-value store.

This is the authoritative per-replica datastore used by every protocol in
the library. Each record carries the value, an opaque per-protocol metadata
slot (Hermes stores its per-key timestamp and state here; CRAQ stores its
clean/dirty version list; ZAB stores the last applied zxid), and a
store-level version bumped on every put — the sequence a ccKVS seqlock would
carry. The simulation is single-threaded, so there is no lock object: a
replica retains one record per key for the whole run, and every extra
object per record is one more the host's cyclic collector walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import KeyNotFound
from repro.types import Key, Value


@dataclass(slots=True)
class ValueRecord:
    """A stored record: value plus protocol metadata.

    Attributes:
        value: The application value.
        meta: Protocol-specific metadata (opaque to the store).
        version: Monotonic store-level version, incremented on every put.
    """

    value: Value
    meta: Any = None
    version: int = 0


class KeyValueStore:
    """A replica-local, unbounded key-value store."""

    def __init__(self) -> None:
        self._records: Dict[Key, ValueRecord] = {}
        self.reads = 0
        self.writes = 0

    # ---------------------------------------------------------------- basic
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Key) -> bool:
        return key in self._records

    def keys(self) -> Iterator[Key]:
        """Iterate over the stored keys."""
        return iter(self._records.keys())

    def items(self) -> Iterator[Tuple[Key, ValueRecord]]:
        """Iterate over ``(key, record)`` pairs."""
        return iter(self._records.items())

    # ----------------------------------------------------------------- read
    def get(self, key: Key) -> Value:
        """Return the value stored for ``key``.

        Raises:
            KeyNotFound: if the key is not present.
        """
        record = self._records.get(key)
        if record is None:
            raise KeyNotFound(repr(key))
        self.reads += 1
        return record.value

    def get_record(self, key: Key) -> ValueRecord:
        """Return the full record (value + metadata) for ``key``.

        Raises:
            KeyNotFound: if the key is not present.
        """
        record = self._records.get(key)
        if record is None:
            raise KeyNotFound(repr(key))
        return record

    def try_get_record(self, key: Key) -> Optional[ValueRecord]:
        """Return the record for ``key`` or ``None`` if absent."""
        return self._records.get(key)

    # ---------------------------------------------------------------- write
    def put(self, key: Key, value: Value, meta: Any = None) -> ValueRecord:
        """Insert or update ``key`` with ``value`` (and optional metadata)."""
        record = self._records.get(key)
        if record is None:
            record = ValueRecord(value=value, meta=meta)
            self._records[key] = record
        else:
            record.value = value
            if meta is not None:
                record.meta = meta
        record.version += 1
        self.writes += 1
        return record

    def update_meta(self, key: Key, meta: Any) -> ValueRecord:
        """Replace the metadata slot for an existing key."""
        record = self.get_record(key)
        record.meta = meta
        return record

    def delete(self, key: Key) -> bool:
        """Remove ``key``; returns whether it was present."""
        return self._records.pop(key, None) is not None

    # ------------------------------------------------------------- bulk ops
    def snapshot(self) -> Dict[Key, Value]:
        """Return a shallow copy of the key → value mapping."""
        return {key: record.value for key, record in self._records.items()}

    def load(self, items: Dict[Key, Value], meta_factory=None) -> None:
        """Bulk-load a mapping of keys to values (used for dataset setup).

        Args:
            items: Mapping of keys to initial values.
            meta_factory: Optional zero-argument callable producing the
                initial metadata for each key.
        """
        for key, value in items.items():
            meta = meta_factory() if meta_factory is not None else None
            self.put(key, value, meta=meta)

    def chunks(self, chunk_size: int = 256) -> Iterator[Dict[Key, Value]]:
        """Yield the dataset in chunks of at most ``chunk_size`` keys.

        Models the chunked state transfer used when a new (shadow) replica
        reconstructs the datastore from live replicas (paper §3.4 Recovery).
        """
        chunk: Dict[Key, Value] = {}
        for key, record in self._records.items():
            chunk[key] = record.value
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = {}
        if chunk:
            yield chunk
