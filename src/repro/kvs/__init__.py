"""In-memory key-value store substrate.

The paper's HermesKV builds on ccKVS, itself a variant of MICA, extended with
seqlocks for concurrent-read-concurrent-write (CRCW) access and with
per-key protocol metadata. This package provides the equivalent substrate
for a single-threaded simulation (there is no concurrent access to guard):
:mod:`repro.kvs.store` — the key-value store used by every replication
protocol in the library, whose records are each protocol's own record class
(the value plus the key's protocol state), over a read-only preloaded base
shared by the replicas of a shard.
"""

from repro.kvs.store import KeyValueStore, ValueRecord

__all__ = [
    "KeyValueStore",
    "ValueRecord",
]
