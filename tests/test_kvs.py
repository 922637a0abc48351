"""Unit tests for the KVS substrate: store, MICA index."""

from __future__ import annotations

import pytest

from repro.errors import CapacityExceeded, KeyNotFound
from repro.kvs.mica import Bucket, BucketEntry, MicaIndex, fingerprint
from repro.kvs.store import KeyValueStore, ValueRecord


# ------------------------------------------------------------------- store
def test_put_and_get():
    store = KeyValueStore()
    store.put("a", 1)
    assert store.get("a") == 1


def test_get_missing_key_raises():
    store = KeyValueStore()
    with pytest.raises(KeyNotFound):
        store.get("missing")


def test_put_overwrites_value():
    store = KeyValueStore()
    store.put("a", 1)
    store.put("a", 2)
    assert store.get("a") == 2


def test_put_increments_version():
    store = KeyValueStore()
    record = store.put("a", 1)
    assert record.version == 1
    store.put("a", 2)
    assert record.version == 2


def test_meta_is_preserved_when_not_supplied():
    store = KeyValueStore()
    store.put("a", 1, meta={"state": "valid"})
    store.put("a", 2)
    assert store.get_record("a").meta == {"state": "valid"}


def test_update_meta():
    store = KeyValueStore()
    store.put("a", 1)
    store.update_meta("a", "m")
    assert store.get_record("a").meta == "m"


def test_capacity_enforced():
    store = KeyValueStore(capacity=2)
    store.put("a", 1)
    store.put("b", 2)
    with pytest.raises(CapacityExceeded):
        store.put("c", 3)
    # Updating an existing key is still allowed.
    store.put("a", 10)


def test_delete():
    store = KeyValueStore()
    store.put("a", 1)
    assert store.delete("a") is True
    assert store.delete("a") is False
    assert "a" not in store


def test_contains_and_len():
    store = KeyValueStore()
    store.put("a", 1)
    store.put("b", 2)
    assert "a" in store and "b" in store
    assert len(store) == 2


def test_snapshot_and_load():
    store = KeyValueStore()
    store.load({"a": 1, "b": 2})
    assert store.snapshot() == {"a": 1, "b": 2}


def test_load_with_meta_factory():
    store = KeyValueStore()
    store.load({"a": 1}, meta_factory=dict)
    assert store.get_record("a").meta == {}


def test_chunks_cover_dataset():
    store = KeyValueStore()
    store.load({i: i * 10 for i in range(25)})
    chunks = list(store.chunks(chunk_size=10))
    assert sum(len(c) for c in chunks) == 25
    assert all(len(c) <= 10 for c in chunks)
    merged = {}
    for chunk in chunks:
        merged.update(chunk)
    assert merged == store.snapshot()


def test_read_write_counters():
    store = KeyValueStore()
    store.put("a", 1)
    store.get("a")
    store.get("a")
    assert store.reads == 2
    assert store.writes == 1


def test_try_get_record_returns_none_for_missing():
    store = KeyValueStore()
    assert store.try_get_record("nope") is None


def test_store_with_index_tracks_keys():
    store = KeyValueStore(capacity=100, track_index=True)
    for i in range(50):
        store.put(i, i)
    assert len(store) == 50


# -------------------------------------------------------------------- mica
def test_fingerprint_is_bounded():
    assert 0 <= fingerprint("key", bits=8) < 256


def test_bucket_insert_and_lookup():
    bucket = Bucket(capacity=2)
    entry = BucketEntry(fp=1, key="a", insert_order=1)
    assert bucket.insert(entry) is None
    assert bucket.lookup("a", 1) is entry


def test_bucket_eviction_of_oldest():
    bucket = Bucket(capacity=2)
    bucket.insert(BucketEntry(fp=1, key="a", insert_order=1))
    bucket.insert(BucketEntry(fp=2, key="b", insert_order=2))
    evicted = bucket.insert(BucketEntry(fp=3, key="c", insert_order=3))
    assert evicted.key == "a"


def test_index_insert_contains_remove():
    index = MicaIndex(num_buckets=16, bucket_capacity=4)
    assert index.insert("k") is None
    assert index.contains("k")
    assert index.remove("k")
    assert not index.contains("k")


def test_index_duplicate_insert_is_noop():
    index = MicaIndex(num_buckets=16)
    index.insert("k")
    assert index.insert("k") is None


def test_index_reports_evictions_under_pressure():
    index = MicaIndex(num_buckets=1, bucket_capacity=2)
    for i in range(10):
        index.insert(f"key-{i}")
    assert index.evictions > 0
    assert index.load_factor() == pytest.approx(1.0)


def test_index_bucket_count_rounded_to_power_of_two():
    index = MicaIndex(num_buckets=10)
    assert index.num_buckets == 16


def test_index_validation():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        MicaIndex(num_buckets=0)
    with pytest.raises(ConfigurationError):
        MicaIndex(bucket_capacity=0)
