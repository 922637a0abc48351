"""Unit tests for the KVS substrate: the versioned store."""

from __future__ import annotations

import pytest

from repro.errors import KeyNotFound
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
