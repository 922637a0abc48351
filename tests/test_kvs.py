"""Unit tests for the KVS substrate: the store and its shared read-only base."""

from __future__ import annotations

from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import dataclass

from repro.errors import KeyNotFound
from repro.kvs.store import KeyValueStore, ValueRecord


@dataclass(slots=True)
class TaggedRecord(ValueRecord):
    """A protocol-style record: the value plus one piece of per-key state."""

    tag: str = ""


# ------------------------------------------------------------------- store
def test_put_and_get():
    store = KeyValueStore()
    store.put("a", 1)
    assert store.get("a") == 1


def test_get_missing_key_raises():
    store = KeyValueStore()
    with pytest.raises(KeyNotFound):
        store.get("missing")
    assert store.get("missing", None) is None


def test_put_overwrites_value():
    store = KeyValueStore()
    store.put("a", 1)
    store.put("a", 2)
    assert store.get("a") == 2


def test_put_keeps_the_record_state_beside_the_value():
    store = KeyValueStore(TaggedRecord)
    record = store.put("a", 1)
    record.tag = "m"
    assert store.put("a", 2) is record
    assert (record.value, record.tag) == (2, "m")


def test_every_record_is_of_the_store_record_class():
    store = KeyValueStore(TaggedRecord)
    store.load({"a": 1})
    store.put("b", 2)
    records = [store.try_get_record("a"), store.peek_record("b"), store.record("c")]
    assert [type(record) for record in records] == [TaggedRecord] * 3
    assert type(KeyValueStore().put("a", 1)) is ValueRecord


def test_contains_and_len():
    store = KeyValueStore()
    store.put("a", 1)
    store.put("b", 2)
    assert "a" in store and "b" in store and "c" not in store
    assert len(list(store.keys())) == 2


def test_try_get_record_returns_none_for_missing():
    store = KeyValueStore()
    assert store.try_get_record("nope") is None


# ------------------------------------------------------------- shared base
def test_load_installs_dataset_as_read_only_base():
    dataset = {"a": 1, "b": 2}
    store = KeyValueStore()
    store.load(dataset)
    assert isinstance(store.base, MappingProxyType)
    with pytest.raises(TypeError):
        store.base["a"] = 3
    assert {key: store.get(key) for key in store.keys()} == dataset
    assert "a" in store and "c" not in store
    assert store.peek_record("a") is None and not store._records


def test_first_touch_creates_the_record_from_the_base_or_empty():
    store = KeyValueStore(TaggedRecord)
    store.load({"a": 1})
    record = store.try_get_record("a")
    assert record == TaggedRecord(1)
    assert store.try_get_record("a") is record
    assert store.record("a") is record
    assert store.peek_record("a") is record
    # An absent key: try_get_record leaves it absent, record creates it empty.
    assert store.try_get_record("b") is None and "b" not in store
    assert store.record("b") == TaggedRecord(None)
    assert store.peek_record("b") is store.record("b") and "b" in store


def test_stores_sharing_a_base_diverge_only_through_their_own_writes():
    dataset = {"a": 1, "b": 2}
    one, two = KeyValueStore(TaggedRecord), KeyValueStore(TaggedRecord)
    one.load(dataset)
    two.load(dataset)
    one.put("a", 10)
    one.try_get_record("b").tag = "m"
    assert (one.get("a"), two.get("a")) == (10, 1)
    assert two.try_get_record("b").tag == ""
    assert dataset == {"a": 1, "b": 2}


def test_keys_list_base_keys_then_new_keys():
    store = KeyValueStore()
    store.load({"a": 1, "b": 2})
    store.put("c", 3)
    store.put("a", 4)
    assert list(store.keys()) == ["a", "b", "c"]
    # Creating the record of the key just handed out is allowed mid-iteration.
    assert [store.try_get_record(key).value for key in store.keys()] == [4, 2, 3]


def test_second_load_is_a_sequence_of_puts():
    store = KeyValueStore(TaggedRecord)
    store.load({"a": 1, "b": 2})
    store.put("a", 5).tag = "m"
    store.load({"a": 6, "c": 3})
    assert [(key, store.get(key)) for key in store.keys()] == [("a", 6), ("b", 2), ("c", 3)]
    assert store.try_get_record("a").tag == "m"


# ------------------------------------------------- differential (hypothesis)
KEYS = st.integers(0, 5)
VALUES = st.none() | st.integers(0, 9)
TAGS = st.none() | st.sampled_from(["m1", "m2"])
DATASETS = st.dictionaries(KEYS, VALUES, max_size=6)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("try_get_record"), KEYS, TAGS),
        st.tuples(st.just("record"), KEYS, TAGS),
        st.tuples(st.just("peek_record"), KEYS),
        st.tuples(st.just("put"), KEYS, VALUES, TAGS),
        st.tuples(st.just("keys")),
        st.tuples(st.just("contains"), KEYS),
        st.tuples(st.just("load"), DATASETS),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(DATASETS, STEPS)
def test_store_with_a_base_matches_a_plain_dict_model(dataset, steps):
    """A store over a shared base behaves as if the dataset had been put key
    by key into a plain dict: same values, record state, membership and key
    order; its sibling over the same base and the dataset itself never
    observe its writes. A record exists only for a key that was put, whose
    record was asked for, or that a second load wrote."""
    original = dict(dataset)
    store, sibling = KeyValueStore(TaggedRecord), KeyValueStore(TaggedRecord)
    store.load(dataset)
    sibling.load(dataset)
    model = {key: [value, ""] for key, value in dataset.items()}
    materialized = set()
    for step in steps:
        op = step[0]
        if op == "get":
            key = step[1]
            if key in model:
                assert store.get(key) == model[key][0]
            else:
                with pytest.raises(KeyNotFound):
                    store.get(key)
            assert store.get(key, "absent") == (model[key][0] if key in model else "absent")
        elif op in ("try_get_record", "record"):
            _, key, tag = step
            if op == "try_get_record":
                record = store.try_get_record(key)
                if key not in model:
                    assert record is None
                    continue
            else:
                record = store.record(key)
                model.setdefault(key, [None, ""])
            assert type(record) is TaggedRecord
            assert [record.value, record.tag] == model[key]
            materialized.add(key)
            if tag is not None:
                record.tag = model[key][1] = tag
        elif op == "put":
            _, key, value, tag = step
            record = store.put(key, value)
            entry = model.setdefault(key, [None, ""])
            entry[0] = value
            materialized.add(key)
            if tag is not None:
                record.tag = entry[1] = tag
            assert [record.value, record.tag] == entry
        elif op == "peek_record":
            record = store.peek_record(step[1])
            if step[1] in materialized:
                assert [record.value, record.tag] == model[step[1]]
            else:
                assert record is None
        elif op == "keys":
            assert list(store.keys()) == list(model)
        elif op == "contains":
            assert (step[1] in store) == (step[1] in model)
        else:
            if model:  # a load over data is a sequence of puts
                materialized.update(step[1])
            for key, value in step[1].items():
                model.setdefault(key, [None, ""])[0] = value
            store.load(step[1])
    assert list(store.keys()) == list(model)
    assert sorted(store._records) == sorted(materialized)
    assert dataset == original
    assert {key: sibling.get(key) for key in sibling.keys()} == original
    assert not sibling._records
