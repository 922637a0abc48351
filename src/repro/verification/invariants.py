"""Cluster-level invariant checks.

These checks complement the linearizability checker with whole-cluster
properties that are cheap to evaluate after an execution has quiesced:

* **Convergence** — after all traffic has drained, every live replica stores
  the same value (and, for Hermes, the same timestamp) for every key.
* **No pending updates** — no replica is left coordinating an update or
  holding stalled client requests once the run is over (absence of
  protocol-level deadlock, the liveness property the paper model-checks).
* **Values come from the history** — a replica never stores a value that no
  client ever wrote (no invented or corrupted data).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.replica import HermesReplica
from repro.errors import VerificationError
from repro.types import Key, Value
from repro.verification.history import History


def check_replica_convergence(replicas: Iterable, keys: Optional[Iterable[Key]] = None) -> None:
    """Assert that all live replicas agree on the committed value of every key.

    Values are read through ``committed_value``, not the raw record: CRAQ
    keeps its committed state in per-key metadata.

    Args:
        replicas: Replica nodes (crashed ones are skipped).
        keys: Keys to check; defaults to the union of keys stored anywhere.

    Raises:
        VerificationError: if two live replicas disagree on some key.
    """
    live = [r for r in replicas if not r.crashed]
    if not live:
        return
    if keys is None:
        key_set: Set[Key] = set()
        for replica in live:
            key_set.update(replica.store.keys())
        keys = key_set
    for key in keys:
        observed: List[Tuple[int, Value]] = []
        for replica in live:
            if key in replica.store:
                observed.append((replica.node_id, replica.committed_value(key)))
        values = {repr(value) for _, value in observed}
        if len(values) > 1:
            raise VerificationError(
                f"replicas diverge on key {key!r}: "
                + ", ".join(f"node {n}={v!r}" for n, v in observed)
            )


def check_no_pending_updates(replicas: Iterable) -> None:
    """Assert that no Hermes replica is left with in-flight work.

    Raises:
        VerificationError: if a live replica still has pending coordinated
            updates or stalled client requests.
    """
    for replica in replicas:
        if replica.crashed or not isinstance(replica, HermesReplica):
            continue
        if replica.pending_updates:
            raise VerificationError(
                f"node {replica.node_id} still coordinating {replica.pending_updates} update(s)"
            )
        if replica.stalled_requests:
            raise VerificationError(
                f"node {replica.node_id} still holds {replica.stalled_requests} stalled request(s)"
            )


def check_values_from_history(
    replicas: Iterable,
    history: History,
    initial_dataset: Optional[Dict[Key, Value]] = None,
) -> None:
    """Assert that every stored value was written by some client (or preloaded).

    Raises:
        VerificationError: if a live replica stores a value that appears in
            neither the history's updates nor the initial dataset.
    """
    written: Dict[Key, Set[str]] = {}
    for record in history.operations():
        if record.op_type.is_update:
            written.setdefault(record.key, set()).add(repr(record.payload))
    if initial_dataset:
        for key, value in initial_dataset.items():
            written.setdefault(key, set()).add(repr(value))
    for replica in replicas:
        if replica.crashed:
            continue
        for key in replica.store.keys():
            allowed = written.get(key)
            if allowed is None:
                continue
            value = replica.committed_value(key)
            if repr(value) not in allowed and value is not None:
                raise VerificationError(
                    f"node {replica.node_id} stores unwritten value {value!r} for key {key!r}"
                )
