"""Per-key replica state machine.

Hermes keeps four stable states and one transient state per key (paper §3.2):

* ``VALID`` — the local value is up to date; reads may be served.
* ``INVALID`` — a write by another coordinator is in progress (or its VAL was
  lost); reads stall.
* ``WRITE`` — this replica is coordinating a write to the key.
* ``REPLAY`` — this replica is replaying a write it learned about via an INV.
* ``TRANS`` — transient: this replica was coordinating a write (WRITE or
  REPLAY) but was invalidated by a higher-timestamped concurrent write; used
  to notify the client of the original write's completion and to suppress
  unnecessary VALs (optimization O1).

The rules for which transitions are legal live in :data:`ALLOWED_TRANSITIONS`
and are enforced by :meth:`HermesRecord.transition`, which the property-based
tests drive exhaustively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.core.timestamps import Timestamp
from repro.errors import InvalidTransition
from repro.kvs.store import ValueRecord


class KeyState(enum.Enum):
    """Protocol state of a key at one replica."""

    VALID = "valid"
    INVALID = "invalid"
    WRITE = "write"
    REPLAY = "replay"
    TRANS = "trans"

    @property
    def readable(self) -> bool:
        """Whether a linearizable read may be served in this state."""
        return self is KeyState.VALID

    @property
    def coordinating(self) -> bool:
        """Whether this replica is driving an update for the key."""
        return self in (KeyState.WRITE, KeyState.REPLAY)


#: Legal state transitions of the per-key state machine.
ALLOWED_TRANSITIONS: Dict[KeyState, FrozenSet[KeyState]] = {
    KeyState.VALID: frozenset({KeyState.INVALID, KeyState.WRITE, KeyState.VALID}),
    KeyState.INVALID: frozenset(
        {KeyState.VALID, KeyState.INVALID, KeyState.REPLAY, KeyState.WRITE}
    ),
    KeyState.WRITE: frozenset({KeyState.VALID, KeyState.TRANS, KeyState.WRITE, KeyState.INVALID}),
    KeyState.REPLAY: frozenset({KeyState.VALID, KeyState.TRANS, KeyState.REPLAY, KeyState.INVALID}),
    KeyState.TRANS: frozenset({KeyState.INVALID, KeyState.VALID, KeyState.TRANS}),
}

# Bitmask mirror of ALLOWED_TRANSITIONS: enum hashing is a Python-level
# call in CPython, so the transition hot path tests membership with integer
# masks attached to each member instead of a dict + frozenset lookup.
for _index, _state in enumerate(KeyState):
    _state._mask = 1 << _index
for _state, _targets in ALLOWED_TRANSITIONS.items():
    _state._allowed_mask = sum(t._mask for t in _targets)


@dataclass(slots=True)
class HermesRecord(ValueRecord):
    """A key's record in a Hermes replica's store: value plus protocol state.

    The state and timestamp live beside the value in the key's own
    datastore entry (paper §3, Figure 3), so a touched key is one object.

    Attributes:
        value: The application value (see :class:`ValueRecord`).
        state: Current protocol state of the key.
        timestamp: Highest timestamp seen for the key.
        rmw_flag: Whether the update that produced ``timestamp`` was an RMW
            (needed so replays preserve RMW semantics, paper §3.6).
    """

    state: KeyState = KeyState.VALID
    timestamp: Timestamp = Timestamp.ZERO
    rmw_flag: bool = False

    def transition(self, new_state: KeyState) -> KeyState:
        """Move to ``new_state``, enforcing the protocol's legal transitions.

        Returns:
            The previous state.

        Raises:
            InvalidTransition: if the transition is not in
                :data:`ALLOWED_TRANSITIONS`.
        """
        previous = self.state
        if new_state is previous:
            # Every self-loop is legal (see ALLOWED_TRANSITIONS); skip the
            # mask test on this hot no-op case.
            return previous
        if not (new_state._mask & previous._allowed_mask):
            raise InvalidTransition(f"illegal transition {previous.value} -> {new_state.value}")
        self.state = new_state
        return previous

    @property
    def readable(self) -> bool:
        """Whether a read can be served from this key right now."""
        return self.state.readable
