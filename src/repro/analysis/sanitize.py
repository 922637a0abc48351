"""Opt-in runtime sanitizer for the simulator's aliasing and RNG invariants.

Message delivery (:mod:`repro.sim.node`) is **zero-copy**: a message object
pushed into a node's inbox at send time is the very object the handler
receives at delivery time, possibly milliseconds of simulated time later. The speed comes with an aliasing contract — *nothing may mutate
a message after it was sent* — that an ordinary test can only catch when
the corruption happens to change an artifact. This module checks the
contract directly, on every message, when ``REPRO_SANITIZE=1``:

* **Mutation-after-send.** Every inbox entry gets a structural fingerprint
  of its payload at enqueue (send/submit) time; the fingerprint is
  recomputed at delivery and any difference raises :class:`SanitizerError`
  naming the message and the window in which it was mutated.
* **Cross-replica state access.** Each replica's :class:`~repro.kvs.store.
  KeyValueStore` is wrapped so that, while some replica's handler is
  running, only that replica (or its :class:`~repro.cluster.sharding.
  ShardHost`, which legitimately reads guest stores during shard
  migration) may touch the store. A handler of one co-hosted shard
  reaching into a sibling shard's store — the bug class PR 5 chased by
  hand — is flagged at the faulting access.
* **Unseeded handler-time randomness.** The process-global ``random``
  module draw functions are wrapped to raise if called while any handler
  is running: all handler randomness must come from the node's seeded
  ``random.Random`` streams (:class:`repro.sim.rng.SeededRNG`), which are
  untouched by the guard.

The sanitizer is an **observer**: it draws no randomness, schedules no
events and never mutates simulation state, so artifacts produced with
``REPRO_SANITIZE=1`` are byte-identical to unsanitized runs (asserted by
the test suite and a CI smoke cell). When the variable is unset every hook
collapses to a single ``is None`` check on a cached attribute — the same
zero-cost discipline as the transaction lock hooks in
:mod:`repro.protocols.base`.
"""

from __future__ import annotations

import dataclasses
import os
import random as _random_module
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "SanitizerError",
    "Sanitizer",
    "get_sanitizer",
    "reset_sanitizer",
    "sanitizer_enabled",
]

#: Environment variable that enables the sanitizer ("1"/"true"/"yes").
ENV_VAR = "REPRO_SANITIZE"

#: Fingerprint recursion depth bound; structures deeper than this hash to an
#: opaque marker (consistently at enqueue and delivery, so no false alarms).
_MAX_DEPTH = 16

#: Module-level ``random`` draw functions guarded during handler execution.
#: ``random.Random`` *instances* (all seeded streams) are untouched — their
#: methods resolve through the class, not the module namespace.
_GUARDED_DRAWS = (
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "expovariate",
    "getrandbits",
    "randbytes",
)

_PRIMITIVES = (int, float, str, bytes, bool, complex)


class SanitizerError(AssertionError):
    """A determinism/aliasing invariant was violated at runtime."""


def sanitizer_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests the runtime sanitizer."""
    return os.environ.get(ENV_VAR, "").strip().lower() in {"1", "true", "yes", "on"}


_instance: Optional["Sanitizer"] = None


def get_sanitizer() -> Optional["Sanitizer"]:
    """The process-wide sanitizer, or ``None`` when disabled.

    Called once per node/cluster construction; hot paths cache the result
    and pay only an ``is None`` check when the sanitizer is off. The
    environment variable is re-read on every call so tests can flip it
    (with ``monkeypatch.setenv``) between cluster builds.
    """
    global _instance
    if not sanitizer_enabled():
        return None
    if _instance is None:
        _instance = Sanitizer()
    _instance.install_rng_guard()
    return _instance


def reset_sanitizer() -> None:
    """Drop the singleton and restore the global ``random`` module (tests)."""
    global _instance
    if _instance is not None:
        _instance.uninstall_rng_guard()
        _instance = None


class Sanitizer:
    """Observer-only runtime checker (see module docstring).

    One instance serves the whole process; per-delivery state is a stack of
    *owner tokens* (the replica object whose handler is running) pushed by
    :meth:`begin_delivery` from the node/host dispatch hooks.
    """

    def __init__(self) -> None:
        #: Active handler-owner stack. Empty means "outside the delivery
        #: path" (setup, preload, verification) where access is unrestricted.
        self._owners: List[Any] = []
        self._rng_originals: Dict[str, Callable[..., Any]] = {}
        self.fingerprints_checked = 0
        self.stores_guarded = 0

    # ------------------------------------------------------- fingerprinting
    def fingerprint(self, payload: Any) -> Any:
        """Structural fingerprint of a message payload.

        Walks primitives, tuples/lists/dicts/sets, enums, dataclasses and
        ``__slots__``/``__dict__`` objects; callables and unrecognised
        leaves are recorded by type only. The same unmutated object always
        fingerprints identically within a run, so comparing the enqueue and
        delivery fingerprints detects any in-between mutation.
        """
        return self._walk(payload, 0, set())

    def _walk(self, obj: Any, depth: int, seen: set) -> Any:
        if obj is None or type(obj) in _PRIMITIVES:
            return obj
        if depth >= _MAX_DEPTH:
            return ("#deep", type(obj).__name__)
        tp = type(obj)
        if tp is tuple or tp is list:
            marker = id(obj)
            if marker in seen:
                return ("#cycle",)
            seen.add(marker)
            try:
                return (
                    "T" if tp is tuple else "L",
                    tuple(self._walk(item, depth + 1, seen) for item in obj),
                )
            finally:
                seen.discard(marker)
        if tp is dict:
            marker = id(obj)
            if marker in seen:
                return ("#cycle",)
            seen.add(marker)
            try:
                return (
                    "D",
                    tuple(
                        (self._walk(k, depth + 1, seen), self._walk(v, depth + 1, seen))
                        for k, v in obj.items()
                    ),
                )
            finally:
                seen.discard(marker)
        if tp is set or tp is frozenset:
            return ("S", tuple(self._walk(item, depth + 1, seen) for item in obj))
        if isinstance(obj, Enum):
            return ("E", tp.__name__, obj.name)
        if isinstance(obj, _PRIMITIVES):  # bool/int/str subclasses
            return obj
        fields = self._object_fields(obj)
        if fields is not None:
            marker = id(obj)
            if marker in seen:
                return ("#cycle",)
            seen.add(marker)
            try:
                return (
                    "O",
                    tp.__name__,
                    tuple(
                        (name, self._walk(value, depth + 1, seen))
                        for name, value in fields
                    ),
                )
            finally:
                seen.discard(marker)
        # Callables, modules, exotic leaves: identity by type only.
        return ("#opaque", tp.__name__)

    @staticmethod
    def _object_fields(obj: Any) -> Optional[List[Tuple[str, Any]]]:
        """Name/value pairs of an object's data attributes, or ``None``.

        A dataclass field marked with :data:`repro.types.OUTCOME` metadata
        is skipped: it is an :class:`~repro.types.Operation`'s outcome, which
        its client session fills in when the operation (or its transaction)
        resolves, and that may happen while a message carrying the operation
        is still in flight (a 2PC prepare outliving its coordinator's
        timeout). Only the request fields are part of the message.
        """
        if dataclasses.is_dataclass(obj):
            return [
                (f.name, getattr(obj, f.name, None))
                for f in dataclasses.fields(obj)
                if not f.metadata.get("outcome")
            ]
        d = getattr(obj, "__dict__", None)
        if d is not None:
            return sorted(d.items())
        slot_names: List[str] = []
        for klass in type(obj).__mro__:
            slot_names.extend(getattr(klass, "__slots__", ()))
        if slot_names:
            return [
                (name, getattr(obj, name))
                for name in slot_names
                if name not in ("__weakref__",) and hasattr(obj, name)
            ]
        return None

    def verify(self, payload: Any, expected: Any, node_id: Any) -> None:
        """Re-fingerprint ``payload`` at delivery; raise on any mutation."""
        self.fingerprints_checked += 1
        actual = self._walk(payload, 0, set())
        if actual != expected:
            raise SanitizerError(
                f"message payload mutated after send (delivery at node "
                f"{node_id}): a handler or caller modified "
                f"{self._describe(payload)} between enqueue and delivery "
                f"on the zero-copy inbox.\n  at send:     {expected!r}\n"
                f"  at delivery: {actual!r}"
            )

    @staticmethod
    def _describe(payload: Any) -> str:
        if isinstance(payload, tuple):
            return "(" + ", ".join(type(item).__name__ for item in payload) + ")"
        return type(payload).__name__

    # ------------------------------------------------------ delivery context
    def begin_delivery(self, owner: Any) -> None:
        """Enter a handler: ``owner`` is the replica/host being delivered to."""
        self._owners.append(owner)

    def end_delivery(self) -> None:
        """Leave the innermost handler context."""
        self._owners.pop()

    # ---------------------------------------------------------- store guard
    def guard_store(self, store: Any, owner: Any, host: Any) -> None:
        """Wrap ``store``'s access methods with a cross-replica check.

        Access is legitimate when no handler is running (setup, preload,
        result verification), when the active handler belongs to ``owner``
        itself, or when it belongs to ``host`` (the machine-level
        :class:`ShardHost` dispatch — shard migration reads guest stores
        from host context by design). Anything else is a cross-replica
        reach — exactly the co-hosted aliasing bug class this guard exists
        to catch.
        """
        self.stores_guarded += 1
        owners_stack = self._owners
        label = f"replica {getattr(owner, 'node_id', '?')}/shard {getattr(owner, 'guest_tag', 0)}"

        def check() -> None:
            if not owners_stack:
                return
            active = owners_stack[-1]
            if active is owner or active is host:
                return
            active_label = (
                f"replica {getattr(active, 'node_id', '?')}"
                f"/shard {getattr(active, 'guest_tag', 0)}"
            )
            raise SanitizerError(
                f"cross-replica state access: handler of {active_label} "
                f"touched the store of {label} outside the delivery path; "
                "state may only be reached through messages"
            )

        for name in ("get", "try_get_record", "record", "peek_record", "put"):
            original = getattr(store, name)

            def guarded(*args: Any, _original: Callable[..., Any] = original, **kwargs: Any) -> Any:
                check()
                return _original(*args, **kwargs)

            setattr(store, name, guarded)

    # ------------------------------------------------------------ RNG guard
    def install_rng_guard(self) -> None:
        """Wrap module-level ``random`` draws to flag handler-time use.

        Idempotent. Wrapped draws pass straight through outside handlers,
        so test infrastructure and user scripts are unaffected; seeded
        ``random.Random`` instances never route through these module
        functions and stay untouched.
        """
        if self._rng_originals:
            return
        sanitizer = self

        for draw_name in _GUARDED_DRAWS:
            original = getattr(_random_module, draw_name, None)
            if original is None:
                continue
            self._rng_originals[draw_name] = original

            def guarded(
                *args: Any,
                _original: Callable[..., Any] = original,
                _name: str = draw_name,
                **kwargs: Any,
            ) -> Any:
                if sanitizer._owners:
                    active = sanitizer._owners[-1]
                    raise SanitizerError(
                        f"unseeded randomness: random.{_name}() drawn inside the "
                        f"handler of replica "
                        f"{getattr(active, 'node_id', '?')}; handlers must draw "
                        "from the node's seeded random.Random stream "
                        "(see repro.sim.rng.SeededRNG)"
                    )
                return _original(*args, **kwargs)

            setattr(_random_module, draw_name, guarded)

    def uninstall_rng_guard(self) -> None:
        """Restore the original module-level ``random`` functions."""
        for draw_name, original in self._rng_originals.items():
            setattr(_random_module, draw_name, original)
        self._rng_originals.clear()
