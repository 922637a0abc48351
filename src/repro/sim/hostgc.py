"""Host garbage-collector governor for simulation runs.

A run retains every completed operation's record until the caller drops
the client sessions (and every key's store record until it drops the
cluster), and the event loop allocates no reference cycles
(``tests/test_gc_discipline.py`` holds it to that). CPython's cyclic
collector still re-walks that growing, cycle-free heap: each full
(generation-2) collection traverses every tracked object and frees nothing.

The one full collection that does find garbage is the first of a run. A
dropped cell's cluster, client sessions and op records are freed by
reference counting, but its replica skeleton (the network registry and the
nodes it reaches, transports, membership callbacks) *is* cyclic, and in a
multi-cell process only a full pass frees the previous cells' skeletons. So
the rule is to leave the collector alone until its first full collection
inside a run has finished, then pause automatic collection until the run
ends. No threshold changes, no forced collection, nothing frozen; reference
counting keeps freeing acyclic garbage throughout.

This is host bookkeeping only: collector timing cannot reach simulated
time, event order or any artifact. See ARCHITECTURE.md, "Host cost of
retained state", for the measured alternatives.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Any, Dict, Iterator


@contextmanager
def quiet_after_full_collection() -> Iterator[None]:
    """Pause automatic GC once a full collection completes inside the block.

    On exit the hook is removed and, if this entry's hook is the one that
    paused the collector, it is re-enabled. Does nothing when the collector
    is already disabled on entry, and on interpreters that never report a
    generation-2 pass. Safe to nest: the outermost entry resumes collection.
    """
    if not gc.isenabled():
        yield
        return
    paused = False

    def pause(phase: str, info: Dict[str, Any]) -> None:
        nonlocal paused
        if phase == "stop" and info["generation"] == 2 and gc.isenabled():
            gc.disable()
            paused = True

    gc.callbacks.append(pause)
    try:
        yield
    finally:
        gc.callbacks.remove(pause)
        if paused:
            gc.enable()
