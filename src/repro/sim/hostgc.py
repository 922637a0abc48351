"""Host garbage-collector governor for simulation runs.

A run retains every completed operation's record until the caller drops
the client sessions (and every key's store record until it drops the
cluster), and the event loop allocates no reference cycles
(``tests/test_gc_discipline.py`` holds it to that). CPython's cyclic
collector still re-walks that growing, cycle-free heap: each full
(generation-2) collection traverses every tracked object and frees nothing.

A dropped cell leaves nothing for the collector either: dropping its
cluster runs the cluster's teardown, and its skeleton, sessions and op
records are then freed by reference counting. The rule is still to leave
the collector alone until its first full collection inside a run has
finished, then pause automatic collection until the run ends. Pausing from
the start of the run instead was measured (``perf/bench.py``, two
alternating pairs on a 2-core Xeon container) and was no clear win: the
``fuzz-batch`` host rate read 9.8k/9.4k ops/s with the rule and 8.9k/8.9k
without it, ``protocol-grid`` 19.0k/19.2k and 17.1k/17.6k, while
``read-heavy`` read higher without it. The kept pass also still frees any
cycle a caller's own code leaves behind. No threshold changes, no forced
collection, nothing frozen; reference counting keeps freeing acyclic
garbage throughout.

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
