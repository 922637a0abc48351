"""D005 fixture: host-GC hooks inside the deployment (path has ``sim/``)."""

import weakref
from weakref import finalize as on_free


class Replica:
    def __del__(self):  # expect: D005
        self.closed = True


def watch(cluster, owner, teardown):
    weakref.finalize(cluster, teardown)  # expect: D005
    on_free(owner, teardown)  # expect: D005
    ref = weakref.ref(owner, lambda _: teardown())  # expect: D005
    hook = weakref.WeakMethod(owner.recover, callback=teardown)  # expect: D005
    view = weakref.proxy(owner, teardown)  # expect: D005
    return ref, hook, view
