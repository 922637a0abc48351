"""D005 clean twin: weak references without callbacks, explicit teardown."""

import weakref


class Replica:
    def close(self):
        self.closed = True

    def __delitem__(self, key):
        pass


def watch(cluster, owner):
    ref = weakref.ref(owner)
    hook = weakref.WeakMethod(owner.recover)
    view = weakref.proxy(cluster)
    return ref, hook, view


def __del__():
    """A module-level function of that name is not a finalizer."""
