"""H001 clean twin: every message type is covered by some dispatcher."""

from dataclasses import dataclass


class TxnMessage:
    """Stand-in for the repo's transaction-message marker base."""

    __slots__ = ()


@dataclass(slots=True)
class Handled(TxnMessage):
    key: int = 0

    @property
    def size_bytes(self) -> int:
        return 24


@dataclass(slots=True)
class AlsoHandled(TxnMessage):
    key: int = 0

    @property
    def size_bytes(self) -> int:
        return 24


@dataclass(slots=True)
class TableHandled(TxnMessage):
    key: int = 0

    @property
    def size_bytes(self) -> int:
        return 24


def dispatch(message):
    cls = message.__class__
    if cls is Handled:
        return True
    if type(message) is AlsoHandled:
        return True
    return False


class Replica:
    def handlers(self):
        return {TableHandled: self._on_table_handled}

    def _on_table_handled(self, src, message):
        pass
