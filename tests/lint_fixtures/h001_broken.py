"""H001 fixture: a message type no dispatcher ever matches."""

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
class Dropped(TxnMessage):  # expect: H001
    """Reaches a replica but silently falls through every dispatch."""

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


@dataclass(slots=True)
class MissingFromTable(TxnMessage):  # expect: H001
    """Listed in a cost table, but absent from the handler table."""

    key: int = 0

    @property
    def size_bytes(self) -> int:
        return 24


#: Maps to strings, so it is not a handler table.
COSTS = {MissingFromTable: "24"}


def dispatch(message):
    cls = message.__class__
    if cls is Handled:
        return True
    return False


class Replica:
    def handlers(self):
        return {TableHandled: self._on_table_handled}

    def _on_table_handled(self, src, message):
        pass
