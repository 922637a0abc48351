"""Plain-text report formatting.

The benchmark harness prints every reproduced table and figure as an aligned
text table so that results can be compared against the paper at a glance and
pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render an aligned text table.

    Args:
        headers: Column headers.
        rows: Row cell values (converted with ``str``).
        title: Optional title printed above the table.

    Returns:
        The formatted multi-line string.
    """
    string_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[i]) for i, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * w for w in widths) + "-|"
    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append(separator)
    for row in string_rows:
        lines.append(render_row(row))
    return "\n".join(lines)
