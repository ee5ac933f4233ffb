"""Plain-text table rendering for benchmark and CLI output.

The benchmark harness prints the same rows and series the paper's figures
show; these helpers keep that output aligned and readable without pulling in
any plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, float, int, None]


def _format_cell(value: Cell, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_row(cells: Sequence[Cell], widths: Sequence[int], precision: int = 3) -> str:
    """Format one row with the given column widths."""
    parts = []
    for cell, width in zip(cells, widths):
        parts.append(_format_cell(cell, precision).rjust(width))
    return "  ".join(parts)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Render a full table (title, header, separator, rows) as one string."""
    materialised: List[Sequence[Cell]] = [list(row) for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(_format_cell(cell, precision)))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.rjust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in materialised:
        lines.append(format_row(row, widths, precision))
    return "\n".join(lines)

