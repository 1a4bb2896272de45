"""Plain-text reporting helpers for experiment output.

The benchmark harnesses print the same rows/series the paper's figures plot;
these helpers format them as aligned text tables so the output is readable in
a terminal and easy to paste into a report (the reproduction ledger of
ROADMAP item 11).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Format a simple aligned text table."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_series(
    series: Mapping[str, Mapping[float, float]],
    x_label: str = "alpha",
    title: Optional[str] = None,
) -> str:
    """Format ``{method: {x: y}}`` series as a table with one column per method.

    This is the textual equivalent of one sub-figure of Fig. 6: rows are the
    x-axis values, columns are the methods.
    """
    xs = sorted({x for values in series.values() for x in values})
    methods = sorted(series)
    headers = [x_label] + methods
    rows = []
    for x in xs:
        row: List[object] = [f"{x:g}"]
        for method in methods:
            value = series[method].get(x)
            row.append("-" if value is None else value)
        rows.append(row)
    return format_table(headers, rows, title=title)
