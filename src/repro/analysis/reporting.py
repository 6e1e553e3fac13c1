"""ASCII renderer for paper-style tables.

Benches print the same rows the paper reports; the helper keeps the
formatting consistent (fixed-width columns, aligned decimals) without
pulling in a dependency.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError


def _format_cell(value: object, decimals: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
    decimals: int = 3,
) -> str:
    """Render a fixed-width ASCII table.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  -----
    1  2.500
    """
    if not headers:
        raise ConfigurationError("table needs at least one column")
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    cells = [[_format_cell(v, decimals) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
