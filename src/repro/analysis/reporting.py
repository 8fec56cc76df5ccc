"""ASCII table/series formatting for the benchmark harness output."""

from __future__ import annotations

import math
from typing import Sequence

#: Default placeholder rendered for non-finite float cells.
NA_PLACEHOLDER = "na"


def _fmt(v, precision: int, na: str = NA_PLACEHOLDER) -> str:
    if isinstance(v, float):
        # Non-finite floats would otherwise render as "nan"/"inf" —
        # inconsistent with the precision-formatted finite cells and
        # indistinguishable from a deliberate label.  NaN marks a
        # missing value; infinities keep their sign.
        if math.isnan(v):
            return na
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.{precision}f}"
    return str(v)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
    precision: int = 3,
    na: str = NA_PLACEHOLDER,
) -> str:
    """Render rows as a fixed-width ASCII table.

    Non-finite float cells render as the ``na`` placeholder (NaN) or a
    bare signed ``inf`` — never through the precision format.
    """
    if any(len(r) != len(headers) for r in rows):
        raise ValueError("every row must match the header width")
    cells = [[_fmt(v, precision, na) for v in r] for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for r in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)
