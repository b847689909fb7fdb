"""Plain-text table formatting for experiment output."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

__all__ = ["format_table", "fmt_seconds", "fmt_bytes", "fmt_pct"]


def fmt_seconds(v: float) -> str:
    """Human-readable seconds (s / ms / us as magnitude requires)."""
    if v >= 100:
        return f"{v:.0f} s"
    if v >= 1:
        return f"{v:.2f} s"
    if v >= 1e-3:
        return f"{v * 1e3:.2f} ms"
    return f"{v * 1e6:.1f} us"


def fmt_bytes(v: float) -> str:
    """Human-readable byte count (TB / GB / MB / KB / B)."""
    for unit, scale in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if v >= scale:
            return f"{v / scale:.2f} {unit}"
    return f"{v:.0f} B"


def fmt_pct(v: float) -> str:
    """Fraction rendered as a percentage with two decimals."""
    return f"{v * 100:.2f}%"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [c if isinstance(c, str) else f"{c}" for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths, strict=True)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)))
    return "\n".join(lines)
