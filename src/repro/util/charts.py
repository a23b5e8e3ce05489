"""ASCII charts for benchmark output.

Renders stacked-percentage bars so the bench text files visually
resemble the paper's figures.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["stacked_bars"]


_FILL = "#=+-.~o*x"
#: Characters per bar.
_WIDTH = 60


def stacked_bars(
    labels: Sequence[str],
    series: dict[str, Sequence[float]],
    *,
    title: str | None = None,
) -> str:
    """Stacked 100%-style bars (one row per label) from named series.

    Each row's segments are scaled to the row total; a legend maps fill
    characters to series names.
    """
    names = list(series)
    for name in names:
        if len(series[name]) != len(labels):
            raise ValueError(f"series {name!r} length mismatch")
    label_w = max(len(l) for l in labels) if labels else 0
    lines = [title] if title else []
    legend = "  ".join(f"{_FILL[i % len(_FILL)]}={n}" for i, n in enumerate(names))
    lines.append(f"legend: {legend}")
    for row, label in enumerate(labels):
        total = sum(series[n][row] for n in names)
        if total <= 0:
            lines.append(f"{label.ljust(label_w)} |{' ' * _WIDTH}|")
            continue
        cells: list[str] = []
        for i, n in enumerate(names):
            seg = int(round(series[n][row] / total * _WIDTH))
            cells.append(_FILL[i % len(_FILL)] * seg)
        bar = "".join(cells)[:_WIDTH].ljust(_WIDTH)
        lines.append(f"{label.ljust(label_w)} |{bar}|")
    return "\n".join(lines)
